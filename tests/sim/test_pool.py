"""Tests for the persistent zero-copy worker pool (:mod:`repro.sim.
pool` + :mod:`repro.sim.shm` + pooled routing): the one row split,
bit-identity against the in-process batch (fixed-step) and in-process
even-slice solves (adaptive), the serial fan-out, worker reuse,
shared-memory hygiene on success / worker crash / KeyboardInterrupt,
resource-tracker hygiene, and graceful fallbacks (including a failed
shared-memory allocation).

Most sweeps here are small, so the ``small_pool_groups`` fixture lowers
the 64-row pool threshold for them."""

import errno
import glob
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.cli import main
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.paradigms.tln.noisy import NoisyTlineFactory
from repro.sim import (compile_batch, even_parts, run_ensemble, shm,
                       solve_batch, solve_sde)
from repro.sim.plan import _whole_group_fuse
from repro.sim.pool import (PoolBrokenError, WorkerPool, get_pool,
                            _POOLS)
from repro.sim.shm import ShmBlock


class TlineFactory:
    """Module-level (picklable) deterministic factory."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


class TwoGroupFactory:
    """Two structural groups: 3- and 4-segment lines alternate."""

    def __call__(self, seed):
        spec = TLineSpec(n_segments=3 if seed % 2 else 4)
        return mismatched_tline("gm", seed=seed, spec=spec)


class CrashFactory:
    """Builds normally in the parent, kills any *worker* that calls it
    — simulates a hard worker crash (segfault/OOM-kill shape)."""

    def __init__(self):
        self.parent_pid = os.getpid()

    def __call__(self, seed):
        if os.getpid() != self.parent_pid:
            os._exit(13)
        return mismatched_tline("gm", seed=seed)


NOISY = NoisyTlineFactory(TLineSpec(n_segments=4), noise=1e-9)


class CrashNoisyFactory:
    """:class:`CrashFactory` for a transiently noisy line."""

    def __init__(self):
        self.parent_pid = os.getpid()

    def __call__(self, seed):
        if os.getpid() != self.parent_pid:
            os._exit(13)
        return NOISY(seed)


class PoisonFactory:
    """Raises a (picklable) SimulationError inside workers only — the
    soft-failure path: the worker survives and reports the error."""

    def __init__(self):
        self.parent_pid = os.getpid()

    def __call__(self, seed):
        if os.getpid() != self.parent_pid:
            raise SimulationError("poisoned shard (forced)")
        return mismatched_tline("gm", seed=seed)


SPAN = (0.0, 4e-8)


def _assert_no_leaks():
    assert shm.active_blocks() == []
    assert glob.glob("/dev/shm/arkshm_*") == []


def _even_slice_reference(systems, solve, processes=2):
    """What the pool computes for an adaptive method: the canonical
    even split, each slice solved in-process with the whole-group fuse
    decision, stacked back in row order."""
    fuse = _whole_group_fuse(len(systems), systems[0])
    return np.concatenate([
        solve(compile_batch([systems[row] for row in part], fuse=fuse),
              part).y
        for part in even_parts(len(systems), processes)])


def _assert_same_rows(result, expected):
    assert result.groups == expected.groups
    for a, b in zip(result.batches, expected.batches):
        np.testing.assert_array_equal(a.t, b.t)
        np.testing.assert_array_equal(a.y, b.y)


def _assert_partition(parts, n_rows):
    """Contiguous, ordered, nonempty, covers every row exactly once."""
    assert all(len(part) for part in parts)
    flat = np.concatenate(parts)
    np.testing.assert_array_equal(flat, np.arange(n_rows))


class TestEvenParts:
    def test_matches_array_split(self):
        parts = even_parts(10, 3)
        expected = np.array_split(np.arange(10), 3)
        assert len(parts) == 3
        for part, want in zip(parts, expected):
            np.testing.assert_array_equal(part, want)

    def test_more_shards_than_rows_never_emits_empty(self):
        # n_rows < processes must clamp, not emit empty shards.
        parts = even_parts(3, 8)
        assert len(parts) == 3
        _assert_partition(parts, 3)

    def test_single_row_bypasses_sharding(self):
        assert even_parts(1, 4) == []
        assert even_parts(0, 4) == []

    def test_single_shard_bypasses_sharding(self):
        assert even_parts(10, 1) == []


@pytest.mark.usefixtures("small_pool_groups")
class TestRowSplit:
    @pytest.mark.parametrize("method", ["rk4", "rkf45", "heun",
                                        "heun-adaptive"])
    def test_every_method_runs_the_even_split(self, method):
        # One split for every method, fixed-step or adaptive: each
        # group fans out into exactly len(even_parts(rows, processes))
        # shards.
        if method in ("rk4", "rkf45"):
            result = run_ensemble(TwoGroupFactory(), range(7), SPAN,
                                  processes=2,
                                  n_points=30, method=method,
                                  telemetry=True)
            rows = [len(group) for group in result.groups]
        else:
            trials = 2
            result = run_ensemble(
                NoisyTlineFactory(TLineSpec(n_segments=4), noise=1e-9),
                range(3), SPAN, processes=2,
                n_points=30, trials=trials, sde_method=method,
                rtol=1e-4, atol=1e-7, reference=False, telemetry=True)
            rows = [len(group) * trials for group in result.groups]
        assert len(rows) >= 1
        expected = sum(len(even_parts(n, 2)) for n in rows)
        assert result.telemetry.counter("pool.shards") == expected
        _assert_no_leaks()


class TestBitIdentity:
    def test_pool_matches_batch_rk4(self, small_pool_groups):
        factory = TlineFactory()
        kwargs = dict(n_points=40, method="rk4")
        batch = run_ensemble(factory, range(6), SPAN, **kwargs)
        pool = run_ensemble(factory, range(6), SPAN, processes=2, **kwargs)
        np.testing.assert_array_equal(batch.batches[0].y,
                                      pool.batches[0].y)
        _assert_no_leaks()

    def test_pool_matches_even_slices_rkf45(self, small_pool_groups):
        # Adaptive steps depend on shard membership, so rkf45 is the
        # strict test that the pool runs the canonical even split.
        factory = TwoGroupFactory()
        pool = run_ensemble(factory, range(8), SPAN, processes=2,
                            n_points=40)
        assert len(pool.batches) == 2
        for group, batch in zip(pool.groups, pool.batches):
            systems = [compile_graph(factory(seed)) for seed in group]
            reference = _even_slice_reference(
                systems, lambda rhs, _part: solve_batch(
                    rhs, SPAN, n_points=40, method="rkf45"))
            np.testing.assert_array_equal(reference, batch.y)
        _assert_no_leaks()

    @pytest.mark.parametrize("method", ["heun", "heun-adaptive"])
    def test_pool_sde_matches_in_process(self, method,
                                         small_pool_groups):
        # Fixed-step heun equals the whole-group batch; the adaptive
        # pair equals in-process solves over the even slices.
        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        kwargs = dict(trials=2, n_points=40, sde_method=method,
                      rtol=1e-4, atol=1e-7)
        batch = run_ensemble(factory, range(4), SPAN, **kwargs)
        pool = run_ensemble(factory, range(4), SPAN, processes=2, **kwargs)
        if method == "heun":
            np.testing.assert_array_equal(batch.batches[0].y,
                                          pool.batches[0].y)
        else:
            systems = [compile_graph(factory(seed))
                       for seed in range(4) for _trial in range(2)]
            tokens = [f"{seed}:{trial}" for seed in range(4)
                      for trial in range(2)]
            reference = _even_slice_reference(
                systems, lambda rhs, part: solve_sde(
                    rhs, SPAN, noise_seeds=[tokens[r] for r in part],
                    n_points=40, method=method, rtol=1e-4, atol=1e-7))
            np.testing.assert_array_equal(reference, pool.batches[0].y)
        for chip in range(4):
            np.testing.assert_array_equal(batch.reference(chip).y,
                                          pool.reference(chip).y)
        _assert_no_leaks()

    def test_auto_prefers_pool_and_stays_bit_identical(self):
        # processes>1 + a group of DEFAULT_SHARD_MIN rows (32 chips x 2
        # trials) goes through the persistent pool; outputs must equal
        # the in-process batch.
        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        batch = run_ensemble(factory, range(32), SPAN, trials=2,
                             n_points=40, reference=False)
        auto = run_ensemble(factory, range(32), SPAN, trials=2,
                            n_points=40, processes=2, reference=False,
                            telemetry=True)
        assert auto.telemetry.counter("pool.shards") == 2
        np.testing.assert_array_equal(batch.batches[0].y,
                                      auto.batches[0].y)
        _assert_no_leaks()

    def test_pool_freeze_masks_survive_transport(self, small_pool_groups):
        # frozen/nfev metadata rides the result queue, not the shm
        # block; masked pool runs must agree with the masked batch.
        factory = TlineFactory()
        kwargs = dict(n_points=40, method="rk4", freeze_tol=1e3)
        batch = run_ensemble(factory, range(6), SPAN, **kwargs)
        pool = run_ensemble(factory, range(6), SPAN, processes=2, **kwargs)
        np.testing.assert_array_equal(batch.batches[0].y,
                                      pool.batches[0].y)
        assert pool.batches[0].frozen is not None
        assert pool.batches[0].nfev is not None
        _assert_no_leaks()


@pytest.mark.usefixtures("small_pool_groups")
class TestPersistence:
    def test_workers_are_reused_across_solves(self):
        factory = TlineFactory()
        run_ensemble(factory, range(4), SPAN, processes=2, n_points=30,
                     method="rk4")
        first = _POOLS.get(2)
        assert first is not None
        pids = sorted(worker.pid for worker in first._workers)
        run_ensemble(factory, range(4), SPAN, processes=2, n_points=30,
                     method="rk4")
        second = _POOLS.get(2)
        assert second is first
        assert sorted(w.pid for w in second._workers) == pids
        _assert_no_leaks()

    def test_get_pool_respawns_after_breakage(self):
        pool = get_pool(2)
        pool._break()
        assert pool.broken
        fresh = get_pool(2)
        assert fresh is not pool and not fresh.broken

    def test_idle_pools_of_other_widths_are_retired(self):
        # Sweeps with varying `processes` must not accumulate resident
        # workers: requesting a new width retires idle pools of other
        # widths (in-flight ones are left alone).
        two = get_pool(2)
        three = get_pool(3)
        assert two.broken and 2 not in _POOLS
        again = get_pool(2)
        assert three.broken and again is not two
        assert sorted(_POOLS) == [2]

    def test_pool_result_is_cachable(self, tmp_path):
        from repro.sim import TrajectoryCache

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        cache = TrajectoryCache(directory=tmp_path)
        pooled = run_ensemble(factory, range(4), SPAN, trials=2,
                              n_points=30, processes=2, cache=cache,
                              reference=False)
        assert cache.stats.stores >= 1
        replay = run_ensemble(factory, range(4), SPAN, trials=2,
                              n_points=30, cache=cache,
                              reference=False)
        assert cache.stats.hits >= 1
        np.testing.assert_array_equal(pooled.batches[0].y,
                                      replay.batches[0].y)
        _assert_no_leaks()


@pytest.mark.usefixtures("small_pool_groups")
class TestFallbacks:
    def test_unpicklable_factory_falls_back_to_batch(self):
        spec = TLineSpec(n_segments=4)
        factory = lambda seed: mismatched_tline("gm", seed=seed,  # noqa: E731
                                                spec=spec)
        pooled = run_ensemble(factory, range(4), SPAN, processes=2,
                              n_points=30)
        batch = run_ensemble(factory, range(4), SPAN, n_points=30)
        np.testing.assert_array_equal(batch.batches[0].y,
                                      pooled.batches[0].y)
        _assert_no_leaks()

    def test_shm_allocation_failure_falls_back_to_batch(self,
                                                        monkeypatch):
        # No /dev/shm, EMFILE, ENOSPC: a failed allocation costs speed,
        # never the sweep.
        def no_space(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        factory = TlineFactory()
        kwargs = dict(n_points=30, method="rk4")
        batch = run_ensemble(factory, range(6), SPAN, **kwargs)
        monkeypatch.setattr(shm.ShmBlock, "create", no_space)
        with pytest.warns(RuntimeWarning, match="shared-memory"):
            pooled = run_ensemble(factory, range(6), SPAN,
                                  processes=2,
                                  telemetry=True, **kwargs)
        np.testing.assert_array_equal(batch.batches[0].y,
                                      pooled.batches[0].y)
        assert pooled.telemetry.counter("pool.shm_alloc_failed") == 1
        assert shm.active_blocks() == []

    def test_single_process_falls_back_to_batch(self):
        factory = TlineFactory()
        pooled = run_ensemble(factory, range(4), SPAN, processes=1,
                              n_points=30)
        batch = run_ensemble(factory, range(4), SPAN, n_points=30)
        np.testing.assert_array_equal(batch.batches[0].y,
                                      pooled.batches[0].y)
        _assert_no_leaks()


@pytest.mark.usefixtures("small_pool_groups")
class TestFailureHygiene:
    def test_worker_crash_reruns_in_process_and_unlinks(self, tmp_path,
                                                        capsys):
        # A dying worker costs speed, never the sweep: the group re-runs
        # in-process over the pool's slices, bit-identical to the
        # in-process solve (rk4 rows are partition-independent).
        result = run_ensemble(CrashFactory(), range(6), SPAN,
                              processes=2, n_points=30,
                              method="rk4", telemetry=True)
        batch = run_ensemble(TlineFactory(), range(6), SPAN,
                             n_points=30, method="rk4")
        _assert_same_rows(result, batch)
        assert result.telemetry.counter("pool.breaks") == 1
        assert result.telemetry.counter("plan.rerun_rows") == 6
        assert result.telemetry.counter("plan.demoted_rows") == 0
        _assert_no_leaks()
        # The broken pool was evicted; the next run gets fresh workers,
        # counts the respawn, and succeeds.
        result = run_ensemble(TlineFactory(), range(4), SPAN,
                              processes=2, n_points=30,
                              method="rk4", telemetry=True)
        assert len(result.batches) == 1
        assert result.telemetry.counter("pool.respawns") == 1
        result.telemetry.save(tmp_path / "run.json")
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run.json")]) == 0
        assert "pool.respawns" in capsys.readouterr().out
        _assert_no_leaks()

    def test_worker_crash_with_auto_method_reruns_batched(self):
        # The auto method re-runs a crashed group with its batched
        # rkf45 over the pool's even slices (no scipy demotion), so the
        # result is the one a healthy pool returns.
        result = run_ensemble(CrashFactory(), range(6), SPAN,
                              processes=2, n_points=30,
                              telemetry=True)
        healthy = run_ensemble(TlineFactory(), range(6), SPAN,
                               processes=2, n_points=30)
        assert result.serial_indices == []
        _assert_same_rows(result, healthy)
        systems = [compile_graph(mismatched_tline("gm", seed=seed))
                   for seed in range(6)]
        np.testing.assert_array_equal(
            result.batches[0].y,
            _even_slice_reference(
                systems, lambda batch, part: solve_batch(
                    batch, SPAN, n_points=30, method="rkf45")))
        assert result.telemetry.counter("plan.rerun_rows") == 6
        assert result.telemetry.counter("plan.demoted_rows") == 0
        _assert_no_leaks()

    @pytest.mark.parametrize("method", ["heun", "heun-adaptive"])
    def test_noisy_worker_crash_reruns_in_process(self, method):
        # One killed worker no longer loses a noisy sweep: the group and
        # the chips' rk4 references (pooled too, being small groups here)
        # re-run in-process, bit-identical to a healthy pool run (and,
        # for the fixed-step method, to the in-process run).
        kwargs = dict(trials=4, n_points=30, sde_method=method,
                      rtol=1e-4, atol=1e-7)
        result = run_ensemble(CrashNoisyFactory(), range(4), SPAN,
                              processes=2,
                              telemetry=True, **kwargs)
        healthy = run_ensemble(NOISY, range(4), SPAN, processes=2, **kwargs)
        _assert_same_rows(result, healthy)
        if method == "heun":
            _assert_same_rows(result, run_ensemble(NOISY, range(4), SPAN,
                                                   **kwargs))
        for chip in range(4):
            np.testing.assert_array_equal(result.reference(chip).y,
                                          healthy.reference(chip).y)
        assert result.telemetry.counter("pool.breaks") == 2
        assert result.telemetry.counter("plan.rerun_rows") == 16 + 4
        _assert_no_leaks()

    def test_soft_worker_error_propagates_and_unlinks(self):
        factory = PoisonFactory()
        with pytest.raises(SimulationError, match="poisoned"):
            run_ensemble(factory, range(6), SPAN, processes=2,
                         n_points=30, method="rk4")
        _assert_no_leaks()
        # Soft errors keep the workers alive: the pool is NOT broken.
        assert 2 in _POOLS and not _POOLS[2].broken

    def test_drain_one_wakes_promptly_on_silent_worker_death(self):
        # The event-driven drain waits on the workers' death sentinels,
        # so a worker that dies without reporting anything breaks the
        # pool immediately instead of after a poll interval.
        import time

        from repro.sim.pool import shutdown_pools

        shutdown_pools()
        try:
            pool = get_pool(2)
            victim = pool._workers[0]
            victim.terminate()
            victim.join()
            started = time.perf_counter()
            with pytest.raises(PoolBrokenError, match="died"):
                pool.drain_one()
            assert time.perf_counter() - started < 2.0
            assert pool.broken
            assert 2 not in _POOLS
        finally:
            shutdown_pools()

    def test_keyboard_interrupt_unlinks(self, monkeypatch):
        factory = TlineFactory()

        def interrupted(self):
            raise KeyboardInterrupt

        monkeypatch.setattr(WorkerPool, "drain_one", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_ensemble(factory, range(6), SPAN, processes=2,
                         n_points=30, method="rk4")
        _assert_no_leaks()
        monkeypatch.undo()
        # The pool survives an interrupt (stale results are dropped on
        # the next drain) and still produces correct runs.
        result = run_ensemble(factory, range(6), SPAN, processes=2,
                              n_points=30, method="rk4")
        batch = run_ensemble(factory, range(6), SPAN, n_points=30,
                             method="rk4")
        np.testing.assert_array_equal(batch.batches[0].y,
                                      result.batches[0].y)
        _assert_no_leaks()


class TestShmBlock:
    def test_header_is_tiny_and_attachable(self):
        block = ShmBlock.create((3, 2, 5))
        try:
            assert len(pickle.dumps(block.header)) < 200
            rows = np.arange(2 * 2 * 5, dtype=float).reshape(2, 2, 5)
            attached = ShmBlock.attach(block.header)
            attached.write_rows(1, rows)
            attached.close()
            out = block.read_copy()
            np.testing.assert_array_equal(out[1:], rows)
        finally:
            block.discard()
        _assert_no_leaks()

    def test_unlink_is_idempotent(self):
        block = ShmBlock.create((2, 2))
        block.discard()
        block.discard()
        _assert_no_leaks()

    def test_empty_block_rejected(self):
        with pytest.raises(SimulationError, match="empty"):
            ShmBlock.create((0, 3))


class TestSerialFanOut:
    def test_serial_fan_out_runs_on_the_pool(self):
        factory = TlineFactory()
        fanned = run_ensemble(factory, range(3), SPAN, n_points=30,
                              method="RK45", processes=2)
        assert 2 in _POOLS and not _POOLS[2].broken
        local = run_ensemble(factory, range(3), SPAN, n_points=30,
                             method="RK45")
        for a, b in zip(fanned, local):
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.t, b.t)
        _assert_no_leaks()

    def test_serial_fan_out_worker_crash_reruns_in_process(self):
        # A dying worker breaks the pool instead of hanging the fan-out;
        # the seeds re-run in-process with the same scipy solve, and
        # the next fan-out spawns fresh workers.
        result = run_ensemble(CrashFactory(), range(3), SPAN,
                              n_points=30, method="RK45", processes=2,
                              telemetry=True)
        local = run_ensemble(TlineFactory(), range(3), SPAN, n_points=30,
                             method="RK45")
        assert result.serial_indices == [0, 1, 2]
        for a, b in zip(result, local):
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.t, b.t)
        assert result.telemetry.counter("pool.breaks") == 1
        assert result.telemetry.counter("plan.rerun_rows") == 3
        _assert_no_leaks()
        result = run_ensemble(TlineFactory(), range(3), SPAN,
                              n_points=30, method="RK45", processes=2)
        assert len(result) == 3 and result.serial_indices == [0, 1, 2]
        _assert_no_leaks()

    def test_serial_fan_out_reports_worker_telemetry(self):
        from repro.telemetry import RunReport

        report = RunReport()
        run_ensemble(TlineFactory(), range(3), SPAN, n_points=30,
                     method="RK45", processes=2, telemetry=report)
        assert report.counter("serial.solves") == 3
        assert sum(block["shards"]
                   for block in report.workers.values()) == 3


class TestResourceTracker:
    def test_pool_run_after_tracker_start_prints_no_key_error(self):
        # A pool forked after the parent's resource tracker started
        # shares that tracker; a worker untracking its attachment would
        # drop the parent's registration and the parent's unlink would
        # then make the tracker print KeyError tracebacks.
        script = textwrap.dedent("""
            from repro.paradigms.tln import mismatched_tline
            from repro.sim import run_ensemble
            from repro.sim.pool import shutdown_pools
            from repro.sim.shm import ShmBlock

            class Factory:
                def __call__(self, seed):
                    return mismatched_tline("gm", seed=seed)

            ShmBlock.create((2, 2)).discard()
            # 64 rows: the group takes the pool.
            result = run_ensemble(Factory(), range(64), (0.0, 4e-8),
                                  processes=2, n_points=30,
                                  method="rk4")
            assert len(result.batches) == 1
            shutdown_pools()
        """)
        env = dict(os.environ)
        source = os.path.join(os.path.dirname(__file__), "..", "..",
                              "src")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(source),
                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        assert "KeyError" not in done.stderr
        assert "resource_tracker" not in done.stderr
