"""Tests for the adaptive scheduling layer (:mod:`repro.sim.sched`):
partition math with synthetic per-row costs, profile persistence and
corrupt-file fallback, overshard fan-out, adaptive-method pinning,
worker CPU pinning, and the bit-identity gates ``schedule="cost"`` vs
``schedule="even"`` across serial/batch/pool x rk4/rkf45/SDE."""

import glob
import json
import os

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.paradigms.tln.noisy import NoisyTlineFactory
from repro.sim import run_ensemble, shm
from repro.sim.plan import ExecutionPlan
from repro.sim.pool import _POOLS, get_pool, shutdown_pools
from repro.sim.sched import (ADAPTIVE_METHODS, CostProfile, Scheduler,
                             balanced_parts, even_parts,
                             pin_worker_processes, static_row_cost)
from repro.telemetry import RunReport


class TlineFactory:
    """Module-level (picklable) deterministic factory."""

    def __call__(self, seed):
        return mismatched_tline("gm", seed=seed)


class TwoGroupFactory:
    """Two structural groups: 3- and 4-segment lines alternate."""

    def __call__(self, seed):
        spec = TLineSpec(n_segments=3 if seed % 2 else 4)
        return mismatched_tline("gm", seed=seed, spec=spec)


SPAN = (0.0, 4e-8)


def _assert_no_leaks():
    assert shm.active_blocks() == []
    assert glob.glob("/dev/shm/arkshm_*") == []


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

    def test_shard_parts_delegates(self):
        # The pool's split of an adaptive group is the canonical even
        # split, whatever the schedule knobs say.
        scheduler = Scheduler(schedule="cost", overshard=4)
        parts = scheduler.parts(7, 3, method="rkf45")
        _assert_partition(parts, 7)
        for part, want in zip(parts, even_parts(7, 3)):
            np.testing.assert_array_equal(part, want)
        assert scheduler.parts(1, 4, method="rkf45") == []
        assert scheduler.parts(5, 1, method="rkf45") == []

class TestBalancedParts:
    def test_uniform_costs_match_even(self):
        parts = balanced_parts(np.ones(10), 3)
        even = even_parts(10, 3)
        for part, want in zip(parts, even):
            np.testing.assert_array_equal(part, want)

    def test_isolates_expensive_rows(self):
        costs = np.ones(16)
        costs[0] = 100.0
        parts = balanced_parts(costs, 4)
        _assert_partition(parts, 16)
        # The expensive head row gets a shard of its own; the cheap
        # tail is spread across the rest.
        assert len(parts[0]) == 1
        sums = [costs[part].sum() for part in parts]
        assert max(sums) == pytest.approx(100.0)

    def test_balances_synthetic_skew(self):
        costs = np.array([10, 1, 1, 1, 1, 1, 1, 10], dtype=float)
        parts = balanced_parts(costs, 4)
        _assert_partition(parts, 8)
        sums = [costs[part].sum() for part in parts]
        # Even split would put 10+1 in the first and last shard (cost
        # 11 each); the balanced cut isolates each expensive row.
        assert max(sums) <= 11.0
        assert len(parts[0]) == 1 and len(parts[-1]) == 1

    def test_every_part_nonempty_under_extreme_skew(self):
        costs = np.zeros(6)
        costs[0] = 1e9
        parts = balanced_parts(costs, 4)
        assert len(parts) == 4
        _assert_partition(parts, 6)

    def test_degenerate_costs_fall_back_to_even(self):
        for costs in (np.zeros(8), -np.ones(8),
                      np.full(8, np.nan), np.full(8, np.inf)):
            parts = balanced_parts(costs, 3)
            even = even_parts(8, 3)
            for part, want in zip(parts, even):
                np.testing.assert_array_equal(part, want)

    def test_small_inputs_bypass(self):
        assert balanced_parts([1.0], 4) == []
        assert balanced_parts([], 4) == []
        assert balanced_parts([1.0, 2.0, 3.0], 1) == []


class TestCostProfile:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "cost_profile.json")
        profile = CostProfile(path)
        profile.observe("ode:rk4:abc", 8,
                        [(0, 4, 0.4), (4, 4, 0.1)])
        profile.save()
        assert os.path.exists(path)
        loaded = CostProfile.load(path)
        costs = loaded.row_costs("ode:rk4:abc", 8)
        assert costs is not None
        # Front rows observed slower than back rows.
        assert costs[0] > costs[-1]
        np.testing.assert_allclose(costs, profile.row_costs(
            "ode:rk4:abc", 8))

    def test_unknown_key_and_missing_file(self, tmp_path):
        loaded = CostProfile.load(str(tmp_path / "nope.json"))
        assert loaded.entries == {}
        assert loaded.row_costs("ode:rk4:abc", 8) is None

    def test_resized_group_degrades_to_scalar(self):
        profile = CostProfile()
        profile.observe("k", 8, [(0, 4, 0.4), (4, 4, 0.1)])
        costs = profile.row_costs("k", 6)  # group shrank between runs
        assert costs is not None
        assert len(costs) == 6
        assert np.all(costs == costs[0])

    def test_corrupt_file_discarded_with_warning(self, tmp_path):
        path = tmp_path / "cost_profile.json"
        path.write_text("{ not json !!")
        with pytest.warns(RuntimeWarning, match="corrupt cost profile"):
            loaded = CostProfile.load(str(path))
        assert loaded.entries == {}

    def test_wrong_version_discarded(self, tmp_path):
        path = tmp_path / "cost_profile.json"
        path.write_text(json.dumps({"version": 999, "groups": {}}))
        with pytest.warns(RuntimeWarning):
            loaded = CostProfile.load(str(path))
        assert loaded.entries == {}

    def test_save_without_observations_is_noop(self, tmp_path):
        path = str(tmp_path / "cost_profile.json")
        CostProfile(path).save()
        assert not os.path.exists(path)

    def test_ewma_converges_on_repeated_observations(self):
        profile = CostProfile()
        for _ in range(8):
            profile.observe("k", 4, [(0, 4, 4.0)])  # 1 s/row
        costs = profile.row_costs("k", 4)
        np.testing.assert_allclose(costs, 1.0, rtol=0.05)


class TestScheduler:
    def test_default_scheduler_is_inactive_and_even(self):
        scheduler = Scheduler()
        assert not scheduler.active
        parts = scheduler.parts(10, 3, method="rk4")
        for part, want in zip(parts, even_parts(10, 3)):
            np.testing.assert_array_equal(part, want)

    def test_overshard_fans_out(self):
        scheduler = Scheduler(overshard=4)
        assert scheduler.active
        parts = scheduler.parts(64, 2, method="rk4")
        assert len(parts) == 8  # processes x overshard
        _assert_partition(parts, 64)

    def test_overshard_clamps_to_rows(self):
        scheduler = Scheduler(overshard=4)
        parts = scheduler.parts(5, 2, method="rk4")
        assert len(parts) == 5  # min(processes x overshard, n_rows)
        _assert_partition(parts, 5)

    def test_no_pool_or_single_row_bypass(self):
        scheduler = Scheduler(schedule="cost", overshard=4)
        assert scheduler.parts(100, 1, method="rk4") == []
        assert scheduler.parts(1, 4, method="rk4") == []

    def test_cost_schedule_uses_profile(self):
        profile = CostProfile()
        profile.observe("k", 16, [(0, 1, 1.0), (1, 15, 0.15)])
        scheduler = Scheduler(schedule="cost", profile=profile)
        parts = scheduler.parts(16, 4, method="rk4", key="k")
        _assert_partition(parts, 16)
        # Row 0 observed ~100x slower: it gets isolated.
        assert len(parts[0]) == 1

    def test_cost_schedule_without_profile_falls_back_to_even(self):
        scheduler = Scheduler(schedule="cost")
        parts = scheduler.parts(10, 3, method="rk4", key="unseen")
        for part, want in zip(parts, even_parts(10, 3)):
            np.testing.assert_array_equal(part, want)

    @pytest.mark.parametrize("method", ADAPTIVE_METHODS)
    def test_adaptive_methods_pinned_to_even(self, method):
        profile = CostProfile()
        profile.observe("k", 16, [(0, 1, 1.0), (1, 15, 0.15)])
        scheduler = Scheduler(schedule="cost", overshard=4,
                              profile=profile)
        parts = scheduler.parts(16, 2, method=method, key="k")
        even = even_parts(16, 2)  # NOT 2 x 4 shards, NOT cost cuts
        assert len(parts) == len(even)
        for part, want in zip(parts, even):
            np.testing.assert_array_equal(part, want)
        assert not scheduler.wants_timing(method)
        assert scheduler.wants_timing("rk4")

    def test_group_cost_ranks_by_profile_then_structure(self):
        profile = CostProfile()
        profile.observe("seen", 8, [(0, 8, 8.0)])
        scheduler = Scheduler(schedule="cost", profile=profile)
        assert scheduler.group_cost("seen", 8, 5, "rk4") == \
            pytest.approx(8.0)
        static = scheduler.group_cost("unseen", 8, 5, "rk4")
        assert static == pytest.approx(static_row_cost(5, "rk4") * 8)

    def test_observe_refines_profile(self):
        scheduler = Scheduler(schedule="cost")
        scheduler.observe("k", 8, [
            {"offset": 0, "rows": 4, "seconds": 0.4, "worker": "w0"},
            {"offset": 4, "rows": 4, "seconds": 0.1, "worker": "w1"},
        ], processes=2)
        costs = scheduler.profile.row_costs("k", 8)
        assert costs[0] > costs[-1]

    def test_validate_rejects_unknown_schedule_and_overshard(self):
        def plan(**kwargs):
            return ExecutionPlan(factory=TlineFactory(), seeds=[0],
                                 t_span=SPAN, **kwargs)

        with pytest.raises(SimulationError, match="schedule"):
            plan(schedule="fastest").validate()
        with pytest.raises(SimulationError, match="overshard"):
            plan(overshard=0).validate()
        plan(schedule="cost", overshard=4).validate()


class TestEndToEndBitIdentity:
    """``schedule="cost"`` (+ overshard) must be bit-identical to the
    default even split for every backend x method combination."""

    def _pair(self, factory, seeds, tmp_path, engine, **kwargs):
        even = run_ensemble(factory, seeds, SPAN, engine=engine,
                            processes=2, n_points=40, **kwargs)
        profile = str(tmp_path / "profile.json")
        cost = run_ensemble(factory, seeds, SPAN, engine=engine,
                            processes=2, n_points=40, schedule="cost",
                            overshard=4, cost_profile=profile,
                            **kwargs)
        return even, cost

    @pytest.mark.parametrize("engine", ["serial", "batch", "pool"])
    def test_cost_overshard_matches_even_rk4(self, engine, tmp_path):
        # The serial and in-process batch backends never shard, so the
        # knobs must be inert there; pool must repartition without
        # changing bits.
        even, cost = self._pair(TlineFactory(), range(6), tmp_path,
                                engine, method="rk4")
        assert len(even) == len(cost) == 6
        for a, b in zip(even, cost):
            np.testing.assert_array_equal(a.y, b.y)
        _assert_no_leaks()

    @pytest.mark.parametrize("engine", ["batch", "pool"])
    def test_cost_overshard_matches_even_rkf45(self, engine, tmp_path):
        # Adaptive method: scheduler pins to the canonical split, so
        # results are identical even though rkf45 is partition-
        # sensitive.
        even, cost = self._pair(TwoGroupFactory(), range(8), tmp_path,
                                engine)
        assert len(even.batches) == len(cost.batches) == 2
        for a, b in zip(even.batches, cost.batches):
            np.testing.assert_array_equal(a.y, b.y)
        _assert_no_leaks()

    @pytest.mark.parametrize("engine", ["batch", "pool"])
    def test_cost_overshard_matches_even_sde(self, engine, tmp_path):
        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        even, cost = self._pair(factory, range(4), tmp_path, engine,
                                trials=2)
        np.testing.assert_array_equal(even.batches[0].y,
                                      cost.batches[0].y)
        for chip in range(4):
            np.testing.assert_array_equal(even.reference(chip).y,
                                          cost.reference(chip).y)
        _assert_no_leaks()

    def test_warm_profile_rebalances_and_stays_identical(self,
                                                         tmp_path):
        factory = TlineFactory()
        profile = str(tmp_path / "profile.json")
        kwargs = dict(n_points=40, method="rk4", engine="pool",
                      processes=2, schedule="cost",
                      cost_profile=profile)
        report_cold = RunReport()
        cold = run_ensemble(factory, range(8), SPAN,
                            telemetry=report_cold, **kwargs)
        # Cold run: no profile yet -> even split, but timings recorded.
        assert report_cold.counters.get("sched.groups.even", 0) >= 1
        assert os.path.exists(profile)
        report_warm = RunReport()
        warm = run_ensemble(factory, range(8), SPAN,
                            telemetry=report_warm, **kwargs)
        # Warm run: the persisted profile drives a cost-balanced cut.
        assert report_warm.counters.get("sched.groups.cost", 0) >= 1
        assert report_warm.counters.get(
            "sched.actual_shard_seconds", 0) > 0
        np.testing.assert_array_equal(cold.batches[0].y,
                                      warm.batches[0].y)
        _assert_no_leaks()

    def test_corrupt_profile_falls_back_to_even_split(self, tmp_path):
        profile = tmp_path / "profile.json"
        profile.write_text("][ definitely not json")
        report = RunReport()
        with pytest.warns(RuntimeWarning, match="corrupt cost profile"):
            result = run_ensemble(
                TlineFactory(), range(6), SPAN, n_points=40,
                method="rk4", engine="pool", processes=2,
                schedule="cost", cost_profile=str(profile),
                telemetry=report)
        assert report.counters.get("sched.profile.corrupt", 0) == 1
        assert report.counters.get("sched.groups.even", 0) >= 1
        baseline = run_ensemble(TlineFactory(), range(6), SPAN,
                                n_points=40, method="rk4")
        np.testing.assert_array_equal(result.batches[0].y,
                                      baseline.batches[0].y)
        # The corrupt file was replaced by fresh observations.
        saved = json.loads(profile.read_text())
        assert saved["version"] == 1 and saved["groups"]
        _assert_no_leaks()

    def test_overshard_fans_out_through_the_pool(self, tmp_path):
        report = RunReport()
        run_ensemble(TlineFactory(), range(8), SPAN, n_points=40,
                     method="rk4", engine="pool", processes=2,
                     overshard=4, telemetry=report)
        # 8 rows, 2 processes x overshard 4 -> 8 single-row shards.
        assert report.counters.get("sched.shards") == 8
        assert report.counters.get("pool.shards") == 8
        _assert_no_leaks()

    def test_default_schedule_keeps_cost_machinery_off(self):
        # The default path still reports which split each group got
        # (structural counters), but none of the cost-model machinery
        # — timing, profile observation, steal accounting — engages.
        report = RunReport()
        run_ensemble(TlineFactory(), range(6), SPAN, n_points=40,
                     method="rk4", engine="pool", processes=2,
                     telemetry=report)
        assert report.counters.get("sched.groups.even") == 1
        assert "sched.groups.cost" not in report.counters
        assert "sched.actual_shard_seconds" not in report.counters
        assert "sched.steals" not in report.counters
        _assert_no_leaks()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="CPU affinity is Linux-only")
class TestWorkerPinning:
    def test_pool_workers_pinned_round_robin(self):
        shutdown_pools()
        try:
            pool = get_pool(2, pin_workers=True)
            assert pool.pin
            assert pool.pinned == 2
            cores = sorted(os.sched_getaffinity(0))
            for index, worker in enumerate(pool._workers):
                assert os.sched_getaffinity(worker.pid) == \
                    {cores[index % len(cores)]}
            # _POOLS stays keyed by width alone.
            assert sorted(_POOLS) == [2]
        finally:
            shutdown_pools()

    def test_idle_pool_respawns_on_pin_mismatch(self):
        shutdown_pools()
        try:
            pinned = get_pool(2, pin_workers=True)
            unpinned = get_pool(2)
            assert unpinned is not pinned
            assert unpinned.pin is False
            assert sorted(_POOLS) == [2]
            # Same pin preference reuses the live pool.
            assert get_pool(2) is unpinned
        finally:
            shutdown_pools()

    def test_pin_worker_processes_skips_dead_pids(self):
        # A PID that no longer exists must be skipped, not raised.
        assert pin_worker_processes([2 ** 22 + 12345]) == 0

    def test_run_ensemble_pin_workers_flag(self):
        shutdown_pools()
        try:
            result = run_ensemble(TlineFactory(), range(6), SPAN,
                                  n_points=40, method="rk4",
                                  engine="pool", processes=2,
                                  pin_workers=True)
            assert result.batches[0].y.shape[0] == 6
            assert _POOLS[2].pin
        finally:
            shutdown_pools()
        _assert_no_leaks()
