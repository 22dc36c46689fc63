"""Tests for the streaming executor: chunks arrive before the sweep
completes (test-enforced), the union of a drained stream reassembles
bit-identically to the barriered run (in any completion order), and the
CLI ``--stream`` mode emits identical statistics."""

import random

import numpy as np
import pytest

import repro
from repro.paradigms.tln import TLineSpec, mismatched_tline
from repro.paradigms.tln.noisy import NoisyTlineFactory
from repro.sim import (EnsembleChunk, ExecutionPlan, assemble_chunks,
                       run_ensemble, stream_plan)
from repro.sim import plan as plan_module
from repro.sim.batch_solver import solve_batch
from repro.sim.sde_solver import solve_sde

SPAN = (0.0, 4e-8)


def _two_group_factory(seed):
    spec = TLineSpec(n_segments=3 if seed % 2 else 4)
    return mismatched_tline("gm", seed=seed, spec=spec)


class PicklableTwoGroupFactory:
    def __call__(self, seed):
        return _two_group_factory(seed)


class TestFirstChunkBeforeCompletion:
    """The acceptance criterion: stream=True provably yields its first
    group before the sweep has finished integrating."""

    def test_first_chunk_arrives_before_other_groups_solve(
            self, monkeypatch):
        calls = []

        def counting_solve_batch(rhs, t_span, **options):
            calls.append(len(rhs.systems))
            return solve_batch(rhs, t_span, **options)

        monkeypatch.setattr(plan_module, "solve_batch",
                            counting_solve_batch)
        plan = ExecutionPlan(factory=_two_group_factory,
                             seeds=list(range(6)), t_span=SPAN,
                             n_points=30)
        stream = stream_plan(plan)
        assert calls == []  # nothing integrates until consumed
        first = next(stream)
        assert isinstance(first, EnsembleChunk)
        # Exactly one of the two structural groups has been integrated
        # when the first chunk is delivered.
        assert len(calls) == 1
        rest = list(stream)
        assert len(calls) == 2
        assert len(rest) == 1

    def test_sde_stream_is_lazy_too(self, monkeypatch):
        solved = []

        def counting_solve_sde(rhs, t_span, **options):
            solved.append(len(rhs.systems))
            return solve_sde(rhs, t_span, **options)

        monkeypatch.setattr(plan_module, "solve_sde", counting_solve_sde)
        factory = NoisyTlineFactory(TLineSpec(n_segments=4), noise=1e-9)
        stream = run_ensemble(factory, range(3), SPAN, trials=2,
                              n_points=30, stream=True, reference=False)
        assert solved == []
        first = next(stream)
        assert isinstance(first, EnsembleChunk)
        assert solved == [6]  # the one group: 3 chips x 2 trials


class TestUnionEqualsBarrier:
    def test_ode_stream_assembles_bit_identically(self):
        seeds = list(range(6))
        barrier = run_ensemble(_two_group_factory, seeds, SPAN,
                               n_points=30)
        chunks = list(run_ensemble(_two_group_factory, seeds, SPAN,
                                   n_points=30, stream=True))
        assert len(chunks) == 2
        result = assemble_chunks(chunks, seeds)
        assert result.groups == barrier.groups
        assert result.serial_indices == barrier.serial_indices
        for a, b in zip(barrier.batches, result.batches):
            np.testing.assert_array_equal(a.y, b.y)
        for a, b in zip(barrier.trajectories, result.trajectories):
            np.testing.assert_array_equal(a.y, b.y)

    def test_assembly_is_order_independent(self):
        seeds = list(range(6))
        barrier = run_ensemble(_two_group_factory, seeds, SPAN,
                               n_points=30)
        chunks = list(run_ensemble(_two_group_factory, seeds, SPAN,
                                   n_points=30, stream=True))
        random.Random(7).shuffle(chunks)
        result = assemble_chunks(chunks, seeds)
        assert result.groups == barrier.groups
        for a, b in zip(barrier.batches, result.batches):
            np.testing.assert_array_equal(a.y, b.y)

    def test_mixed_serial_and_batched_chunks(self):
        # Odd one out: a unique structure lands in the serial chunk.
        def factory(seed):
            spec = TLineSpec(n_segments=5 if seed == 2 else 4)
            return mismatched_tline("gm", seed=seed, spec=spec)

        seeds = list(range(5))
        barrier = run_ensemble(factory, seeds, SPAN, n_points=30)
        assert barrier.serial_indices == [2]
        chunks = list(run_ensemble(factory, seeds, SPAN,
                                   n_points=30, stream=True))
        serial_chunks = [c for c in chunks if not c.batches]
        assert len(serial_chunks) == 1
        assert serial_chunks[0].indices == [2]
        result = assemble_chunks(chunks, seeds)
        assert result.serial_indices == [2]
        for a, b in zip(barrier.trajectories, result.trajectories):
            np.testing.assert_array_equal(a.y, b.y)

    def test_noisy_stream_assembles_bit_identically(self):
        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        seeds = list(range(4))
        barrier = run_ensemble(factory, seeds, SPAN, trials=2,
                               n_points=30)
        chunks = list(run_ensemble(factory, seeds, SPAN,
                                   trials=2, n_points=30,
                                   stream=True))
        result = assemble_chunks(chunks, seeds)
        assert result.trials == barrier.trials
        assert result.groups == barrier.groups
        assert result._rows == barrier._rows
        for a, b in zip(barrier.batches, result.batches):
            np.testing.assert_array_equal(a.y, b.y)
        for chip in seeds:
            np.testing.assert_array_equal(barrier.reference(chip).y,
                                          result.reference(chip).y)
            for trial in range(2):
                np.testing.assert_array_equal(
                    barrier.trajectory(chip, trial).y,
                    result.trajectory(chip, trial).y)

    def test_noisy_chunk_accessors_are_chunk_local(self):
        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        barrier = run_ensemble(factory, range(3), SPAN, trials=2,
                               n_points=30)
        (chunk,) = run_ensemble(factory, range(3), SPAN,
                                trials=2, n_points=30,
                                stream=True)
        assert chunk.indices == [0, 1, 2]
        assert chunk.seeds == [0, 1, 2]
        np.testing.assert_array_equal(chunk.trajectory(1, 1).y,
                                      barrier.trajectory(1, 1).y)
        np.testing.assert_array_equal(chunk.reference(2).y,
                                      barrier.reference(2).y)


@pytest.mark.usefixtures("small_pool_groups")
class TestPoolStreaming:
    """Pooled chunks arrive in completion order while other groups are
    still in flight."""

    def test_pool_stream_union_and_hygiene(self):
        from repro.sim import shm

        factory = PicklableTwoGroupFactory()
        seeds = list(range(8))
        barrier = run_ensemble(factory, seeds, SPAN, n_points=30,
                               processes=2)
        chunks = list(run_ensemble(factory, seeds, SPAN, n_points=30,
                                   processes=2, stream=True))
        assert sorted(chunk.order for chunk in chunks) == [0, 1]
        result = assemble_chunks(chunks, seeds)
        for a, b in zip(barrier.batches, result.batches):
            np.testing.assert_array_equal(a.y, b.y)
        assert shm.active_blocks() == []

    def test_abandoned_stream_releases_blocks(self):
        from repro.sim import shm

        factory = PicklableTwoGroupFactory()
        stream = run_ensemble(factory, list(range(8)), SPAN,
                              n_points=30, processes=2, stream=True)
        next(stream)
        stream.close()  # consumer walks away mid-sweep
        assert shm.active_blocks() == []


class TestCliStream:
    PROGRAM = """
lang leaky-noise {
    ntyp(1,sum) X {attr tau=real[0.1,10] mm(0,0.1),
                   attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}

func cell (nsig:real[0,inf]) uses leaky-noise {
    node x:X;
    edge <x,x> r0:R;
    set-attr x.tau = 1.0;
    set-attr x.nsig = nsig;
    set-init x(0) = 1.0;
}
"""

    @pytest.fixture()
    def noisy_file(self, tmp_path):
        path = tmp_path / "noisy.ark"
        path.write_text(self.PROGRAM)
        return str(path)

    def test_stream_csv_is_bit_identical(self, noisy_file, tmp_path,
                                         capsys):
        from repro.cli import main

        streamed = tmp_path / "streamed.csv"
        barriered = tmp_path / "barriered.csv"
        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--seeds", "2", "--trials", "3",
                     "--points", "40", "--node", "x", "--stream",
                     "--csv", str(streamed)]) == 0
        out = capsys.readouterr().out
        assert "[stream] group 0:" in out
        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--seeds", "2", "--trials", "3",
                     "--points", "40", "--node", "x",
                     "--csv", str(barriered)]) == 0
        assert "[stream]" not in capsys.readouterr().out
        assert streamed.read_bytes() == barriered.read_bytes()

    def test_stream_with_pool_engine(self, noisy_file, tmp_path,
                                     capsys, small_pool_groups):
        from repro.cli import main

        streamed = tmp_path / "pool.csv"
        plain = tmp_path / "plain.csv"
        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--seeds", "2", "--trials", "3",
                     "--points", "40", "--node", "x", "--stream",
                     "--processes", "2",
                     "--csv", str(streamed)]) == 0
        capsys.readouterr()
        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--seeds", "2", "--trials", "3",
                     "--points", "40", "--node", "x",
                     "--csv", str(plain)]) == 0
        capsys.readouterr()
        assert streamed.read_bytes() == plain.read_bytes()
        from repro.sim import shm

        assert shm.active_blocks() == []


class TestStreamValidation:
    def test_validation_raises_at_call_time(self):
        with pytest.raises(repro.SimulationError, match="unknown method"):
            run_ensemble(_two_group_factory, range(2), SPAN,
                         method="bogus", stream=True)

    def test_trials_guard_still_applies(self):
        with pytest.raises(repro.SimulationError, match="trials"):
            list(run_ensemble(_two_group_factory, range(2), SPAN,
                              trials=0, stream=True))
