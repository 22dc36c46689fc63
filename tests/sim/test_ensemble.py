"""Tests for the ensemble driver: grouping, fallback, API compat."""

import os

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.core.simulator import Trajectory, simulate
from repro.sim import run_ensemble

_LANG = repro.Language("mm-ens")
_LANG.node_type("X", order=1,
                attrs=[("tau", repro.real(0.2, 5.0, mm=(0.0, 0.1)))])
_LANG.edge_type("W", attrs=[("w", repro.real(-5.0, 5.0))])
_LANG.prod("prod(e:W,s:X->s:X) s <= -var(s)/s.tau")
_LANG.prod("prod(e:W,s:X->t:X) t <= e.w*var(s)")


def _pair_factory(seed, coupled=True):
    builder = repro.GraphBuilder(_LANG, "pair", seed=seed)
    builder.node("a", "X").set_attr("a", "tau", 1.0)
    builder.node("b", "X").set_attr("b", "tau", 0.5)
    builder.edge("a", "a", "la", "W").set_attr("la", "w", 0.0)
    builder.edge("b", "b", "lb", "W").set_attr("lb", "w", 0.0)
    if coupled:
        builder.edge("a", "b", "c", "W").set_attr("c", "w", 1.5)
    builder.set_init("a", 1.0)
    builder.set_init("b", 0.0)
    return builder.finish()


_NOISY_LANG = repro.Language("mm-ens-noisy")
_NOISY_LANG.node_type("X", order=1,
                      attrs=[("tau", repro.real(0.2, 5.0,
                                                mm=(0.0, 0.1)))])
_NOISY_LANG.edge_type("W")
_NOISY_LANG.prod("prod(e:W,s:X->s:X) s <= -var(s)/s.tau + noise(0.3)")


def _noisy_pair_factory(seed):
    builder = repro.GraphBuilder(_NOISY_LANG, "noisy", seed=seed)
    builder.node("a", "X").set_attr("a", "tau", 1.0)
    builder.edge("a", "a", "la", "W")
    builder.set_init("a", 1.0)
    return builder.finish()


# Module-level so it pickles into a multiprocessing pool.
def _picklable_factory(seed):
    return _pair_factory(seed)


def _boom_in_worker_factory(seed):
    """Picklable factory that works in the parent (whose pid is in
    ARK_ENSEMBLE_TEST_PID) but raises TypeError inside pool workers."""
    if os.getpid() != int(os.environ.get("ARK_ENSEMBLE_TEST_PID", "-1")):
        raise TypeError("worker-side failure must propagate")
    return _pair_factory(seed)


class TestRunEnsemble:
    def test_uniform_structure_lands_in_one_batch(self):
        result = run_ensemble(_pair_factory, range(6), (0.0, 2.0),
                              n_points=60)
        assert len(result) == 6
        assert len(result.batches) == 1
        assert result.groups == [[0, 1, 2, 3, 4, 5]]
        assert result.serial_indices == []
        assert result.batched_fraction == 1.0
        finals = {traj.final("a") for traj in result}
        assert len(finals) == 6  # every seed decays differently

    def test_mixed_structures_split_into_batches(self):
        result = run_ensemble(
            lambda seed: _pair_factory(seed, coupled=seed % 2 == 0),
            range(8), (0.0, 1.0), n_points=40)
        assert len(result.batches) == 2
        assert sorted(i for g in result.groups for i in g) == \
            list(range(8))
        assert result.serial_indices == []

    def test_singleton_group_falls_back_to_serial(self):
        result = run_ensemble(
            lambda seed: _pair_factory(seed, coupled=seed == 0),
            range(5), (0.0, 1.0), n_points=40)
        assert result.serial_indices == [0]
        assert len(result.batches) == 1
        assert result.batched_fraction == pytest.approx(0.8)

    def test_explicit_rk4_singleton_is_its_batched_row(self):
        # An explicit batch method holds for a one-row group too: the
        # singleton is byte for byte its row of a 2-seed sweep.
        from repro.paradigms.tln import mismatched_tline

        def factory(seed):
            return mismatched_tline("gm", seed=seed)

        span = (0.0, 8e-8)
        alone = run_ensemble(factory, [5], span, n_points=60,
                             method="rk4")
        pair = run_ensemble(factory, [4, 5], span, n_points=60,
                            method="rk4")
        assert alone.batched_fraction == 1.0
        assert alone.serial_indices == []
        assert alone[0].y.tobytes() == pair[1].y.tobytes()
        assert alone[0].t.tobytes() == pair[1].t.tobytes()
        # Under auto a structurally unique chip still runs scipy RK45.
        assert run_ensemble(factory, [5], span, n_points=60)\
            .serial_indices == [0]

    def test_batch_failure_demotes_group_to_serial(self, monkeypatch):
        # The auto method must not let a batched-solve failure kill the
        # whole ensemble; the group falls back to the serial scipy path.
        from repro.errors import SimulationError
        from repro.sim import ensemble as ens
        from repro.sim import plan as plan_module

        def explode(*args, **kwargs):
            raise SimulationError("dopri5 step size underflow (forced)")

        monkeypatch.setattr(plan_module, "solve_batch", explode)
        result = ens.run_ensemble(_pair_factory, range(3), (0.0, 1.0),
                                  n_points=40)
        assert result.batches == []
        assert result.serial_indices == [0, 1, 2]
        assert all(t is not None for t in result.trajectories)

    def test_demoted_group_is_counted(self, monkeypatch, tmp_path,
                                      capsys):
        # A stiff group whose batched dopri5 underflows is demoted to
        # scipy: the demotion is a counter in the run's report, and
        # `repro report` shows it. The demoted group is solved exactly
        # as an explicit RK45 sweep solves it, and it is not stored.
        from repro.cli import main
        from repro.errors import SimulationError
        from repro.sim import TrajectoryCache
        from repro.sim import plan as plan_module

        def factory(seed):
            return _pair_factory(seed, coupled=seed != 4)

        explicit = run_ensemble(factory, range(5), (0.0, 1.0),
                                n_points=40, method="RK45")

        def underflow(*args, **kwargs):
            raise SimulationError("dopri5 step size underflow (forced)")

        monkeypatch.setattr(plan_module, "solve_batch", underflow)
        cache = TrajectoryCache()
        result = run_ensemble(factory, range(5), (0.0, 1.0),
                              n_points=40, telemetry=True, cache=cache)
        assert result.serial_indices == [0, 1, 2, 3, 4]
        assert result.batches == []
        assert result.telemetry.counter("plan.demoted_rows") == 4
        assert result.telemetry.counter("plan.rerun_rows") == 0
        assert result.telemetry.counter("serial.solves") == 5
        # Only the auto singleton (scipy RK45 by choice) is stored.
        assert cache.stats.stores == 1
        for demoted, reference in zip(result, explicit):
            assert demoted.y.tobytes() == reference.y.tobytes()
        path = tmp_path / "report.json"
        result.telemetry.save(path)
        assert main(["report", str(path)]) == 0
        shown = [line.split() for line in
                 capsys.readouterr().out.splitlines()]
        assert ["plan.demoted_rows", "4"] in shown

    def test_batch_failure_with_explicit_method_raises(self,
                                                       monkeypatch):
        from repro.errors import SimulationError
        from repro.sim import ensemble as ens
        from repro.sim import plan as plan_module

        def explode(*args, **kwargs):
            raise SimulationError("forced failure")

        monkeypatch.setattr(plan_module, "solve_batch", explode)
        with pytest.raises(SimulationError, match="forced"):
            ens.run_ensemble(_pair_factory, range(3), (0.0, 1.0),
                             n_points=40, method="dopri5")

    def test_scipy_method_forces_serial(self):
        result = run_ensemble(_pair_factory, range(3), (0.0, 1.0),
                              n_points=40, method="LSODA")
        assert result.batches == []
        assert result.serial_indices == [0, 1, 2]

    @pytest.mark.parametrize("processes", [None, 2])
    def test_scipy_rows_report_their_nfev(self, processes):
        # A scipy group counts the solve_ivp work of its rows, on the
        # pool as in-process: solver.nfev is the sum of the rows' own
        # simulate() counts.
        result = run_ensemble(_picklable_factory, range(64), (0.0, 1.0),
                              n_points=40, method="RK45",
                              processes=processes, telemetry=True)
        rows = [simulate(compile_graph(_pair_factory(seed)), (0.0, 1.0),
                         n_points=40, method="RK45").nfev
                for seed in range(64)]
        assert all(rows)
        assert result.telemetry.counter("solver.nfev") == sum(rows)

    def test_serial_engine_matches_batch(self):
        batch = run_ensemble(_pair_factory, range(4), (0.0, 2.0),
                             n_points=80)
        serial = run_ensemble(_pair_factory, range(4), (0.0, 2.0),
                              n_points=80, method="RK45")
        for left, right in zip(batch, serial):
            np.testing.assert_allclose(left["b"], right["b"],
                                       rtol=1e-4, atol=1e-7)

    def test_per_seed_registered_functions_do_not_share_a_batch(self):
        # Regression: per-seed closures registered under one function
        # name must split the ensemble (signature includes function
        # identity), not silently evaluate every instance with seed
        # 0's closure.
        def factory(seed):
            lang = repro.Language("perseed")
            lang.node_type("X", order=1)
            lang.edge_type("S")
            lang.register_function("rate",
                                   lambda x, k=float(seed + 1): k * x)
            lang.prod("prod(e:S,s:X->s:X) s <= -rate(var(s))")
            builder = repro.GraphBuilder(lang, "perseed")
            builder.node("x", "X")
            builder.edge("x", "x", "e", "S")
            builder.set_init("x", 1.0)
            return builder.finish()

        result = run_ensemble(factory, range(3), (0.0, 1.0),
                              n_points=40)
        finals = [traj.final("x") for traj in result]
        expected = [np.exp(-(seed + 1.0)) for seed in range(3)]
        np.testing.assert_allclose(finals, expected, rtol=1e-4)

    def test_t_eval_starting_mid_span_integrates_from_t0(self):
        # Regression: a t_eval window that starts after t_span[0] must
        # still integrate from t0 (scipy semantics), not pin y0 at
        # t_eval[0].
        grid = np.linspace(0.5, 1.0, 20)
        result = run_ensemble(_pair_factory, range(3), (0.0, 1.0),
                              t_eval=grid)
        serial = run_ensemble(_pair_factory, range(3), (0.0, 1.0),
                              t_eval=grid, method="RK45")
        assert len(result.batches) == 1
        np.testing.assert_allclose(result.batches[0].t, grid)
        for left, right in zip(result, serial):
            np.testing.assert_allclose(left["a"], right["a"],
                                       rtol=1e-4, atol=1e-7)

    def test_accepts_precompiled_systems(self):
        result = run_ensemble(
            lambda seed: compile_graph(_pair_factory(seed)),
            range(3), (0.0, 1.0), n_points=30)
        assert len(result.batches) == 1

    def test_rejects_bad_factory_output(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="factory"):
            run_ensemble(lambda seed: 42, range(2), (0.0, 1.0))

    def test_multiprocessing_pool_path(self, small_pool_groups):
        result = run_ensemble(_picklable_factory, range(3), (0.0, 1.0),
                              n_points=30, method="RK45", processes=2)
        reference = run_ensemble(_picklable_factory, range(3),
                                 (0.0, 1.0), n_points=30,
                                 method="RK45")
        for left, right in zip(result, reference):
            np.testing.assert_allclose(left["a"], right["a"],
                                       rtol=1e-9)

    def test_unpicklable_factory_degrades_gracefully(self, small_pool_groups):
        result = run_ensemble(lambda seed: _pair_factory(seed),
                              range(3), (0.0, 1.0), n_points=30,
                              method="RK45", processes=2)
        assert len(result) == 3
        assert all(isinstance(t, Trajectory) for t in result)

    def test_worker_type_error_propagates(self, small_pool_groups):
        # Regression: the pool wrapper used to catch TypeError (as a
        # proxy for "unpicklable factory") around pool.map, so a
        # *genuine* worker TypeError was swallowed and every seed was
        # silently rerun in-process — masking the failure entirely.
        # The lowered pool threshold sends the 3-row scipy group to the
        # pool.
        os.environ["ARK_ENSEMBLE_TEST_PID"] = str(os.getpid())
        try:
            with pytest.raises(TypeError, match="worker-side"):
                run_ensemble(_boom_in_worker_factory, range(3),
                             (0.0, 1.0), n_points=30, method="RK45",
                             processes=2)
        finally:
            del os.environ["ARK_ENSEMBLE_TEST_PID"]


class TestBatchedSharding:
    """Pool mechanics on small groups (``small_pool_groups`` lowers the
    64-row threshold)."""

    def test_sharded_rk4_is_bit_identical_to_single_process(
            self, small_pool_groups):
        sharded = run_ensemble(_picklable_factory, range(8),
                               (0.0, 1.0), n_points=40, method="rk4",
                               processes=2)
        single = run_ensemble(_picklable_factory, range(8), (0.0, 1.0),
                              n_points=40, method="rk4")
        assert len(sharded.batches) == len(single.batches) == 1
        np.testing.assert_array_equal(sharded.batches[0].y,
                                      single.batches[0].y)
        np.testing.assert_array_equal(sharded.batches[0].t,
                                      single.batches[0].t)
        assert sharded.groups == single.groups
        assert sharded.serial_indices == []

    def test_sharded_rkf45_matches_at_tolerance(self, small_pool_groups):
        # dopri5's shared step control sees each shard separately, so
        # sharded results agree at tolerance level (not bitwise).
        sharded = run_ensemble(_picklable_factory, range(8),
                               (0.0, 1.0), n_points=40, processes=2)
        single = run_ensemble(_picklable_factory, range(8), (0.0, 1.0),
                              n_points=40)
        np.testing.assert_allclose(sharded.batches[0].y,
                                   single.batches[0].y,
                                   rtol=1e-5, atol=1e-8)

    def test_small_groups_are_not_sharded(self):
        result = run_ensemble(_picklable_factory, range(4), (0.0, 1.0),
                              n_points=30, processes=2)
        assert len(result.batches) == 1  # one in-process batch

    def test_unpicklable_factory_still_batches_in_process(
            self, small_pool_groups):
        result = run_ensemble(lambda seed: _pair_factory(seed),
                              range(8), (0.0, 1.0), n_points=30,
                              processes=2)
        assert len(result.batches) == 1
        assert result.serial_indices == []

    def test_sharded_rkf45_results_stay_out_of_the_cache(
            self, small_pool_groups):
        # Shard-split dopri5 runs per-shard step control, so its result
        # is not bit-reproducible by an unsharded rerun — storing it
        # would poison the cache's bit-for-bit replay contract.
        from repro.sim import TrajectoryCache
        cache = TrajectoryCache()
        run_ensemble(_picklable_factory, range(8), (0.0, 1.0),
                     n_points=40, processes=2,
                     cache=cache)
        assert cache.stats.stores == 0
        unsharded = run_ensemble(_picklable_factory, range(8),
                                 (0.0, 1.0), n_points=40, cache=cache)
        rerun = run_ensemble(_picklable_factory, range(8), (0.0, 1.0),
                             n_points=40, cache=cache)
        assert cache.stats.stores == 1
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      rerun.batches[0].y)

    def test_shards_follow_the_whole_group_fuse_decision(
            self, small_pool_groups):
        # The fuse decision and the fused sparsity pattern depend on
        # structure only, never on batch size, so every shard compiles
        # the whole group's kernel and rk4 shards stay bit-identical
        # to the unsharded batch (which keeps them storable).
        sharded = run_ensemble(_picklable_factory, range(8),
                               (0.0, 1.0), n_points=40, method="rk4",
                               processes=2)
        single = run_ensemble(_picklable_factory, range(8), (0.0, 1.0),
                              n_points=40, method="rk4")
        np.testing.assert_array_equal(sharded.batches[0].y,
                                      single.batches[0].y)

    def test_sharded_rk4_results_are_cached(self, small_pool_groups):
        from repro.sim import TrajectoryCache
        cache = TrajectoryCache()
        sharded = run_ensemble(_picklable_factory, range(8),
                               (0.0, 1.0), n_points=40, method="rk4",
                               processes=2, cache=cache)
        assert cache.stats.stores == 1
        rerun = run_ensemble(_picklable_factory, range(8), (0.0, 1.0),
                             n_points=40, method="rk4", cache=cache)
        assert cache.stats.hits == 1
        np.testing.assert_array_equal(sharded.batches[0].y,
                                      rerun.batches[0].y)


class TestSimulateEnsembleCompat:
    """The result serves the list-of-trajectories use the removed
    ``simulate_ensemble`` wrapper gave: it has a length, iterates and
    indexes its rows in seed order."""

    def test_returns_ordered_trajectory_list(self):
        trajectories = run_ensemble(_pair_factory, range(4), (0.0, 1.0),
                                    n_points=50)
        assert len(trajectories) == 4
        assert all(isinstance(t, Trajectory) for t in trajectories)
        for seed, trajectory in enumerate(trajectories):
            reference = simulate(_pair_factory(seed), (0.0, 1.0),
                                 n_points=50)
            np.testing.assert_allclose(trajectory["b"], reference["b"],
                                       rtol=1e-4, atol=1e-7)

    def test_serial_engine_keeps_legacy_path(self):
        trajectories = run_ensemble(_pair_factory, range(3), (0.0, 1.0),
                                    n_points=50, method="RK45")
        assert len(trajectories) == 3
        assert trajectories.serial_indices == [0, 1, 2]

    def test_noisy_sweep_returns_chip_major_trial_rows(self):
        factory = _noisy_pair_factory
        result = run_ensemble(factory, range(3), (0.0, 1.0),
                              n_points=50, trials=2)
        trajectories = list(result)
        assert len(trajectories) == 6
        for chip in range(3):
            for trial in range(2):
                np.testing.assert_array_equal(
                    trajectories[chip * 2 + trial].y,
                    result.trajectory(chip, trial).y)
        assert not np.array_equal(trajectories[0].y, trajectories[1].y)
