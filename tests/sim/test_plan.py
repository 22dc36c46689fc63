"""Tests for the unified execution-plan layer (:mod:`repro.sim.plan`):
plan validation, the routes a sweep's own options choose, the noisy
batch against per-row solves, and pooled-SDE bit-identity."""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.lang import parse_program
from repro.sim import (ExecutionPlan, NoiseSpec, execute_plan,
                       run_ensemble, simulate_sde, solve_batch)
from repro.sim.pool import shutdown_pools

OU_SOURCE = """
lang ou {
    ntyp(1,sum) X {attr tau=real[1e-3,10] mm(0,0.05),
                   attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}
"""


def _language():
    return parse_program(OU_SOURCE).languages["ou"]


def _ou_factory(nsig=0.3):
    lang = _language()

    def factory(seed):
        g = repro.GraphBuilder(lang, f"chip{seed}")
        g.node("x", "X").set_attr("x", "tau", 1.0)
        g.set_attr("x", "nsig", nsig)
        g.edge("x", "x", "r0", "R").set_init("x", 1.0)
        return g.finish()

    return factory


class _PicklableOu:
    """Module-level (picklable) noise-free OU factory, so pooled sweeps
    can ship it to the workers."""

    def __call__(self, seed):
        return _ou_factory(0.0)(seed)


class TestValidation:
    def test_engine_option_is_gone(self):
        # The route follows from method and processes; there is no
        # engine option, and simulate_ensemble is run_ensemble.
        with pytest.raises(TypeError, match="engine"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                         engine="pool")
        assert not hasattr(repro, "simulate_ensemble")

    def test_dense_option_is_gone(self):
        # rkf45 has one step loop, with dense output: there is no
        # option that selects another.
        with pytest.raises(TypeError, match="dense"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                         dense=False)

    def test_solve_batch_rejects_clipped_stepping(self):
        systems = [compile_graph(_ou_factory(0.0)(seed))
                   for seed in range(2)]
        with pytest.raises(SimulationError, match="clip-to-grid"):
            solve_batch(systems, (0.0, 1.0), n_points=20, dense=False)
        full = solve_batch(systems, (0.0, 1.0), n_points=20)
        explicit = solve_batch(systems, (0.0, 1.0), n_points=20,
                               dense=True)
        np.testing.assert_array_equal(full.y, explicit.y)

    def test_unknown_backend_in_plan(self):
        plan = ExecutionPlan(factory=_ou_factory(), seeds=[0],
                             t_span=(0.0, 1.0), array_backend="numpy:foo")
        with pytest.raises(SimulationError, match="unknown array"):
            execute_plan(plan)

    def test_trials_below_one(self):
        with pytest.raises(SimulationError, match="trials"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0), trials=0)
        with pytest.raises(SimulationError, match="trials"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0), trials=-1)

    def test_noise_seed_without_trials(self):
        with pytest.raises(SimulationError, match="noise_seed"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                         noise_seed=3)

    def test_trials_on_deterministic_system(self):
        # nsig=0 folds every diffusion term away: asking for noise
        # trials is a caller error, not a silent deterministic sweep.
        with pytest.raises(SimulationError, match="deterministic"):
            run_ensemble(_ou_factory(nsig=0.0), range(2), (0.0, 1.0),
                         trials=4)

    def test_unknown_sde_method(self):
        with pytest.raises(SimulationError, match="SDE method"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                         trials=2, sde_method="euler")

    def test_bad_freeze_tol(self):
        with pytest.raises(SimulationError, match="freeze_tol"):
            run_ensemble(_ou_factory(0.0), range(2), (0.0, 1.0),
                         freeze_tol=-1.0)

    @pytest.mark.parametrize("options, message", [
        (dict(max_step=0.0), "max_step must be > 0"),
        (dict(max_step=-1e-3), "max_step must be > 0"),
        (dict(freeze_tol=0.0), "freeze_tol must be > 0"),
        (dict(processes=0), "processes must be >= 1"),
        (dict(method="RK45", processes=0), "processes must be >= 1"),
        (dict(noise_seed=1), "noise_seed was given without trials"),
        (dict(method="bogus"), "unknown method 'bogus'"),
        # The grid is checked up front too, by the one grid check the
        # solvers use.
        (dict(t_span=(1.0, 0.0)), "empty time span"),
        (dict(n_points=1), "n_points must be >= 2"),
        (dict(t_eval=[0.0, 0.5, 0.5, 1.0]), "strictly increasing"),
        (dict(t_eval=[0.0, 0.5, 0.4]), "strictly increasing"),
        (dict(t_eval=[0.0, 0.5, 1.5]), "outside the time span"),
        (dict(t_eval=[-0.5, 0.5]), "outside the time span"),
        (dict(t_eval=[0.0, 0.5, 1.5], method="RK45"),
         "outside the time span"),
        (dict(t_eval=[0.0, 1.0, 0.5], trials=2), "strictly increasing"),
    ])
    def test_bad_options_rejected_before_any_factory_call(self, options,
                                                          message):
        calls = []

        def factory(seed):
            calls.append(seed)
            return _ou_factory(0.0)(seed)

        options = dict(options)
        span = options.pop("t_span", (0.0, 1.0))
        with pytest.raises(SimulationError, match=message):
            run_ensemble(factory, range(2), span, **options)
        assert calls == []

    def test_noise_is_derived_from_trials(self):
        plan = ExecutionPlan(factory=None, seeds=[0], t_span=(0.0, 1.0))
        assert plan.noise is None
        plan = ExecutionPlan(factory=None, seeds=[0], t_span=(0.0, 1.0),
                             trials=3, noise_seed=4, sde_method="em",
                             reference=False)
        assert plan.noise == NoiseSpec(trials=3, method="em",
                                       noise_seed=4, reference=False)

    @pytest.mark.parametrize("method", ["rk45", "RKF45", "euler"])
    def test_unknown_ode_method_lists_valid_choices(self, method):
        # rk45 used to alias rkf45; it and other unknown names must
        # fail up front instead of reaching scipy's solve_ivp.
        with pytest.raises(SimulationError,
                           match=f"unknown method '{method}'.*"
                                 "auto, rkf45, rk4, RK23, RK45"):
            run_ensemble(_ou_factory(0.0), range(2), (0.0, 1.0),
                         method=method)


class TestShimEquivalence:
    """The noisy batch against its per-row reference."""

    def test_serial_backend_sde_matches_batch(self):
        # Each (chip, trial) row solved alone, on its own Wiener token,
        # is the row the batched solve returns.
        factory = _ou_factory()
        batched = run_ensemble(factory, [0, 1], (0.0, 2.0), trials=2,
                               n_points=50)
        for chip in (0, 1):
            tokens = NoiseSpec(trials=2).tokens(chip)
            for trial, token in enumerate(tokens):
                row = simulate_sde(factory(chip), (0.0, 2.0),
                                   noise_seed=token, n_points=50)
                np.testing.assert_array_equal(
                    batched.trajectory(chip, trial).y, row.y)


class TestRouting:
    """The sweep's own inputs choose each group's route: a scipy
    method runs per instance, every other group is one batched solve,
    pooled if and only if ``processes > 1`` and it has at least
    ``DEFAULT_SHARD_MIN`` (64) rows."""

    @pytest.mark.parametrize("seeds, method, route", [
        (63, "rk4", (0, 0)),
        (64, "rk4", (2, 0)),
        (64, "RK45", (0, 64)),
    ])
    def test_route_follows_rows_and_method(self, seeds, method, route):
        try:
            result = run_ensemble(_PicklableOu(), range(seeds), (0.0, 1.0),
                                  n_points=20, method=method, processes=2,
                                  telemetry=True)
        finally:
            shutdown_pools()
        report = result.telemetry
        assert (report.counter("pool.shards"),
                report.counter("serial.solves")) == route
        assert result.batched_fraction == (0.0 if method == "RK45"
                                           else 1.0)


class TestShardedSde:
    def test_sharded_bit_identical_at_two_processes(self,
                                                    small_pool_groups):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        unsharded = run_ensemble(factory, range(4), span, trials=2,
                                 n_points=40)
        sharded = run_ensemble(factory, range(4), span, trials=2,
                               n_points=40, processes=2)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)
        for chip in range(4):
            np.testing.assert_array_equal(
                unsharded.reference(chip).y, sharded.reference(chip).y)

    def test_pool_engine_shards_small_groups(self, small_pool_groups):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        unsharded = run_ensemble(factory, range(2), span, trials=2,
                                 n_points=30)
        # With the 64-row threshold lowered, the pool shards whatever
        # it can (here 4 rows over 2 workers).
        sharded = run_ensemble(factory, range(2), span, trials=2,
                               n_points=30, processes=2)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)

    def test_unpicklable_factory_falls_back_in_process(
            self, small_pool_groups):
        factory = _ou_factory()  # closure: not picklable
        sharded = run_ensemble(factory, range(3), (0.0, 1.0), trials=2,
                               n_points=30, processes=2)
        unsharded = run_ensemble(factory, range(3), (0.0, 1.0),
                                 trials=2, n_points=30)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)

    def test_sharded_sde_result_is_cachable(self, tmp_path,
                                            small_pool_groups):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory
        from repro.sim import TrajectoryCache

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        cache = TrajectoryCache(directory=tmp_path)
        sharded = run_ensemble(factory, range(4), span, trials=2,
                               n_points=30, processes=2,
                               cache=cache, reference=False)
        assert cache.stats.stores >= 1
        replay = run_ensemble(factory, range(4), span, trials=2,
                              n_points=30, cache=cache,
                              reference=False)
        assert cache.stats.hits >= 1
        np.testing.assert_array_equal(sharded.batches[0].y,
                                      replay.batches[0].y)


class TestNoiseSpecTokens:
    def test_tokens_match_legacy_scheme(self):
        spec = NoiseSpec(trials=3, noise_seed=4)
        assert spec.tokens("chip7") == ["chip7:4", "chip7:5", "chip7:6"]


class TestCliNoiseAlias:
    """Transient-noise sweeps run through ``repro ensemble --trials``;
    the old ``repro noise`` alias is gone."""

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

    def test_noise_subcommand_is_gone(self, noisy_file, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["noise", noisy_file, "--t-end", "2.0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "invalid choice: 'noise'" in err
        assert "ensemble" in err

    def test_rk45_alias_is_gone(self, noisy_file, capsys):
        from repro.cli import main

        assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                     "--t-end", "2.0", "--seeds", "2",
                     "--method", "rk45"]) == 2
        err = capsys.readouterr().err
        assert "error: unknown method 'rk45'" in err
        assert "auto, rkf45, rk4" in err

    def test_unified_noise_seed_shifts_realizations(self, noisy_file,
                                                    tmp_path, capsys):
        from repro.cli import main

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path, base in ((a, "0"), (b, "7")):
            assert main(["ensemble", noisy_file, "--arg", "nsig=0.3",
                         "--t-end", "2.0", "--seeds", "1",
                         "--trials", "2", "--points", "30",
                         "--node", "x", "--noise-seed", base,
                         "--csv", str(path)]) == 0
            capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()
