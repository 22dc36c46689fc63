"""Tests for the unified execution-plan layer (:mod:`repro.sim.plan`):
shim equivalence (the legacy drivers must be bit-identical delegates),
plan validation, and pooled-SDE bit-identity."""

import numpy as np
import pytest

import repro
from repro.errors import SimulationError
from repro.lang import parse_program
from repro.sim import (ENGINES, ExecutionPlan, NoiseSpec, execute_plan,
                       run_ensemble)

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


class TestValidation:
    def test_unknown_engine_raises_value_error(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                         engine="bogus")

    def test_unknown_engine_in_simulate_ensemble(self):
        from repro.core.simulator import simulate_ensemble

        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_ensemble(_ou_factory(0.0), range(2), (0.0, 1.0),
                              engine="parallel")

    def test_unknown_backend_in_plan(self):
        plan = ExecutionPlan(factory=_ou_factory(), seeds=[0],
                             t_span=(0.0, 1.0), engine="nope")
        with pytest.raises(SimulationError, match="unknown engine"):
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

    def test_removed_engine_lists_valid_choices(self):
        assert ENGINES == ("batch", "serial", "pool")
        for removed in ("shard", "auto"):
            with pytest.raises(SimulationError,
                               match=f"unknown engine '{removed}'; "
                                     "expected one of batch, serial, "
                                     "pool$"):
                run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                             engine=removed)

    @pytest.mark.parametrize("options, message", [
        (dict(max_step=0.0), "max_step must be > 0"),
        (dict(max_step=-1e-3), "max_step must be > 0"),
        (dict(freeze_tol=0.0), "freeze_tol must be > 0"),
        (dict(processes=0), "processes must be >= 1"),
        (dict(engine="pool", processes=0), "processes must be >= 1"),
        (dict(noise_seed=1), "noise_seed was given without trials"),
        (dict(engine="auto"), "unknown engine 'auto'"),
    ])
    def test_bad_options_rejected_before_any_factory_call(self, options,
                                                          message):
        calls = []

        def factory(seed):
            calls.append(seed)
            return _ou_factory(0.0)(seed)

        with pytest.raises(SimulationError, match=message):
            run_ensemble(factory, range(2), (0.0, 1.0), **options)
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
    """The legacy entrypoints are delegating shims: outputs must be
    bit-identical to the unified driver."""

    def test_simulate_ensemble_is_bit_identical(self):
        from repro.core.simulator import simulate_ensemble

        factory = _ou_factory(0.0)
        legacy = simulate_ensemble(factory, range(4), (0.0, 1.0),
                                   n_points=50)
        unified = run_ensemble(factory, range(4), (0.0, 1.0),
                               n_points=50)
        for a, b in zip(legacy, unified.trajectories):
            np.testing.assert_array_equal(a.y, b.y)

    def test_serial_backend_sde_matches_batch(self):
        factory = _ou_factory()
        batched = run_ensemble(factory, [0, 1], (0.0, 2.0), trials=2,
                               n_points=50)
        serial = run_ensemble(factory, [0, 1], (0.0, 2.0), trials=2,
                              n_points=50, engine="serial")
        np.testing.assert_array_equal(batched.batches[0].y,
                                      serial.batches[0].y)


class TestShardedSde:
    def test_sharded_bit_identical_at_two_processes(self):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        unsharded = run_ensemble(factory, range(4), span, trials=2,
                                 n_points=40)
        sharded = run_ensemble(factory, range(4), span, trials=2,
                               n_points=40, engine="pool", processes=2)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)
        for chip in range(4):
            np.testing.assert_array_equal(
                unsharded.reference(chip).y, sharded.reference(chip).y)

    def test_pool_engine_shards_small_groups(self):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        unsharded = run_ensemble(factory, range(2), span, trials=2,
                                 n_points=30)
        # engine="pool" skips the batch engine's 64-row pool threshold
        # and shards whatever it can (here 4 rows over 2 workers).
        sharded = run_ensemble(factory, range(2), span, trials=2,
                               n_points=30, engine="pool", processes=2)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)

    def test_unpicklable_factory_falls_back_in_process(self):
        factory = _ou_factory()  # closure: not picklable
        sharded = run_ensemble(factory, range(3), (0.0, 1.0), trials=2,
                               n_points=30, engine="pool", processes=2)
        unsharded = run_ensemble(factory, range(3), (0.0, 1.0),
                                 trials=2, n_points=30)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)

    def test_sharded_sde_result_is_cachable(self, tmp_path):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory
        from repro.sim import TrajectoryCache

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        cache = TrajectoryCache(directory=tmp_path)
        sharded = run_ensemble(factory, range(4), span, trials=2,
                               n_points=30, engine="pool", processes=2,
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
