"""Tests for the unified execution-plan layer (:mod:`repro.sim.plan`):
shim equivalence (the legacy drivers must be bit-identical delegates),
backend registry behavior, plan validation, and pooled-SDE
bit-identity."""

import numpy as np
import pytest

import repro
from repro.errors import SimulationError
from repro.lang import parse_program
from repro.sim import (BACKENDS, ENGINES, ExecutionPlan, NoiseSpec,
                       backend_names, register_backend, resolve_engine,
                       run_ensemble)
from repro.sim.plan import BatchBackend, ExecutionBackend

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
        with pytest.raises(ValueError, match="unknown engine"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                         engine="bogus")

    def test_unknown_engine_in_simulate_ensemble(self):
        from repro.core.simulator import simulate_ensemble

        with pytest.raises(ValueError, match="unknown engine"):
            simulate_ensemble(_ou_factory(0.0), range(2), (0.0, 1.0),
                              engine="parallel")

    def test_unknown_backend_in_plan(self):
        plan = ExecutionPlan(factory=_ou_factory(), seeds=[0],
                             t_span=(0.0, 1.0), backend="nope")
        with pytest.raises(SimulationError, match="unknown execution"):
            plan.run()

    def test_trials_below_one(self):
        with pytest.raises(SimulationError, match="trials"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0), trials=0)
        with pytest.raises(SimulationError, match="trials"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0), trials=-1)

    def test_noise_seed_without_trials(self):
        with pytest.raises(ValueError, match="noise_seed"):
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
        with pytest.raises(ValueError, match="freeze_tol"):
            run_ensemble(_ou_factory(0.0), range(2), (0.0, 1.0),
                         freeze_tol=-1.0)

    def test_resolve_engine_maps_batch_to_auto(self):
        assert resolve_engine("batch") == "auto"
        assert resolve_engine("serial") == "serial"
        assert resolve_engine("pool") == "pool"

    def test_removed_engine_lists_valid_choices(self):
        assert ENGINES == ("batch", "serial", "pool", "auto")
        with pytest.raises(ValueError,
                           match="unknown engine 'shard'.*"
                                 "batch, serial, pool, auto"):
            run_ensemble(_ou_factory(), range(2), (0.0, 1.0),
                         engine="shard")

    @pytest.mark.parametrize("method", ["rk45", "RKF45", "euler"])
    def test_unknown_ode_method_lists_valid_choices(self, method):
        # rk45 used to alias rkf45; it and other unknown names must
        # fail up front instead of reaching scipy's solve_ivp.
        with pytest.raises(SimulationError,
                           match=f"unknown method '{method}'.*"
                                 "auto, rkf45, rk4, RK23, RK45"):
            run_ensemble(_ou_factory(0.0), range(2), (0.0, 1.0),
                         method=method)


class TestRegistry:
    def test_registered_names(self):
        assert set(backend_names()) == {"auto", "batch", "serial",
                                        "pool"}

    def test_custom_backend_pluggable(self):
        calls = []

        class CountingBackend(BatchBackend):
            name = "counting"

            def solve_ode(self, task):
                calls.append(len(task.indices))
                return super().solve_ode(task)

        register_backend(CountingBackend())
        try:
            plan = ExecutionPlan(factory=_ou_factory(0.0),
                                 seeds=list(range(3)),
                                 t_span=(0.0, 1.0), backend="counting",
                                 n_points=40)
            result = plan.run()
            assert calls == [3]
            assert len(result.trajectories) == 3
        finally:
            del BACKENDS["counting"]

    def test_backend_base_class_is_abstract(self):
        backend = ExecutionBackend()
        with pytest.raises(NotImplementedError):
            backend.solve_ode(None)


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
                               n_points=40, processes=2, shard_min=4)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)
        for chip in range(4):
            np.testing.assert_array_equal(
                unsharded.reference(chip).y, sharded.reference(chip).y)

    def test_pool_engine_ignores_shard_min(self):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        unsharded = run_ensemble(factory, range(2), span, trials=2,
                                 n_points=30)
        # engine="pool" ignores shard_min sizing via the auto policy
        # and shards whatever it can (here 4 rows over 2 workers).
        sharded = run_ensemble(factory, range(2), span, trials=2,
                               n_points=30, engine="pool", processes=2)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)

    def test_unpicklable_factory_falls_back_in_process(self):
        factory = _ou_factory()  # closure: not picklable
        sharded = run_ensemble(factory, range(3), (0.0, 1.0), trials=2,
                               n_points=30, processes=2, shard_min=2)
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
                               n_points=30, processes=2, shard_min=4,
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
