"""Tests for the ``array_backend`` precision option
(:func:`repro.sim.array_dtype`).

The option's contract has two tiers, both covered here:

* **float64 is bit-identical** — every spelling of the default
  (``None``, ``"numpy"``, ``"numpy:float64"``) gives the same results,
  on the ODE and the SDE path;
* **float32 is tolerance-gated** — self-consistent, and tracking
  float64 within a documented band on the paper's workloads.

Plus the plumbing: the accepted spellings, up-front rejection of every
other spec, and Wiener precision-independence.
"""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.lang import parse_program
from repro.paradigms.obc import maxcut_network
from repro.paradigms.tln import mismatched_tline
from repro.sim import (ExecutionPlan, array_dtype, canonical_spec,
                       compile_batch, run_ensemble, solve_batch,
                       solve_sde)

OU_SOURCE = """
lang ou {
    ntyp(1,sum) X {attr tau=real[1e-3,10] mm(0,0.05),
                   attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}
"""


def _ou_system(tau=1.0, nsig=0.5, name="ou", x0=1.0):
    lang = parse_program(OU_SOURCE).languages["ou"]
    g = repro.GraphBuilder(lang, name)
    g.node("x", "X").set_attr("x", "tau", tau)
    g.set_attr("x", "nsig", nsig)
    g.edge("x", "x", "r0", "R").set_init("x", x0)
    return compile_graph(g.finish())


def _tline_systems(n=4):
    return [compile_graph(mismatched_tline("gm", seed=s))
            for s in range(n)]


def _maxcut_systems(n=3):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 4)
    return [compile_graph(
        maxcut_network(edges, 4, initial_phases=phases,
                       edge_type="Cpl_ofs", seed=seed))
        for seed in range(n)]


# ----------------------------------------------------------------------
# Accepted spellings
# ----------------------------------------------------------------------

#: What every rejected spec's message lists.
SPELLINGS = "expected numpy, numpy:float64 or numpy:float32"


class TestRegistry:
    def test_resolve_default_is_shared_numpy_float64(self):
        assert array_dtype(None) == array_dtype("numpy") \
            == array_dtype("numpy:float64") == np.float64
        assert array_dtype("numpy:float32") == np.float32

    def test_unknown_name_lists_registry(self):
        with pytest.raises(SimulationError,
                           match=f"unknown array backend 'torch'; "
                                 f"{SPELLINGS}"):
            array_dtype("torch")

    def test_unsupported_dtype_rejected(self):
        for spec in ("numpy:int32", "numpy:complex128", "numpy:foo",
                     "numpy:", " numpy"):
            with pytest.raises(SimulationError, match=SPELLINGS):
                array_dtype(spec)

    def test_non_spec_type_rejected(self):
        for spec in (42, np.float32, ["numpy"]):
            with pytest.raises(SimulationError, match=SPELLINGS):
                array_dtype(spec)

    def test_canonical_spec(self):
        assert canonical_spec(None) == "numpy:float64"
        assert canonical_spec("numpy") == "numpy:float64"
        assert canonical_spec("numpy:float64") == "numpy:float64"
        assert canonical_spec("numpy:float32") == "numpy:float32"
        with pytest.raises(SimulationError, match=SPELLINGS):
            canonical_spec("jax")

    def test_optional_backends_raise_clear_error_when_absent(self):
        # jax/cupy are not array backends: naming them lists the
        # accepted spellings instead of failing on an import.
        for name in ("jax", "cupy", "jax:float32"):
            with pytest.raises(SimulationError,
                               match=f"unknown array backend '{name}'; "
                                     f"{SPELLINGS}"):
                array_dtype(name)

# ----------------------------------------------------------------------
# numpy/float64 bit-identity (the tentpole's hard gate)
# ----------------------------------------------------------------------

class TestNumpyBitIdentity:
    def test_rkf45_dense_explicit_spec_identical(self):
        systems = _tline_systems()
        default = solve_batch(compile_batch(systems), (0.0, 8e-8),
                              n_points=200)
        explicit = solve_batch(systems, (0.0, 8e-8), n_points=200,
                               array_backend="numpy:float64")
        np.testing.assert_array_equal(default.y, explicit.y)
        assert explicit.y.dtype == np.float64

    def test_rk4_explicit_spec_identical(self):
        systems = _tline_systems(2)
        default = solve_batch(compile_batch(systems), (0.0, 8e-8),
                              method="rk4", n_points=120)
        explicit = solve_batch(systems, (0.0, 8e-8), method="rk4",
                               n_points=120, array_backend="numpy")
        np.testing.assert_array_equal(default.y, explicit.y)

    @pytest.mark.parametrize("method", ["heun", "heun-adaptive"])
    def test_sde_explicit_spec_identical(self, method):
        systems = [_ou_system(name=f"ou{k}") for k in range(3)]
        seeds = ["a", "b", "c"]
        default = solve_sde(compile_batch(systems), (0.0, 2.0),
                            noise_seeds=seeds, method=method,
                            n_points=100)
        explicit = solve_sde(compile_batch(systems), (0.0, 2.0),
                             noise_seeds=seeds, method=method,
                             n_points=100, array_backend="numpy")
        np.testing.assert_array_equal(default.y, explicit.y)

    def test_step_mask_explicit_spec_identical(self):
        systems = _tline_systems()
        default = solve_batch(compile_batch(systems), (0.0, 8e-8),
                              n_points=150, freeze_tol=1e-8)
        explicit = solve_batch(systems, (0.0, 8e-8), n_points=150,
                               freeze_tol=1e-8, array_backend="numpy")
        np.testing.assert_array_equal(default.y, explicit.y)
        np.testing.assert_array_equal(default.frozen, explicit.frozen)

    def test_ensemble_driver_explicit_spec_identical(self):
        def factory(seed):
            return mismatched_tline("gm", seed=seed)

        default = run_ensemble(factory, range(4), (0.0, 8e-8),
                               n_points=100)
        explicit = run_ensemble(factory, range(4), (0.0, 8e-8),
                                n_points=100, array_backend="numpy")
        for a, b in zip(default.batches, explicit.batches):
            np.testing.assert_array_equal(a.y, b.y)

    def test_precompiled_batch_conflicting_spec_raises(self):
        batch = compile_batch(_tline_systems(2),
                              array_backend="numpy:float32")
        with pytest.raises(SimulationError, match="conflicts"):
            solve_batch(batch, (0.0, 8e-8), n_points=50,
                        array_backend="numpy:float64")

    def test_precompiled_batch_carries_its_backend(self):
        # Its dtype, that is: the one array_backend it was compiled at.
        batch = compile_batch(_tline_systems(2),
                              array_backend="numpy:float32")
        assert batch.dtype == np.float32
        trajectory = solve_batch(batch, (0.0, 8e-8), n_points=50)
        assert trajectory.y.dtype == np.float32


# ----------------------------------------------------------------------
# dtype policy (satellite: float32 self-consistency + tolerance)
# ----------------------------------------------------------------------

class TestDtypePolicy:
    def test_float32_self_consistent(self):
        systems = _tline_systems()
        a = solve_batch(systems, (0.0, 8e-8), n_points=120,
                        array_backend="numpy:float32")
        b = solve_batch(systems, (0.0, 8e-8), n_points=120,
                        array_backend="numpy:float32")
        np.testing.assert_array_equal(a.y, b.y)
        assert a.y.dtype == np.float32

    def test_float32_tracks_float64_on_tline(self):
        # Documented band (README "Precision"): single precision
        # carries ~7 significant digits; after adaptive integration
        # the paper's tline transient stays within 1e-3 relative of
        # the float64 trajectory.
        systems = _tline_systems()
        double = solve_batch(systems, (0.0, 8e-8), n_points=120,
                             array_backend="numpy:float64")
        single = solve_batch(systems, (0.0, 8e-8), n_points=120,
                             array_backend="numpy:float32")
        scale = np.max(np.abs(double.y))
        assert np.max(np.abs(single.y.astype(np.float64) - double.y)) \
            < 1e-3 * scale

    def test_float32_tracks_float64_on_maxcut(self):
        systems = _maxcut_systems(2)
        double = solve_batch(systems, (0.0, 100e-9), n_points=60,
                             array_backend="numpy:float64")
        single = solve_batch(systems, (0.0, 100e-9), n_points=60,
                             array_backend="numpy:float32")
        scale = np.max(np.abs(double.y))
        assert np.max(np.abs(single.y.astype(np.float64) - double.y)) \
            < 5e-3 * scale

    def test_float32_ensemble_self_consistent(self):
        def factory(seed):
            return mismatched_tline("gm", seed=seed)

        a = run_ensemble(factory, range(3), (0.0, 8e-8), n_points=80,
                         array_backend="numpy:float32")
        b = run_ensemble(factory, range(3), (0.0, 8e-8), n_points=80,
                         array_backend="numpy:float32")
        for batch_a, batch_b in zip(a.batches, b.batches):
            np.testing.assert_array_equal(batch_a.y, batch_b.y)

    def test_sde_float32_wiener_backend_independent(self):
        # The float32 run consumes the float64 PCG64 realization cast
        # to float32, so the noisy trajectories track at
        # single-precision tolerance.
        systems = [_ou_system(name=f"ou{k}") for k in range(2)]
        seeds = ["a", "b"]
        double = solve_sde(compile_batch(systems), (0.0, 1.0),
                           noise_seeds=seeds, n_points=60)
        single = solve_sde(
            compile_batch(systems, array_backend="numpy:float32"),
            (0.0, 1.0), noise_seeds=seeds, n_points=60)
        scale = np.max(np.abs(double.y))
        assert np.max(np.abs(single.y.astype(np.float64) - double.y)) \
            < 1e-3 * scale


# ----------------------------------------------------------------------
# Execution-plan integration: errors (satellite)
# ----------------------------------------------------------------------

class TestPlanIntegration:
    @pytest.mark.parametrize("route", ["batch", "pool"])
    def test_jax_array_backend_rejected(self, route):
        def factory(seed):
            return mismatched_tline("gm", seed=seed)

        with pytest.raises(SimulationError,
                           match=f"unknown array backend 'jax'; "
                                 f"{SPELLINGS}"):
            run_ensemble(factory, range(2), (0.0, 8e-8),
                         processes=2 if route == "pool" else None,
                         array_backend="jax")

    def test_auto_engine_stays_in_process_on_non_numpy(self):
        # A non-numpy array backend never reaches the pool routing
        # (plan validation rejects it); groups big enough go to the
        # pool.
        from repro.sim.plan import _pooled

        plan = ExecutionPlan(
            factory=lambda s: None, seeds=list(range(64)),
            t_span=(0.0, 1.0), processes=8, array_backend="jax")
        with pytest.raises(SimulationError, match="unknown array"):
            plan.validate()
        numpy_plan = ExecutionPlan(
            factory=lambda s: None, seeds=list(range(64)),
            t_span=(0.0, 1.0), processes=8)
        assert _pooled(numpy_plan, 64)
        assert not _pooled(numpy_plan, 63)

    def test_unknown_array_backend_lists_spellings(self):
        calls = []

        def factory(seed):
            calls.append(seed)
            return mismatched_tline("gm", seed=seed)

        for spec in ("torch", "numpy:foo", "numpy:int64"):
            with pytest.raises(SimulationError,
                               match=f"unknown array backend '{spec}'; "
                                     f"{SPELLINGS}$"):
                run_ensemble(factory, range(2), (0.0, 8e-8),
                             array_backend=spec)
        assert calls == []  # rejected before the first factory call

    def test_float32_pool_allowed(self, small_pool_groups):
        def factory(seed):
            return mismatched_tline("gm", seed=seed)

        result = run_ensemble(factory, range(2), (0.0, 8e-8),
                              n_points=50, processes=2,
                              array_backend="numpy:float32")
        assert result.batches[0].y.dtype == np.float32

    def test_missing_optional_backend_fails_eagerly(self):
        # Plan validation rejects the name before any solve: a
        # solve-time error must not turn into a silent float64 run.
        def factory(seed):
            return mismatched_tline("gm", seed=seed)

        with pytest.raises(SimulationError,
                           match="unknown array backend 'jax'"):
            run_ensemble(factory, range(4), (0.0, 8e-8), n_points=50,
                         array_backend="jax")

