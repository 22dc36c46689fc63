"""Unit tests for the simulator wrapper and Trajectory container."""

import math

import numpy as np
import pytest

import repro
from repro.core.simulator import simulate
from repro.errors import SimulationError
from tests.conftest import build_leaky_language, build_two_pole


@pytest.fixture()
def graph():
    return build_two_pole(build_leaky_language())


class TestSimulate:
    def test_accepts_graph_or_system(self, graph):
        t1 = simulate(graph, (0.0, 1.0))
        system = repro.compile_graph(graph)
        t2 = simulate(system, (0.0, 1.0))
        assert np.allclose(t1.y, t2.y)

    def test_analytic_decay(self, graph):
        trajectory = simulate(graph, (0.0, 2.0), n_points=100)
        expected = np.exp(-trajectory.t)
        assert np.allclose(trajectory["x0"], expected, atol=1e-5)

    def test_empty_span_rejected(self, graph):
        with pytest.raises(SimulationError):
            simulate(graph, (1.0, 1.0))

    @pytest.mark.parametrize("n_points", [1, 0])
    def test_degenerate_n_points_rejected(self, graph, n_points):
        # Regression: a 1-point grid skipped integration and returned
        # only y0 (silently — and the ensemble driver's auto method
        # used to demote batched groups here, resurfacing the bug).
        with pytest.raises(SimulationError, match="n_points"):
            simulate(graph, (0.0, 1.0), n_points=n_points)

    @pytest.mark.parametrize("max_step", [float("nan"), 0.0, -1e-3])
    def test_bad_max_step_rejected(self, graph, max_step):
        # NaN used to run with no step cap at all (isfinite(nan) is
        # false); zero and negative caps reached scipy's raw ValueError.
        with pytest.raises(SimulationError, match="max_step must be > 0"):
            simulate(graph, (0.0, 1.0), max_step=max_step)

    @pytest.mark.parametrize("max_step", [None, 0.01, np.inf])
    def test_valid_max_step_reaches_scipy_unchanged(self, graph,
                                                    max_step):
        # None is span/64; inf lifts the cap (scipy's own default).
        from scipy.integrate import solve_ivp

        system = repro.compile_graph(graph)
        grid = np.linspace(0.0, 1.0, 50)
        cap = {None: 1.0 / 64.0, np.inf: None}.get(max_step, max_step)
        direct = solve_ivp(system.rhs("codegen"), (0.0, 1.0), system.y0,
                           t_eval=grid, rtol=1e-7, atol=1e-9,
                           **({} if cap is None else {"max_step": cap}))
        trajectory = simulate(system, (0.0, 1.0), n_points=50,
                              max_step=max_step)
        np.testing.assert_array_equal(trajectory.y, direct.y)

    @pytest.mark.parametrize("t_eval", [[0.0, 0.5, 0.5, 1.0],
                                        [0.0, 0.5, 1.5], [-0.5, 0.5]])
    def test_bad_t_eval_rejected(self, graph, t_eval):
        # The batched solvers' grid check: a clean SimulationError
        # instead of scipy's raw ValueError.
        with pytest.raises(SimulationError, match="t_eval"):
            simulate(graph, (0.0, 1.0), t_eval=t_eval)

    def test_sample_outside_range_rejected(self, graph):
        trajectory = simulate(graph, (0.0, 1.0))
        with pytest.raises(SimulationError, match="outside"):
            trajectory.sample("x0", [1.5])

    def test_t_eval_override(self, graph):
        times = [0.0, 0.5, 1.0]
        trajectory = simulate(graph, (0.0, 1.0), t_eval=times)
        assert list(trajectory.t) == times

    def test_methods(self, graph):
        for method in ("RK45", "LSODA", "Radau"):
            trajectory = simulate(graph, (0.0, 1.0), method=method)
            assert trajectory.final("x0") == pytest.approx(
                math.exp(-1.0), rel=1e-3)

    def test_interpreter_backend(self, graph):
        a = simulate(graph, (0.0, 1.0), backend="interpreter")
        b = simulate(graph, (0.0, 1.0), backend="codegen")
        assert np.allclose(a.y, b.y)


class TestTrajectory:
    def test_indexing(self, graph):
        trajectory = simulate(graph, (0.0, 1.0))
        assert trajectory["x0"][0] == pytest.approx(1.0)
        assert trajectory.initial("x0") == pytest.approx(1.0)
        assert trajectory.final("x0") == pytest.approx(math.exp(-1.0),
                                                       rel=1e-4)

    def test_sampling_interpolates(self, graph):
        trajectory = simulate(graph, (0.0, 1.0), n_points=400)
        samples = trajectory.sample("x0", [0.25, 0.5])
        assert samples[0] == pytest.approx(math.exp(-0.25), rel=1e-3)
        assert samples[1] == pytest.approx(math.exp(-0.5), rel=1e-3)

    def test_window(self, graph):
        trajectory = simulate(graph, (0.0, 1.0), n_points=101)
        t, v = trajectory.window("x0", 0.2, 0.4)
        assert t[0] >= 0.2 and t[-1] <= 0.4
        assert len(t) == len(v) > 0

    def test_final_state(self, graph):
        trajectory = simulate(graph, (0.0, 1.0))
        state = trajectory.final_state()
        assert state.shape == (2,)

    def test_algebraic_readout(self):
        lang = repro.Language("alg")
        lang.node_type("X", order=1)
        lang.node_type("F", order=0)
        lang.edge_type("E")
        lang.prod("prod(e:E,s:X->s:X) s<=-var(s)")
        lang.prod("prod(e:E,s:X->t:F) t<=2*var(s)")
        builder = repro.GraphBuilder(lang)
        builder.node("x", "X").set_init("x", 1.0)
        builder.edge("x", "x", "leak", "E")
        builder.node("f", "F")
        builder.edge("x", "f", "e", "E")
        trajectory = simulate(builder.finish(), (0.0, 1.0),
                              n_points=50)
        values = trajectory.algebraic("f")
        assert np.allclose(values, 2.0 * trajectory["x"], atol=1e-9)


class TestEnsemble:
    def test_ensemble_over_seeds(self):
        lang = repro.Language("mm")
        lang.node_type("X", order=1,
                       attrs=[("tau", repro.real(0.5, 2.0,
                                                 mm=(0.0, 0.1)))])
        lang.edge_type("S")
        lang.prod("prod(e:S,s:X->s:X) s<=-var(s)/s.tau")

        def factory(seed):
            builder = repro.GraphBuilder(lang, seed=seed)
            builder.node("x", "X").set_attr("x", "tau", 1.0)
            builder.edge("x", "x", "e", "S")
            builder.set_init("x", 1.0)
            return builder.finish()

        trajectories = repro.run_ensemble(factory, seeds=range(5),
                                          t_span=(0.0, 1.0))
        finals = {t.final("x") for t in trajectories}
        assert len(trajectories) == 5
        assert len(finals) == 5  # each seed decays differently
