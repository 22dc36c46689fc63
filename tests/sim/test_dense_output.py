"""Dense-output RKF45 accuracy and cost.

Dense output decouples step control from the output grid, so the
batched rkf45 is checked against an independent reference — scipy's
DOP853 at rtol 1e-12 — on the paper's workloads, at tolerance level,
and it must not pay extra RHS evaluations for fine output grids.
"""

import numpy as np

from repro.core.compiler import compile_graph
from repro.core.simulator import simulate
from repro.paradigms.obc import maxcut_network
from repro.paradigms.tln import mismatched_tline
from repro.sim import compile_batch, solve_batch


def _reference(batch, t_span, **grid):
    """Every row of ``batch`` solved by scipy DOP853 at rtol 1e-12:
    ``(n_instances, n_states, n_t)``."""
    return np.stack([simulate(system, t_span, method="DOP853",
                              rtol=1e-12, atol=1e-14, **grid).y
                     for system in batch.systems])


def _counting(batch):
    """Instrument a BatchRhs to count RHS evaluations in-place."""
    batch.calls = 0
    inner = batch._rhs_inner

    def counted(t, y, dy):
        batch.calls += 1
        return inner(t, y, dy)

    batch._rhs_inner = counted
    return batch


def _tline_batch(n=4):
    return compile_batch([compile_graph(mismatched_tline("gm", seed=s))
                          for s in range(n)])


def _maxcut_batch(n=4):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * np.pi, 4)
    systems = [compile_graph(
        maxcut_network(edges, 4, initial_phases=phases,
                       edge_type="Cpl_ofs", seed=seed))
        for seed in range(n)]
    return compile_batch(systems)


class TestDenseVsClipped:
    """The class keeps its name so the test ids stay stable; its
    accuracy checks compare with the DOP853 reference."""

    def test_tline_tolerance_agreement(self):
        batch = _tline_batch()
        dense = solve_batch(batch, (0.0, 8e-8), n_points=300)
        reference = _reference(batch, (0.0, 8e-8), n_points=300)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(dense.y - reference)) < 1e-4 * scale

    def test_maxcut_tolerance_agreement(self):
        batch = _maxcut_batch()
        dense = solve_batch(batch, (0.0, 100e-9), n_points=60)
        reference = _reference(batch, (0.0, 100e-9), n_points=60)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(dense.y - reference)) < 1e-4 * scale

    def test_grid_endpoints_exact(self):
        batch = _tline_batch(2)
        dense = solve_batch(batch, (0.0, 8e-8), n_points=50)
        assert dense.t[0] == 0.0
        assert dense.t[-1] == 8e-8
        np.testing.assert_array_equal(dense.y[:, :, 0], batch.y0)

    def test_fine_grid_costs_no_extra_rhs_evals(self):
        # Step control is decoupled from the grid: a 10x finer output
        # grid may not trigger (meaningfully) more RHS work.
        coarse = _counting(_tline_batch(2))
        solve_batch(coarse, (0.0, 8e-8), n_points=60)
        fine = _counting(_tline_batch(2))
        solve_batch(fine, (0.0, 8e-8), n_points=600)
        assert fine.calls <= coarse.calls * 1.2

    def test_dense_respects_t_eval_window(self):
        batch = _tline_batch(2)
        grid = np.linspace(2e-8, 6e-8, 25)
        dense = solve_batch(batch, (0.0, 8e-8), t_eval=grid)
        reference = _reference(batch, (0.0, 8e-8), t_eval=grid)
        np.testing.assert_array_equal(dense.t, grid)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(dense.y - reference)) < 1e-4 * scale

    def test_oscillator_accuracy_matches_scipy_dense(self):
        # The quartic interpolant is order-consistent with the
        # propagated solution, so mid-grid accuracy on a stiff-ish
        # oscillator must be in the same band as scipy's RK45 dense
        # output at the same tolerance (free-running global error),
        # not an order worse.
        import repro
        from scipy.integrate import solve_ivp
        lang = repro.Language("dense-osc")
        lang.node_type("X", order=2,
                       attrs=[("k", repro.real(0.0, 100.0))])
        lang.edge_type("S")
        lang.prod("prod(e:S,s:X->s:X) s <= -s.k*var(s)")
        builder = repro.GraphBuilder(lang, "osc")
        builder.node("x", "X").set_attr("x", "k", 25.0)
        builder.edge("x", "x", "e", "S")
        builder.set_init("x", 1.0)
        batch = compile_batch([compile_graph(builder.finish())])
        trajectory = solve_batch(batch, (0.0, 10.0), n_points=2001,
                                 rtol=1e-7, atol=1e-9)
        our_error = np.max(np.abs(trajectory["x"][0]
                                  - np.cos(5.0 * trajectory.t)))
        scipy_sol = solve_ivp(
            lambda t, y: [y[1], -25.0 * y[0]], (0.0, 10.0), [1.0, 0.0],
            method="RK45", rtol=1e-7, atol=1e-9,
            t_eval=np.linspace(0.0, 10.0, 2001))
        scipy_error = np.max(np.abs(scipy_sol.y[0]
                                    - np.cos(5.0 * scipy_sol.t)))
        assert our_error < 10.0 * scipy_error

    def test_dense_matches_closed_form(self):
        # Interpolation accuracy: dense output of exp decay stays at
        # the integrator's tolerance between steps, not just on them.
        import repro
        lang = repro.Language("dense-decay")
        lang.node_type("X", order=1,
                       attrs=[("tau", repro.real(0.1, 10.0))])
        lang.edge_type("S")
        lang.prod("prod(e:S,s:X->s:X) s <= -var(s)/s.tau")
        systems = []
        for tau in (0.5, 2.0):
            builder = repro.GraphBuilder(lang, "decay")
            builder.node("x", "X").set_attr("x", "tau", tau)
            builder.edge("x", "x", "e", "S")
            builder.set_init("x", 1.0)
            systems.append(compile_graph(builder.finish()))
        trajectory = solve_batch(compile_batch(systems), (0.0, 2.0),
                                 n_points=501, rtol=1e-8, atol=1e-10)
        expected = np.exp(-trajectory.t[None, :] /
                          np.array((0.5, 2.0))[:, None])
        np.testing.assert_allclose(trajectory["x"], expected,
                                   rtol=1e-6, atol=1e-9)
