"""Dense-output Dormand–Prince accuracy and cost.

Dense output decouples step control from the output grid, so the
batched dopri5 is checked against an independent reference — scipy's
DOP853 at rtol 1e-12 — on the paper's workloads, at tolerance level,
and it must not pay extra RHS evaluations for fine output grids. Its
steps land on the input pulse's kinks, which is what keeps the t-line
error within a few units of the requested tolerance.
"""

import numpy as np
import pytest

from repro.core.compiler import compile_graph
from repro.core.simulator import simulate
from repro.paradigms.obc import maxcut_network
from repro.paradigms.tln import mismatched_tline
from repro.paradigms.tln.waveforms import pulse_breakpoints
from repro.sim import compile_batch, solve_batch


def _reference(batch, t_span, **grid):
    """Every row of ``batch`` solved by scipy DOP853 at rtol 1e-12:
    ``(n_instances, n_states, n_t)``."""
    return np.stack([simulate(system, t_span, method="DOP853",
                              rtol=1e-12, atol=1e-14, **grid).y
                     for system in batch.systems])


def _recording(batch):
    """Instrument a BatchRhs to record the time of every RHS call."""
    batch.times = []
    inner = batch._rhs_inner

    def recorded(t, y, dy):
        batch.times.append(t)
        return inner(t, y, dy)

    batch._rhs_inner = recorded
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
        coarse = _recording(_tline_batch(2))
        solve_batch(coarse, (0.0, 8e-8), n_points=60)
        fine = _recording(_tline_batch(2))
        solve_batch(fine, (0.0, 8e-8), n_points=600)
        assert len(fine.times) <= len(coarse.times) * 1.2

    def test_dense_respects_t_eval_window(self):
        batch = _tline_batch(2)
        grid = np.linspace(2e-8, 6e-8, 25)
        dense = solve_batch(batch, (0.0, 8e-8), t_eval=grid)
        reference = _reference(batch, (0.0, 8e-8), t_eval=grid)
        np.testing.assert_array_equal(dense.t, grid)
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(dense.y - reference)) < 1e-4 * scale

    def test_oscillator_accuracy_matches_scipy_dense(self):
        # dopri5 reads the grid off the pair's own quartic interpolant,
        # the one scipy's RK45 dense output uses, so mid-grid accuracy
        # on a stiff-ish oscillator must be in the same band as scipy's
        # at the same tolerance (free-running global error), not an
        # order worse.
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
        # Interpolation accuracy: the dense output of exp decay stays
        # at the integrator's tolerance between steps, not just on
        # them.
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


def _units(trajectory, reference, rtol, atol):
    """Per-row error in units of ``rtol * max|y_ref| + atol``."""
    delta = np.abs(trajectory.y - reference).max(axis=(1, 2))
    peak = np.abs(reference).max(axis=(1, 2))
    return delta / (rtol * peak + atol)


class TestInterpolant:
    """The Dormand–Prince quartic between steps, against DOP853."""

    def test_off_step_points_match_reference(self):
        # Only grid points no step ends on are read off the
        # interpolant; those must sit at the solver's tolerance.
        batch = _recording(_tline_batch(2))
        trajectory = solve_batch(batch, (0.0, 8e-8), n_points=300)
        calls = set(batch.times)
        off_step = [k for k, t in enumerate(trajectory.t)
                    if t not in calls]
        assert len(off_step) > 0.9 * len(trajectory.t)
        reference = _reference(batch, (0.0, 8e-8),
                               t_eval=trajectory.t[off_step])
        scale = 1e-7 * np.abs(reference).max() + 1e-9
        assert np.abs(trajectory.y[:, :, off_step]
                      - reference).max() < 10.0 * scale

    def test_maxcut_off_step_points_match_reference(self):
        batch = _recording(_maxcut_batch())
        trajectory = solve_batch(batch, (0.0, 100e-9), n_points=60)
        calls = set(batch.times)
        off_step = [k for k, t in enumerate(trajectory.t)
                    if t not in calls]
        assert len(off_step) > 0.9 * len(trajectory.t)
        reference = _reference(batch, (0.0, 100e-9),
                               t_eval=trajectory.t[off_step])
        scale = 1e-7 * np.abs(reference).max() + 1e-9
        assert np.abs(trajectory.y[:, :, off_step]
                      - reference).max() < 10.0 * scale


class TestTolerance:
    """Accuracy of the 16-seed gm t-line batch in units of the
    requested tolerance, against DOP853."""

    SPAN = (0.0, 8e-8)

    @pytest.fixture(scope="class")
    def line(self):
        batch = _tline_batch(16)
        return batch, _reference(batch, self.SPAN, n_points=300)

    def test_every_row_within_ten_units(self, line):
        # Measured 2.5-9.8 units on these rows (seed 13 the worst), so
        # the margin is thin: scipy's own RK45, restarted at the kinks,
        # lands at 3.6-11.6 on them. The benchmark's eight fixed
        # accuracy rows measure 1.9-5.3.
        batch, reference = line
        trajectory = solve_batch(batch, self.SPAN, n_points=300,
                                 rtol=1e-7, atol=1e-9)
        units = _units(trajectory, reference, 1e-7, 1e-9)
        assert units.max() <= 10.0, units

    def test_error_is_proportional_to_tolerance(self, line):
        batch, reference = line
        errors = [_units(solve_batch(batch, self.SPAN, n_points=300,
                                     rtol=rtol, atol=1e-2 * rtol),
                         reference, 1.0, 0.0).max()
                  for rtol in (1e-6, 1e-7)]
        assert errors[0] >= 5.0 * errors[1], errors


class TestBreakpoints:
    def test_tline_batch_carries_the_pulse_kinks(self):
        assert _tline_batch(2).breakpoints == pulse_breakpoints(0.0, 2e-8)

    def test_steps_end_on_every_kink(self):
        # Every attempted step is 6 RHS calls after the first: stages at
        # t + c h for c = 1/5, 3/10, 4/5, 8/9, 1 and the step's end. No
        # attempt may straddle a kink, and an accepted one ends on each.
        batch = _recording(_tline_batch(2))
        solve_batch(batch, (0.0, 8e-8), n_points=300)
        times = batch.times
        assert (len(times) - 1) % 6 == 0
        kinks = [point for point in batch.breakpoints
                 if 0.0 < point < 8e-8]
        assert len(kinks) == 3
        ends = set(times[6::6])
        for kink in kinks:
            assert kink in ends
        for first in range(1, len(times), 6):
            h = (times[first + 4] - times[first]) / 0.8
            start, end = times[first] - 0.2 * h, times[first + 5]
            for kink in kinks:
                assert not start + 1e-6 * h < kink < end - 1e-6 * h

    def test_breakpoint_free_batch_is_unchanged(self):
        # A system with no tagged input (the OBC max-cut network) has no
        # breakpoints, and points on or outside the span's ends clip no
        # step: the solve is bit for bit the breakpoint-free one.
        batch = _maxcut_batch()
        assert batch.breakpoints == ()
        free = solve_batch(batch, (0.0, 100e-9), n_points=60)
        batch.breakpoints = (-1e-9, 0.0, 100e-9, 200e-9)
        outside = solve_batch(batch, (0.0, 100e-9), n_points=60)
        np.testing.assert_array_equal(free.y, outside.y)
        assert free.nfev == outside.nfev
