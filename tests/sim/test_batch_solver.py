"""Unit tests for the vectorized batch solvers and BatchTrajectory."""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.sim import compile_batch, solve_batch


def _decay_language():
    lang = repro.Language("decay")
    lang.node_type("X", order=1,
                   attrs=[("tau", repro.real(0.1, 10.0,
                                             mm=(0.0, 0.2)))])
    lang.edge_type("S")
    lang.prod("prod(e:S,s:X->s:X) s <= -var(s)/s.tau")
    return lang


def _decay_batch(taus, init=1.0):
    lang = _decay_language()
    systems = []
    for tau in taus:
        builder = repro.GraphBuilder(lang, "decay")
        builder.node("x", "X").set_attr("x", "tau", float(tau))
        builder.edge("x", "x", "e", "S")
        builder.set_init("x", init)
        systems.append(compile_graph(builder.finish()))
    return compile_batch(systems)


TAUS = (0.5, 1.0, 2.0, 4.0)


class TestSolvers:
    # rkf45 is the retired spelling of dopri5 that solve_batch keeps
    # (test_rkf45_is_a_retired_spelling_of_dopri5): it runs dopri5.
    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_matches_closed_form(self, method):
        batch = _decay_batch(TAUS)
        trajectory = solve_batch(batch, (0.0, 2.0), n_points=50,
                                 method=method)
        expected = np.exp(-trajectory.t[None, :] /
                          np.array(TAUS)[:, None])
        np.testing.assert_allclose(trajectory["x"], expected,
                                   rtol=1e-5, atol=1e-8)

    def test_t_eval_grid_is_respected(self):
        batch = _decay_batch(TAUS)
        grid = np.array([0.0, 0.5, 1.5, 2.0])
        trajectory = solve_batch(batch, (0.0, 2.0), t_eval=grid)
        np.testing.assert_allclose(trajectory.t, grid)
        assert trajectory.y.shape == (4, 1, 4)

    def test_empty_span_raises(self):
        batch = _decay_batch(TAUS)
        with pytest.raises(SimulationError, match="empty time span"):
            solve_batch(batch, (1.0, 1.0))

    def test_unknown_method_raises(self):
        batch = _decay_batch(TAUS)
        with pytest.raises(SimulationError, match="unknown batch"):
            solve_batch(batch, (0.0, 1.0), method="LSODA")

    def test_rk45_is_not_an_alias_of_rkf45(self):
        batch = _decay_batch(TAUS)
        with pytest.raises(SimulationError,
                           match="unknown batch method 'rk45'.*dopri5"):
            solve_batch(batch, (0.0, 1.0), method="rk45")

    def test_rkf45_is_a_retired_spelling_of_dopri5(self):
        # The benchmark's traced t-line still passes method="rkf45",
        # dense=True straight to solve_batch; it runs dopri5.
        batch = _decay_batch(TAUS)
        new = solve_batch(batch, (0.0, 1.0), n_points=40,
                          method="dopri5")
        old = solve_batch(batch, (0.0, 1.0), n_points=40,
                          method="rkf45", dense=True)
        np.testing.assert_array_equal(new.y, old.y)
        assert new.nfev == old.nfev

    def test_per_instance_error_control(self):
        # A fast instance (tau=0.1) must not degrade a slow sibling's
        # accuracy: both rows still match the closed form.
        batch = _decay_batch((0.1, 5.0))
        trajectory = solve_batch(batch, (0.0, 1.0), n_points=40,
                                 method="dopri5", rtol=1e-9, atol=1e-12)
        expected = np.exp(-trajectory.t[None, :] /
                          np.array((0.1, 5.0))[:, None])
        np.testing.assert_allclose(trajectory["x"], expected,
                                   rtol=1e-6, atol=1e-9)


class TestBatchTrajectory:
    @pytest.fixture(scope="class")
    def trajectory(self):
        return solve_batch(_decay_batch(TAUS), (0.0, 2.0), n_points=80)

    def test_shapes(self, trajectory):
        assert trajectory.n_instances == len(trajectory) == 4
        assert trajectory.n_points == 80
        assert trajectory["x"].shape == (4, 80)
        assert trajectory.final("x").shape == (4,)

    def test_instance_roundtrip(self, trajectory):
        one = trajectory.instance(2)
        assert one.final("x") == \
            pytest.approx(float(trajectory.final("x")[2]))
        assert len(trajectory.trajectories()) == 4

    def test_statistics(self, trajectory):
        matrix = trajectory["x"]
        np.testing.assert_allclose(trajectory.mean("x"),
                                   matrix.mean(axis=0))
        np.testing.assert_allclose(trajectory.std("x"),
                                   matrix.std(axis=0))
        band = trajectory.band("x", 10.0, 90.0)
        assert set(band) == {"median", "lower", "upper"}
        assert np.all(band["lower"] <= band["upper"])

    def test_band_validates_percentiles(self, trajectory):
        with pytest.raises(ValueError):
            trajectory.band("x", 90.0, 10.0)

    def test_sample_interpolates_rows(self, trajectory):
        times = np.array([0.25, 0.75])
        sampled = trajectory.sample("x", times)
        assert sampled.shape == (4, 2)
        expected = np.exp(-times[None, :] / np.array(TAUS)[:, None])
        np.testing.assert_allclose(sampled, expected, rtol=1e-3)

    def test_spread_scalar(self, trajectory):
        spread = trajectory.spread("x", (0.5, 1.5), n_samples=20)
        assert spread > 0.0


class TestDegenerateGrid:
    """Regression: n_points < 2 used to silently return a 1-point grid
    (so the solvers skipped integration and handed back y0 only) or
    crash with a bare IndexError at n_points=0."""

    @pytest.mark.parametrize("n_points", [1, 0, -3])
    def test_solve_batch_rejects_degenerate_n_points(self, n_points):
        batch = _decay_batch(TAUS)
        with pytest.raises(SimulationError, match="n_points"):
            solve_batch(batch, (0.0, 1.0), n_points=n_points)

    def test_two_point_grid_still_integrates(self):
        batch = _decay_batch(TAUS)
        trajectory = solve_batch(batch, (0.0, 1.0), n_points=2)
        assert trajectory.n_points == 2
        expected = np.exp(-1.0 / np.array(TAUS))
        np.testing.assert_allclose(trajectory.final("x"), expected,
                                   rtol=1e-5)


class TestMaxStepValidation:
    """Regression: max_step=0 died in a substep division and negative
    values were silently swallowed by max(1, ceil(dt/max_step))."""

    @pytest.mark.parametrize("max_step", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("method", ["rk4", "rkf45"])
    def test_solve_batch_rejects(self, max_step, method):
        batch = _decay_batch(TAUS)
        with pytest.raises(SimulationError, match="max_step"):
            solve_batch(batch, (0.0, 1.0), method=method,
                        max_step=max_step)

    def test_positive_infinity_lifts_the_cap(self):
        batch = _decay_batch(TAUS)
        trajectory = solve_batch(batch, (0.0, 1.0), n_points=20,
                                 max_step=np.inf)
        assert np.all(np.isfinite(trajectory.y))


class TestSampleRange:
    """Regression: np.interp clamps out-of-range times, so sampling or
    spreading past t_span returned a confidently wrong constant."""

    @pytest.fixture(scope="class")
    def trajectory(self):
        return solve_batch(_decay_batch(TAUS), (0.0, 2.0), n_points=40)

    def test_sample_outside_range_raises(self, trajectory):
        with pytest.raises(SimulationError, match="outside"):
            trajectory.sample("x", [1.0, 2.5])
        with pytest.raises(SimulationError, match="outside"):
            trajectory.sample("x", [-0.5])

    def test_spread_window_past_span_raises(self, trajectory):
        with pytest.raises(SimulationError, match="outside"):
            trajectory.spread("x", (1.5, 2.5))

    def test_endpoints_are_inclusive(self, trajectory):
        samples = trajectory.sample("x", [0.0, 2.0])
        assert samples.shape == (4, 2)
        np.testing.assert_allclose(samples[:, 0], 1.0)

    def test_serial_trajectory_sample_shares_the_fix(self, trajectory):
        serial = trajectory.instance(0)
        with pytest.raises(SimulationError, match="outside"):
            serial.sample("x", [2.5])
        np.testing.assert_allclose(serial.sample("x", [0.0]), [1.0])
