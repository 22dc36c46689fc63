"""Tests for the batched SDE engine: solver correctness in the
zero-noise limit, statistical sanity against closed-form OU moments,
stream determinism, and the noisy-ensemble driver."""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.lang import parse_program
from repro.sim import (WienerSource, compile_batch, run_ensemble,
                       simulate_sde, solve_batch, solve_sde)

OU_SOURCE = """
lang ou {
    ntyp(1,sum) X {attr tau=real[1e-3,10], attr nsig=real[0,inf]};
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


class TestWienerSource:
    def test_block_size_independent(self):
        paths = [("e0", "w0"), ("e1", "w0")]
        a = WienerSource([0, 1], paths, block=256)
        b = WienerSource([0, 1], paths, block=3)
        draws_a = np.stack([a.normals(k) for k in range(20)])
        draws_b = np.stack([b.normals(k) for k in range(20)])
        assert np.array_equal(draws_a, draws_b)

    def test_rewind_within_block_allowed(self):
        source = WienerSource([0], [("e0", "w0")], block=16)
        later = source.normals(5).copy()
        again = source.normals(5)
        assert np.array_equal(later, again)

    def test_rewind_past_block_rejected(self):
        source = WienerSource([0], [("e0", "w0")], block=4)
        source.normals(10)
        with pytest.raises(SimulationError):
            source.normals(1)

    def test_no_paths_short_circuits(self):
        source = WienerSource([0, 1, 2], [])
        assert source.normals(0).shape == (3, 0)


class TestZeroDiffusionEquivalence:
    """Property: with every noise amplitude at 0, the SDE solvers are
    plain fixed-step ODE solvers and must track RK4 within solver
    tolerance — on the OU cell and on real paradigm workloads."""

    @pytest.mark.parametrize("method,atol", [("heun", 2e-4)])
    def test_ou_matches_rk4(self, method, atol):
        system = _ou_system(nsig=0.0)
        batch = compile_batch([system])
        grid_kw = dict(n_points=400)
        sde = solve_sde(batch, (0.0, 5.0), method=method, **grid_kw)
        rk4 = solve_batch(batch, (0.0, 5.0), method="rk4", **grid_kw)
        np.testing.assert_allclose(sde.y, rk4.y, atol=atol)

    def test_tline_matches_rk4(self):
        # Heun only: the lossless interior of a t-line puts eigenvalues
        # on the imaginary axis, where plain Euler-Maruyama's drift
        # update is marginally unstable — exactly why heun is the
        # default method.
        from repro.paradigms.tln import TLineSpec, linear_tline

        # Tiny noise amplitude via the noisy language: diffusion terms
        # exist but fold to ~0, so the SDE path runs end to end.
        from repro.paradigms.tln.noisy import ns_tln_language

        graph = linear_tline(TLineSpec(n_segments=6), noise=1e-30,
                             language=ns_tln_language())
        system = compile_graph(graph)
        assert system.has_noise
        batch = compile_batch([system])
        sde = solve_sde(batch, (0.0, 4e-8), n_points=400,
                        method="heun")
        rk4 = solve_batch(batch, (0.0, 4e-8), n_points=400,
                          method="rk4")
        scale = np.abs(rk4.y).max()
        assert np.abs(sde.y - rk4.y).max() <= 1e-2 * scale

    def test_obc_matches_rk4(self):
        from repro.paradigms.obc import maxcut_network

        rng = np.random.default_rng(0)
        graph = maxcut_network([(0, 1), (1, 2), (2, 0)], 3,
                               initial_phases=rng.uniform(0, 6.28, 3),
                               noise_sigma=1e-30)
        batch = compile_batch([compile_graph(graph)])
        sde = solve_sde(batch, (0.0, 50e-9), n_points=50,
                        max_step=5e-11)
        rk4 = solve_batch(batch, (0.0, 50e-9), n_points=50,
                          method="rk4", max_step=5e-11)
        np.testing.assert_allclose(sde.y, rk4.y, atol=1e-3)


class TestNoiseStatistics:
    def test_ou_stationary_moments(self):
        """A batch of OU processes must reproduce the closed-form
        stationary variance sigma^2 * tau / 2 and zero mean."""
        tau, sigma = 0.5, 0.8
        system = _ou_system(tau=tau, nsig=sigma, x0=0.0)
        batch = compile_batch([system] * 256)
        traj = solve_sde(batch, (0.0, 6.0), noise_seeds=range(256),
                        n_points=300, method="heun")
        late = traj.state("x")[:, 150:]
        expected_std = sigma * np.sqrt(tau / 2.0)
        assert abs(late.mean()) < 0.05
        assert late.std() == pytest.approx(expected_std, rel=0.12)

    def test_noise_scales_with_sigma(self):
        spreads = []
        for sigma in (0.1, 0.4):
            batch = compile_batch(
                [_ou_system(nsig=sigma, name=f"s{sigma}")] * 32)
            traj = solve_sde(batch, (0.0, 3.0),
                             noise_seeds=range(32), n_points=150)
            spreads.append(traj.spread("x", (1.0, 3.0)))
        assert spreads[1] > 2.0 * spreads[0]


class TestDeterminism:
    def test_same_seed_same_path(self):
        system = _ou_system()
        kwargs = dict(noise_seeds=["a", "a"], n_points=100)
        traj = solve_sde(compile_batch([system] * 2), (0.0, 2.0),
                         **kwargs)
        np.testing.assert_array_equal(traj.y[0], traj.y[1])

    def test_different_seed_different_path(self):
        system = _ou_system()
        traj = solve_sde(compile_batch([system] * 2), (0.0, 2.0),
                         noise_seeds=["a", "b"], n_points=100)
        assert not np.array_equal(traj.y[0], traj.y[1])

    def test_rerun_replays_realization(self):
        system = _ou_system()
        a = simulate_sde(system, (0.0, 2.0), noise_seed=3,
                         n_points=100)
        b = simulate_sde(system, (0.0, 2.0), noise_seed=3,
                         n_points=100)
        np.testing.assert_array_equal(a.y, b.y)

    def test_serial_matches_batched_row(self):
        systems = [_ou_system(name=f"c{k}") for k in range(3)]
        batched = solve_sde(compile_batch(systems), (0.0, 2.0),
                            noise_seeds=["s0", "s1", "s2"],
                            n_points=100)
        serial = simulate_sde(systems[1], (0.0, 2.0), noise_seed="s1",
                              n_points=100)
        np.testing.assert_array_equal(batched.instance(1).y, serial.y)


class TestSolverValidation:
    def test_unknown_method(self):
        with pytest.raises(SimulationError, match="rk99.*expected one"):
            solve_sde(compile_batch([_ou_system()]), (0.0, 1.0),
                      method="rk99")
        # The removed methods name the two that remain.
        for method in ("em", "milstein", "em-adaptive"):
            with pytest.raises(SimulationError,
                               match=f"'{method}'; expected one of "
                               "heun, heun-adaptive$"):
                solve_sde(compile_batch([_ou_system()]), (0.0, 1.0),
                          method=method)

    def test_unknown_method_rejected_before_compile(self):
        # Validation must fire even on an uncompiled system list (no
        # late AttributeError from a half-built batch).
        with pytest.raises(SimulationError, match="expected one of"):
            solve_sde([_ou_system()], (0.0, 1.0), method="euler")

    def test_seed_count_mismatch(self):
        with pytest.raises(SimulationError):
            solve_sde(compile_batch([_ou_system()] * 2), (0.0, 1.0),
                      noise_seeds=[1])

    def test_deterministic_batch_has_no_diffusion(self):
        silent = _ou_system(nsig=0.0, name="quiet")
        batch = compile_batch([silent])
        assert not batch.has_noise
        with pytest.raises(SimulationError):
            batch.diffusion(0.0, batch.y0)

    @pytest.mark.parametrize("max_step", [0.0, -0.5, float("nan")])
    def test_invalid_max_step_rejected(self, max_step):
        # Regression: max_step=0 died in int(np.ceil(dt/0)) and
        # negative values were silently ignored by max(1, ...) in the
        # substep plan.
        with pytest.raises(SimulationError, match="max_step"):
            solve_sde(compile_batch([_ou_system()]), (0.0, 1.0),
                      max_step=max_step)

    @pytest.mark.parametrize("n_points", [1, 0])
    def test_degenerate_n_points_rejected(self, n_points):
        # Regression: a 1-point grid skipped integration and returned
        # only y0; a 0-point grid crashed with a bare IndexError.
        with pytest.raises(SimulationError, match="n_points"):
            solve_sde(compile_batch([_ou_system()]), (0.0, 1.0),
                      n_points=n_points)


def _ou_pair(nsig_x, nsig_y, name="pair"):
    lang = parse_program(OU_SOURCE).languages["ou"]
    g = repro.GraphBuilder(lang, name)
    for node, nsig in (("x", nsig_x), ("y", nsig_y)):
        g.node(node, "X").set_attr(node, "tau", 1.0)
        g.set_attr(node, "nsig", nsig)
        g.edge(node, node, f"r{node}", "R").set_init(node, 1.0)
    return compile_graph(g.finish())


class TestDiffusionSource:
    """Shared literal amplitudes fill ``out`` with one store; the
    values are those of the per-column stores they replace."""

    @pytest.mark.parametrize("dtype", ["numpy:float64", "numpy:float32"])
    def test_equal_literals_are_one_scalar_store(self, dtype):
        batch = compile_batch([_ou_pair(0.3, 0.3)] * 3, array_backend=dtype)
        body = batch.source[batch.source.index("def _dif"):]
        assert body.splitlines()[1:] == ["    out[:, :] = 0.3",
                                         "    return out"]
        out = batch.diffusion(0.0, batch.y0)
        assert out.dtype == batch.dtype
        np.testing.assert_array_equal(out, np.full((3, 2), 0.3,
                                                   dtype=batch.dtype))

    @pytest.mark.parametrize("dtype", ["numpy:float64", "numpy:float32"])
    def test_distinct_literals_are_one_matrix_store(self, dtype):
        # A repeated system exercises the row expansion of the
        # namespace's instance axis.
        a, b = _ou_pair(0.3, 0.7, "a"), _ou_pair(0.3, 0.7, "b")
        batch = compile_batch([a, a, b], array_backend=dtype)
        assert "    out[:, :] = _dif_c.T" in batch.source
        out = batch.diffusion(0.0, batch.y0)
        expected = np.array([[0.3, 0.7]] * 3, dtype=batch.dtype)
        np.testing.assert_array_equal(out, expected)

    def test_per_instance_amplitudes_keep_column_stores(self):
        batch = compile_batch([_ou_pair(0.3, 0.7), _ou_pair(0.4, 0.7)])
        assert "out[:, 0] = " in batch.source
        np.testing.assert_array_equal(
            batch.diffusion(0.0, batch.y0), [[0.3, 0.7], [0.4, 0.7]])

    def test_only_read_algebraic_lines_are_emitted(self):
        from repro.sim.batch_codegen import _lines_read

        algebraic = ["    _alg_0 = 1.0", "    _alg_1 = (_alg_0 * 2.0)",
                     "    _alg_10 = 3.0"]
        assert _lines_read(algebraic, ["    out[:, 0] = _alg_1"]) == \
            algebraic[:2]
        assert _lines_read(algebraic, ["    out[:, :] = 1.0"]) == []


class TestNoisyEnsembleDriver:
    def _factory(self, seed):
        return _ou_system(nsig=0.3, name=f"chip{seed}")

    def test_layout_and_accessors(self):
        result = run_ensemble(self._factory, seeds=[0, 1, 2],
                              t_span=(0.0, 2.0), trials=4,
                              n_points=80)
        assert result.seeds == [0, 1, 2] and result.trials == 4
        assert len(result.batches) == 1
        assert result.batches[0].n_instances == 12
        assert len(result.trajectories) == 12
        np.testing.assert_array_equal(result.trajectory(2, 3).y,
                                      result.batches[0].y[11])
        batch, rows = result.trial_rows(1)
        assert rows == slice(4, 8)

    def test_reference_is_deterministic_run(self):
        result = run_ensemble(self._factory, seeds=[0],
                              t_span=(0.0, 2.0), trials=2,
                              n_points=80)
        reference = result.reference(0)
        rk4 = solve_batch(compile_batch([self._factory(0)]),
                          (0.0, 2.0), n_points=80, method="rk4")
        np.testing.assert_allclose(reference.y, rk4.instance(0).y)

    def test_chip_trial_streams_stable(self):
        """A (chip, trial) realization must not depend on which other
        chips ride in the ensemble."""
        full = run_ensemble(self._factory, seeds=[0, 1, 2],
                            t_span=(0.0, 2.0), trials=3,
                            n_points=80)
        alone = run_ensemble(self._factory, seeds=[2],
                             t_span=(0.0, 2.0), trials=3,
                             n_points=80)
        np.testing.assert_array_equal(
            full.trajectory(2, 1).y, alone.trajectory(0, 1).y)

    def test_trial_base_shifts_realizations(self):
        a = run_ensemble(self._factory, seeds=[0],
                         t_span=(0.0, 2.0), trials=2,
                         n_points=80)
        b = run_ensemble(self._factory, seeds=[0],
                         t_span=(0.0, 2.0), trials=2,
                         n_points=80, noise_seed=2)
        assert not np.array_equal(a.trajectory(0, 0).y,
                                  b.trajectory(0, 0).y)

    def test_no_reference_raises(self):
        result = run_ensemble(self._factory, seeds=[0],
                              t_span=(0.0, 2.0), trials=1,
                              n_points=50, reference=False)
        with pytest.raises(SimulationError):
            result.reference(0)


class TestAnalysisHelpers:
    def test_trial_spread_and_snr(self):
        from repro.analysis import noise_snr, trial_spread

        result = run_ensemble(
            lambda seed: _ou_system(nsig=0.3, name=f"c{seed}"),
            seeds=[0, 1], t_span=(0.0, 2.0), trials=6, n_points=80)
        spread = trial_spread(result, "x", (0.5, 2.0))
        assert spread.shape == (2,)
        assert np.all(spread > 0)
        snr = noise_snr(result, "x", (0.5, 2.0))
        assert np.all(snr > 0)

    def test_bit_error_rate(self):
        from repro.analysis import bit_error_rate

        refs = np.array([[0, 1, 0, 1]])
        trials = np.array([[[0, 1, 0, 1], [1, 1, 0, 1]]])
        assert bit_error_rate(refs, trials) == pytest.approx(1 / 8)
