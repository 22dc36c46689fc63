"""Tests for per-instance step masks (``freeze_tol``): accuracy vs the
unmasked solve, genuine work savings, divergence containment on the SDE
path, and shard bit-identity of masked fixed-step runs."""

import warnings

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.lang import parse_program
from repro.sim import compile_batch, solve_batch, solve_sde

OU_SOURCE = """
lang ou {
    ntyp(1,sum) X {attr tau=real[1e-6,10], attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}
"""


def _ou_system(tau=1.0, nsig=0.0, name="ou", x0=1.0):
    lang = parse_program(OU_SOURCE).languages["ou"]
    g = repro.GraphBuilder(lang, name)
    g.node("x", "X").set_attr("x", "tau", tau)
    g.set_attr("x", "nsig", nsig)
    g.edge("x", "x", "r0", "R").set_init("x", x0)
    return compile_graph(g.finish())


def _decay_batch(taus=(0.05, 0.2)):
    return compile_batch([_ou_system(tau=tau, name=f"c{k}")
                          for k, tau in enumerate(taus)])


class TestMaskedAccuracy:
    """Masked runs must track the full-step solve within a tolerance
    commensurate with freeze_tol x the solver tolerance scale."""

    # rkf45 is solve_batch's retired spelling of dopri5.
    @pytest.mark.parametrize("method", ["rkf45", "rk4"])
    def test_masked_matches_full_within_tolerance(self, method):
        batch = _decay_batch()
        kwargs = dict(n_points=200, method=method)
        full = solve_batch(batch, (0.0, 10.0), **kwargs)
        masked = solve_batch(batch, (0.0, 10.0), freeze_tol=1.0,
                             **kwargs)
        # freeze_tol=1: the frozen tail deviates by at most the
        # solver's own tolerance scale.
        assert np.abs(full.y - masked.y).max() < 1e-6
        assert masked.frozen is not None and masked.frozen.all()
        assert full.frozen is None

    def test_masked_dense_rkf45_matches(self):
        batch = _decay_batch()
        full = solve_batch(batch, (0.0, 10.0), n_points=200,
                           dense=True)
        masked = solve_batch(batch, (0.0, 10.0), n_points=200,
                             dense=True, freeze_tol=1.0)
        assert np.abs(full.y - masked.y).max() < 1e-6

    def test_masked_sde_matches_within_tolerance(self):
        systems = [_ou_system(tau=0.05, nsig=1e-9, name="nf"),
                   _ou_system(tau=0.2, nsig=1e-9, name="ns")]
        batch = compile_batch(systems)
        kwargs = dict(noise_seeds=["a", "b"], n_points=200)
        full = solve_sde(batch, (0.0, 10.0), **kwargs)
        masked = solve_sde(batch, (0.0, 10.0), freeze_tol=1.0,
                           **kwargs)
        assert np.abs(full.y - masked.y).max() < 1e-6
        assert masked.frozen.all()


class TestMaskedSavings:
    def test_rk4_all_frozen_early_exit_saves_evaluations(self):
        batch = _decay_batch()
        full = solve_batch(batch, (0.0, 10.0), n_points=200,
                           method="rk4")
        masked = solve_batch(batch, (0.0, 10.0), n_points=200,
                             method="rk4", freeze_tol=1.0)
        assert masked.nfev < 0.75 * full.nfev

    def test_rkf45_frozen_stiff_instance_stops_limiting_step(self):
        # One stiff-but-settling instance next to a slow one: once the
        # stiff row freezes it leaves error control, so the shared step
        # grows and the masked run spends measurably fewer evals.
        batch = compile_batch([_ou_system(tau=1e-3, name="stiff"),
                               _ou_system(tau=1.0, name="slow")])
        full = solve_batch(batch, (0.0, 5.0), n_points=100)
        masked = solve_batch(batch, (0.0, 5.0), n_points=100,
                             freeze_tol=1e3)
        assert masked.frozen[0]
        assert masked.nfev < full.nfev

    def test_sde_all_frozen_early_exit(self):
        systems = [_ou_system(tau=0.05, nsig=1e-9, name="a"),
                   _ou_system(tau=0.1, nsig=1e-9, name="b")]
        batch = compile_batch(systems)
        full = solve_sde(batch, (0.0, 20.0), noise_seeds=["a", "b"],
                         n_points=400)
        masked = solve_sde(batch, (0.0, 20.0), noise_seeds=["a", "b"],
                           n_points=400, freeze_tol=1e2)
        assert masked.frozen.all()
        assert masked.nfev < 0.6 * full.nfev

    def test_strong_noise_prevents_freezing(self):
        # The SDE criterion must respect diffusion: an instance whose
        # noise still moves it beyond tolerance never freezes, however
        # settled its drift.
        batch = compile_batch([_ou_system(tau=0.05, nsig=0.5,
                                          name="hot")])
        masked = solve_sde(batch, (0.0, 5.0), noise_seeds=["a"],
                           n_points=100, freeze_tol=1.0)
        assert not masked.frozen.any()


class TestDivergenceContainment:
    def test_sde_diverged_instance_freezes_instead_of_failing(self):
        # tau=1e-6 under the default substep makes the explicit heun
        # step violently unstable; without masks the whole batch dies.
        systems = [_ou_system(tau=1e-6, name="boom"),
                   _ou_system(tau=0.5, name="ok")]
        batch = compile_batch(systems)
        kwargs = dict(noise_seeds=["a", "b"], n_points=50,
                      method="heun")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SimulationError, match="non-finite"):
                solve_sde(batch, (0.0, 4.0), **kwargs)
            masked = solve_sde(batch, (0.0, 4.0), freeze_tol=1e-3,
                               **kwargs)
        assert masked.frozen[0] and np.isfinite(masked.y).all()
        # The healthy sibling is untouched: bit-identical to its own
        # solo integration.
        solo = solve_sde(compile_batch([systems[1]]), (0.0, 4.0),
                         noise_seeds=["b"], n_points=50, method="heun")
        np.testing.assert_array_equal(masked.y[1], solo.y[0])

    def test_rkf45_out_of_tolerance_instance_freezes_at_floor(self):
        # A pole at t=0.5 in row 0 only: the error norm stays above
        # tolerance at every shrinking step, so the solver is driven to
        # the step floor — the classic whole-batch underflow death.
        # With masks the offender freezes there and row 1 finishes.
        import repro.sim.batch_solver as bs

        class PoleRhs:
            """Wraps a compiled batch, poisoning row 0 with 1/(0.5-t)."""

            def __init__(self, batch):
                self._batch = batch
                self.y0 = batch.y0
                self.systems = batch.systems
                self.breakpoints = batch.breakpoints

            def __call__(self, t, y, out=None):
                dy = self._batch(t, y, out)
                gap = 0.5 - t
                dy[0] += 1e2 / gap if gap != 0.0 else np.inf
                return dy

        batch = compile_batch([_ou_system(tau=1.0, name="bad"),
                               _ou_system(tau=1.0, name="good")])
        nasty = PoleRhs(batch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(SimulationError, match="underflow"):
                bs._dopri5_batch(nasty, np.linspace(0, 1, 50),
                                 1e-7, 1e-9, 1.0 / 64.0, None)
            out, frozen, *_ = bs._dopri5_batch(
                nasty, np.linspace(0, 1, 50), 1e-7, 1e-9, 1.0 / 64.0,
                1e-2)
        assert frozen[0] and not frozen[1]
        assert np.isfinite(out).all()


class TestMaskedShardIdentity:
    def test_masked_sde_sharded_bit_identical(self, small_pool_groups):
        from repro.paradigms.tln import TLineSpec
        from repro.paradigms.tln.noisy import NoisyTlineFactory
        from repro.sim import run_ensemble

        factory = NoisyTlineFactory(TLineSpec(n_segments=4),
                                    noise=1e-9)
        span = (0.0, 4e-8)
        kwargs = dict(trials=2, n_points=30, freeze_tol=1e2,
                      reference=False)
        unsharded = run_ensemble(factory, range(4), span, **kwargs)
        sharded = run_ensemble(factory, range(4), span, processes=2,
                               **kwargs)
        np.testing.assert_array_equal(unsharded.batches[0].y,
                                      sharded.batches[0].y)


class TestValidation:
    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_freeze_tol_rejected(self, bad):
        batch = _decay_batch()
        with pytest.raises(SimulationError, match="freeze_tol"):
            solve_batch(batch, (0.0, 1.0), freeze_tol=bad)
        with pytest.raises(SimulationError, match="freeze_tol"):
            solve_sde(compile_batch([_ou_system(nsig=0.1)]),
                      (0.0, 1.0), freeze_tol=bad)
