"""Tests for the adaptive SDE stack: Brownian-bridge Wiener
refinement, the embedded-pair controller, Milstein correction,
correlated (aliased) noise sources, and the freeze-mask/noise
interplay."""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.core.noise import SHARED_ELEMENT, share_wiener
from repro.errors import GraphError, SimulationError
from repro.lang import parse_program
from repro.sim import compile_batch, even_parts, run_ensemble, solve_sde
from repro.sim.sde_solver import (BridgeWienerSource,
                                  _scatter, _ScatterAccumulator)
from repro.telemetry import RunReport, collect_metrics

OU_SOURCE = """
lang ou {
    ntyp(1,sum) X {attr tau=real[1e-3,10], attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}
"""

PAIR_SOURCE = """
lang oupair {
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


def _ou_pair(tau=1.0, nsig=0.5, x0=1.0, name="pair"):
    """Two identical, uncoupled OU cells — two independent noise
    sources until share_wiener aliases them."""
    lang = parse_program(PAIR_SOURCE).languages["oupair"]
    g = repro.GraphBuilder(lang, name)
    for node in ("a", "b"):
        g.node(node, "X").set_attr(node, "tau", tau)
        g.set_attr(node, "nsig", nsig)
        g.edge(node, node, f"r_{node}", "R").set_init(node, x0)
    return compile_graph(g.finish())


class TestBridgeWienerSource:
    PATHS = [("e0", "w0"), ("e1", "w0")]

    def test_telescoping(self):
        """A parent increment equals the sum of its children, at every
        level — the defining Brownian-bridge consistency property."""
        source = BridgeWienerSource([0, 1], self.PATHS,
                                    [0.0, 0.5, 1.0])
        total = source.increment(0, 0, 0)
        for level in range(1, 6):
            parts = sum(source.increment(0, level, j)
                        for j in range(1 << level))
            np.testing.assert_allclose(parts, total, atol=1e-12)

    def test_visit_order_invariant(self):
        """The realized path is a function of (interval, level, index)
        only — not of which increments were requested before."""
        a = BridgeWienerSource([0], self.PATHS, [0.0, 1.0])
        b = BridgeWienerSource([0], self.PATHS, [0.0, 1.0])
        fine_first = [a.increment(0, 3, j) for j in range(8)]
        b.increment(0, 0, 0)
        b.increment(0, 1, 1)
        b.increment(0, 2, 0)
        coarse_first = [b.increment(0, 3, j) for j in range(8)]
        for left, right in zip(fine_first, coarse_first):
            assert np.array_equal(left, right)

    def test_interval_revisit_reproduces(self):
        """Random access via PCG64.advance: re-requesting an earlier
        interval regenerates the identical increments even though the
        memo was dropped in between."""
        source = BridgeWienerSource([0, 1], self.PATHS,
                                    [0.0, 1.0, 2.0, 3.0])
        first = source.increment(0, 2, 1).copy()
        source.increment(2, 2, 3)
        again = source.increment(0, 2, 1)
        assert np.array_equal(first, again)

    def test_distinct_keys_differ(self):
        base = BridgeWienerSource([0], self.PATHS, [0.0, 1.0])
        other_seed = BridgeWienerSource([1], self.PATHS, [0.0, 1.0])
        draw = base.increment(0, 0, 0)
        assert not np.array_equal(draw, other_seed.increment(0, 0, 0))
        # The two paths of one instance are independent streams too.
        assert draw[0, 0] != draw[0, 1]

    def test_levels_are_independent_streams(self):
        source = BridgeWienerSource([0], self.PATHS, [0.0, 1.0])
        z0 = source._normals(0, 0)
        z1 = source._normals(1, 0)
        assert not np.array_equal(z0, z1)

    def test_interval_out_of_range(self):
        source = BridgeWienerSource([0], self.PATHS, [0.0, 1.0])
        with pytest.raises(SimulationError, match="interval"):
            source.increment(1, 0, 0)

    def test_degenerate_grid_rejected(self):
        with pytest.raises(SimulationError, match="grid"):
            BridgeWienerSource([0], self.PATHS, [0.0])

    def test_no_paths_short_circuits(self):
        source = BridgeWienerSource([0, 1, 2], [], [0.0, 1.0])
        assert source.increment(0, 4, 7).shape == (3, 0)


def _uniform_bridge(batch, t_span, seeds, level, n_points):
    """Fixed-level stepping on the bridge lattice: the adaptive
    machinery with the error test disabled and max_step pinning the
    dyadic floor — pathwise comparable to any adaptive run on the
    same grid."""
    dt = (t_span[1] - t_span[0]) / (n_points - 1)
    return solve_sde(batch, t_span, noise_seeds=seeds,
                     n_points=n_points, method="heun-adaptive",
                     rtol=1e9, atol=1e9, max_step=dt / 2 ** level)


class TestAdaptiveController:
    def test_zero_noise_matches_rk4(self):
        batch = compile_batch([_ou_system(nsig=0.0)])
        sde = solve_sde(batch, (0.0, 5.0), n_points=200,
                        method="heun-adaptive", rtol=1e-8, atol=1e-10)
        rk4 = repro.sim.solve_batch(batch, (0.0, 5.0), n_points=200,
                                    method="rk4")
        np.testing.assert_allclose(sde.y, rk4.y, atol=2e-6)

    def test_tracks_fine_uniform_reference(self):
        """Pathwise accuracy: the adaptive run converges to the same
        realized trajectory as a much finer uniform solve of the same
        bridge path."""
        batch = compile_batch([_ou_system(nsig=0.3)])
        span, points = (0.0, 2.0), 41
        reference = _uniform_bridge(batch, span, [7], 8, points)
        adaptive = solve_sde(batch, span, noise_seeds=[7],
                             n_points=points, method="heun-adaptive",
                             rtol=1e-6, atol=1e-9)
        rms = float(np.sqrt(np.mean((adaptive.y - reference.y) ** 2)))
        assert rms < 5e-4
        coarse = _uniform_bridge(batch, span, [7], 0, points)
        coarse_rms = float(np.sqrt(np.mean(
            (coarse.y - reference.y) ** 2)))
        assert rms < coarse_rms

    def test_rerun_bitwise_identical(self):
        batch = compile_batch([_ou_system(nsig=0.4)])
        kwargs = dict(noise_seeds=[3], n_points=33,
                      method="heun-adaptive", rtol=1e-4, atol=1e-7)
        first = solve_sde(batch, (0.0, 1.0), **kwargs)
        second = solve_sde(batch, (0.0, 1.0), **kwargs)
        assert np.array_equal(first.y, second.y)

    def test_telemetry_counters(self):
        batch = compile_batch([_ou_system(nsig=0.4)])
        report = RunReport()
        with collect_metrics(into=report):
            solve_sde(batch, (0.0, 1.0), noise_seeds=[0], n_points=17,
                      method="heun-adaptive", rtol=1e-4, atol=1e-7)
        assert report.counter("solver.steps_accepted") >= 16
        assert report.counter("sde.scatter_allocs") == 2

    def test_fixed_step_ignores_tolerances(self):
        """The fixed-step contract: rtol/atol must not perturb heun
        results (they only feed the freeze criterion)."""
        batch = compile_batch([_ou_system(nsig=0.4)])
        loose = solve_sde(batch, (0.0, 1.0), noise_seeds=[0],
                          n_points=33, method="heun",
                          rtol=1e-2, atol=1e-3)
        tight = solve_sde(batch, (0.0, 1.0), noise_seeds=[0],
                          n_points=33, method="heun",
                          rtol=1e-10, atol=1e-12)
        assert np.array_equal(loose.y, tight.y)

    def test_max_step_bounds_coarsest_level(self):
        """With a max_step below the grid spacing, even a loose-
        tolerance adaptive run must take >= 2**level_min substeps per
        interval (visible through nfev)."""
        batch = compile_batch([_ou_system(nsig=0.1)])
        points = 9
        capped = _uniform_bridge(batch, (0.0, 1.0), [0], 3, points)
        free = _uniform_bridge(batch, (0.0, 1.0), [0], 0, points)
        assert capped.nfev >= free.nfev * 8


class TestFreezeNoiseInterplay:
    def test_live_noise_blocks_freezing(self):
        """An instance whose drift has settled but whose diffusion can
        still move it beyond tolerance must NOT freeze (the wiggle
        guard) — under both the fixed and the adaptive solvers."""
        system = _ou_system(tau=0.05, nsig=0.5, x0=0.0)
        batch = compile_batch([system])
        for method in ("heun", "heun-adaptive"):
            run = solve_sde(batch, (0.0, 2.0), noise_seeds=[0],
                            n_points=65, method=method,
                            freeze_tol=10.0, rtol=1e-4, atol=1e-6)
            assert not run.frozen.any()

    def test_noise_free_sibling_freezes(self):
        """Same drift, nsig=0: without the noise floor the settled
        instance freezes — the guard is the only thing that kept the
        noisy twin live."""
        system = _ou_system(tau=0.05, nsig=0.0, x0=0.0)
        batch = compile_batch([system])
        run = solve_sde(batch, (0.0, 2.0), noise_seeds=[0],
                        n_points=65, method="heun",
                        freeze_tol=10.0, rtol=1e-4, atol=1e-6)
        assert run.frozen.all()

    def test_frozen_rows_pinned_under_adaptive(self):
        """Mixed batch: the noise-free fast-settling row freezes and
        then holds constant while its noisy sibling keeps moving."""
        quiet = _ou_system(tau=0.05, nsig=0.0, x0=1.0)
        noisy = _ou_system(tau=1.0, nsig=0.5, x0=1.0)
        batch = compile_batch([quiet, noisy])
        run = solve_sde(batch, (0.0, 4.0), noise_seeds=[0, 1],
                        n_points=65, method="heun-adaptive",
                        freeze_tol=10.0, rtol=1e-4, atol=1e-6)
        assert bool(run.frozen[0]) and not bool(run.frozen[1])
        assert run.y[0, 0, -1] == run.y[0, 0, -2]
        assert run.y[1, 0, -1] != run.y[1, 0, -2]


class TestScatterAccumulator:
    def test_bitwise_equal_to_fresh_zeros(self):
        rng = np.random.default_rng(0)
        state_index = np.array([0, 2, 2, 1])
        acc = _ScatterAccumulator(state_index, 3, 5, np.float64)
        first_in = rng.normal(size=(5, 4))
        second_in = rng.normal(size=(5, 4))
        first = acc(first_in)
        second = acc(second_in)  # rotates; `first` must stay intact
        assert np.array_equal(first,
                              _scatter(first_in, state_index, 3))
        assert np.array_equal(second,
                              _scatter(second_in, state_index, 3))
        assert acc.allocs == 2
        acc(first_in)
        assert acc.allocs == 2  # buffers are reused from call 3 on

    @staticmethod
    def _add_at(contrib, state_index, n_states):
        acc = np.zeros((n_states, contrib.shape[0]), dtype=contrib.dtype)
        np.add.at(acc, state_index, contrib.T)
        return acc.T

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_duplicate_targets_match_add_at_bytes(self, dtype):
        """Layered fancy-index adds replay np.add.at's per-state order:
        same bytes with repeated targets, signed zeros and cancellation."""
        state_index = np.array([2, 0, 2, 1, 2])
        rng = np.random.default_rng(7)
        contrib = (rng.normal(size=(6, 5)) * 10.0 ** rng.integers(
            -8, 8, size=(6, 5))).astype(dtype)
        contrib[0] = -0.0
        contrib[1, [0, 2]] = [1e16, -1e16]
        contrib[2, 4] = -0.0
        expected = self._add_at(contrib, state_index, 4)
        got = _scatter(contrib, state_index, 4)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
        acc = _ScatterAccumulator(state_index, 4, 6, dtype)
        acc(rng.normal(size=(6, 5)).astype(dtype))
        acc(rng.normal(size=(6, 5)).astype(dtype))
        assert acc(contrib).tobytes() == expected.tobytes()
        assert np.signbit(got[0]).sum() == 0  # 0.0 + -0.0 is +0.0

    def test_no_terms_scatter_zeros(self):
        got = _scatter(np.zeros((3, 0)), np.array([], dtype=int), 2)
        assert np.array_equal(got, np.zeros((3, 2)))

    def test_solve_allocates_exactly_two_buffers(self):
        batch = compile_batch([_ou_system(nsig=0.5)])
        report = RunReport()
        with collect_metrics(into=report):
            solve_sde(batch, (0.0, 1.0), noise_seeds=[0], n_points=33,
                      method="heun")
        assert report.counter("sde.scatter_allocs") == 2

    def test_noise_free_solve_allocates_none(self):
        batch = compile_batch([_ou_system(nsig=0.0)])
        report = RunReport()
        with collect_metrics(into=report):
            solve_sde(batch, (0.0, 1.0), noise_seeds=[0], n_points=33,
                      method="heun")
        assert report.counter("sde.scatter_allocs") == 0


class TestShareWiener:
    def test_aliased_cells_see_identical_noise(self):
        """Two identical OU cells: independent sources decorrelate
        them, one shared source makes their trajectories literally
        equal (same drift, same realized increments)."""
        plain = _ou_pair(nsig=0.5)
        shared = share_wiener(plain, "supply")
        independent = solve_sde(compile_batch([plain]), (0.0, 1.0),
                                noise_seeds=[0], n_points=33)
        common = solve_sde(compile_batch([shared]), (0.0, 1.0),
                          noise_seeds=[0], n_points=33)
        assert np.array_equal(common.y[0, 0], common.y[0, 1])
        assert not np.array_equal(independent.y[0, 0],
                                  independent.y[0, 1])

    def test_rekeying_lands_in_signature(self):
        plain = _ou_pair()
        shared = share_wiener(plain, "supply")
        assert {(term.element, term.path) for term in shared.diffusion} \
            == {(SHARED_ELEMENT, "supply")}
        assert shared.structural_signature() != \
            plain.structural_signature()

    def test_match_prefix_and_predicate(self):
        plain = _ou_pair()
        prefixed = share_wiener(plain, "vdd", match="r_a")
        keys = {(term.element, term.path)
                for term in prefixed.diffusion}
        assert (SHARED_ELEMENT, "vdd") in keys
        assert len(keys) == 2  # the r_b term kept its own identity
        predicated = share_wiener(
            plain, "vdd", match=lambda term: True)
        assert {(term.element, term.path)
                for term in predicated.diffusion} \
            == {(SHARED_ELEMENT, "vdd")}

    def test_distinct_labels_stay_independent(self):
        plain = _ou_pair(nsig=0.5)
        split = share_wiener(share_wiener(plain, "a", match="r_a"),
                             "b", match="r_b")
        run = solve_sde(compile_batch([split]), (0.0, 1.0),
                        noise_seeds=[0], n_points=33)
        assert not np.array_equal(run.y[0, 0], run.y[0, 1])

    def test_graph_rejected(self):
        lang = parse_program(OU_SOURCE).languages["ou"]
        g = repro.GraphBuilder(lang, "raw")
        g.node("x", "X").set_attr("x", "tau", 1.0)
        g.set_attr("x", "nsig", 0.1)
        g.edge("x", "x", "r0", "R").set_init("x", 1.0)
        with pytest.raises(TypeError, match="compile"):
            share_wiener(g.finish(), "supply")


class TestPufSharedSupply:
    def test_requires_noise(self):
        from repro.paradigms.tln import TLineSpec
        from repro.puf import PufDesign

        with pytest.raises(GraphError, match="noise > 0"):
            PufDesign(spec=TLineSpec(n_segments=6),
                      branch_positions=(2,), branch_lengths=(3,),
                      shared_supply=True)

    def test_factory_aliases_all_terms(self):
        from repro.core.odesystem import OdeSystem
        from repro.paradigms.tln import TLineSpec
        from repro.puf import PufDesign
        from repro.puf.response import ChipFactory

        design = PufDesign(spec=TLineSpec(n_segments=6),
                           branch_positions=(2,), branch_lengths=(3,),
                           noise=1e-8, shared_supply=True)
        system = ChipFactory(design, 1)(seed=0)
        assert isinstance(system, OdeSystem)
        assert {(term.element, term.path)
                for term in system.diffusion} \
            == {(SHARED_ELEMENT, "supply")}


    def test_factory_signature_matches_a_fresh_one(self):
        # The aliased chip's signature is derived from its source
        # system's, not recomputed; it must equal the one recomputed
        # from the expression trees, and still differ from the
        # independent build's.
        from dataclasses import replace

        from repro.core.odesystem import symbolic_signature
        from repro.paradigms.tln import TLineSpec
        from repro.puf import PufDesign
        from repro.puf.response import ChipFactory

        design = PufDesign(spec=TLineSpec(n_segments=6),
                           branch_positions=(2,), branch_lengths=(3,),
                           noise=1e-8, shared_supply=True)
        independent = ChipFactory(replace(design, shared_supply=False), 1)
        for seed in (0, 1, 2):
            system = ChipFactory(design, 1)(seed)
            signature = system.structural_signature()
            assert signature[:4] + signature[5:] == symbolic_signature(
                system.states, system.rhs_specs, system.algebraic,
                system.attr_values, system.diffusion)
            assert signature != compile_graph(
                independent(seed)).structural_signature()


class _AdaptiveOuFactory:
    """Picklable factory for the ensemble-driver tests."""

    def __call__(self, seed):
        return _ou_system(nsig=0.4, name="ou-ens")


class TestAdaptiveEnsemble:
    def test_run_ensemble_adaptive_deterministic(self):
        factory = _AdaptiveOuFactory()
        kwargs = dict(n_points=17, trials=2,
                      sde_method="heun-adaptive",
                      rtol=1e-4, atol=1e-7, reference=False)
        first = run_ensemble(factory, [0, 1], (0.0, 1.0), **kwargs)
        second = run_ensemble(factory, [0, 1], (0.0, 1.0), **kwargs)
        assert np.array_equal(first.batches[0].y,
                              second.batches[0].y)

    def test_sharded_adaptive_reproducible(self, small_pool_groups):
        """The pool splits every group into the canonical even
        shards, so a pooled adaptive run is reproducible run-to-run and
        equals in-process solves over the even slices."""
        factory = _AdaptiveOuFactory()
        kwargs = dict(n_points=17, trials=2,
                      sde_method="heun-adaptive",
                      rtol=1e-4, atol=1e-7, reference=False,
                      processes=2)
        first = run_ensemble(factory, [0, 1], (0.0, 1.0), **kwargs)
        second = run_ensemble(factory, [0, 1], (0.0, 1.0), **kwargs)
        assert np.array_equal(first.batches[0].y,
                              second.batches[0].y)
        tokens = ["0:0", "0:1", "1:0", "1:1"]
        slices = [solve_sde([factory(0)] * len(part), (0.0, 1.0),
                            noise_seeds=[tokens[r] for r in part],
                            n_points=17, method="heun-adaptive",
                            rtol=1e-4, atol=1e-7).y
                  for part in even_parts(len(tokens), 2)]
        assert np.array_equal(np.concatenate(slices),
                              first.batches[0].y)
