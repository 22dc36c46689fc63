"""Tests for the transient-noise core: the ``noise()`` expression term
(the one way to declare transient noise), the drift/diffusion split,
and the deterministic Wiener streams."""

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.core.noise import stream, stream_seed
from repro.errors import CompileError, ParseError
from repro.lang import parse_program
from repro.lang.unparse import unparse_language

OU_SOURCE = """
lang ou {
    ntyp(1,sum) X {attr tau=real[1e-3,10], attr nsig=real[0,inf]};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau + noise(s.nsig);
    cstr X {acc[match(1,1,R,X)]};
}
"""

ANNOT_SOURCE = """
lang oun {
    ntyp(1,sum) X {attr tau=real[1e-3,10] ns(0.1,rel)};
    etyp R {};
    prod(e:R, s:X->s:X) s <= -var(s)/s.tau;
    cstr X {acc[match(1,1,R,X)]};
}
"""


def _ou_graph(tau=1.0, nsig=0.5, name="ou"):
    lang = parse_program(OU_SOURCE).languages["ou"]
    g = repro.GraphBuilder(lang, name)
    g.node("x", "X").set_attr("x", "tau", tau)
    g.set_attr("x", "nsig", nsig)
    g.edge("x", "x", "r0", "R").set_init("x", 1.0)
    return g.finish()


class TestNoiseAnnotation:
    """The removed ``ns(sigma[,kind])`` datatype annotation fails
    cleanly; an explicit ``noise(...)`` addend replaces it (see
    ``TestDriftDiffusionSplit.test_annotation_diffusion``)."""

    def test_real_constructor_forms(self):
        for build in (repro.real, repro.integer):
            for ns in (0.2, (0.2, "abs"), (0.3, "rel")):
                with pytest.raises(TypeError, match="ns"):
                    build(0, 1, ns=ns)

    def test_parse_unparse_language(self):
        with pytest.raises(ParseError, match="unexpected 'ns'") as info:
            parse_program(ANNOT_SOURCE)
        line = ANNOT_SOURCE.splitlines().index(next(
            text for text in ANNOT_SOURCE.splitlines() if "ns(" in text))
        column = ANNOT_SOURCE.splitlines()[line].index("ns(") + 1
        assert (info.value.line, info.value.column) == (line + 1, column)
        source = ANNOT_SOURCE.replace(" ns(0.1,rel)", "")
        lang = parse_program(source).languages["oun"]
        decl = lang.find_node_type("X").attrs["tau"]
        reparsed = parse_program(unparse_language(lang)).languages["oun"]
        assert reparsed.find_node_type("X").attrs["tau"].datatype \
            == decl.datatype


class TestDriftDiffusionSplit:
    def test_noise_term_moves_to_diffusion(self):
        system = compile_graph(_ou_graph())
        assert system.has_noise
        assert len(system.diffusion) == 1
        term = system.diffusion[0]
        assert term.element == "r0"
        assert term.state_index == 0
        # The drift is the pure decay: f(1) = -1/tau.
        assert system.rhs()(0.0, np.array([1.0]))[0] == \
            pytest.approx(-1.0)
        # The diffusion amplitude is the nsig attribute.
        assert system.diffusion_values(0.0, np.array([1.0]))[0] == \
            pytest.approx(0.5)

    def test_noiseless_twin_matches_drift(self):
        noisy = compile_graph(_ou_graph(nsig=0.5))
        silent = compile_graph(_ou_graph(nsig=0.0, name="ou0"))
        y = np.array([0.7])
        assert noisy.rhs()(0.0, y) == pytest.approx(silent.rhs()(0.0, y))

    def test_zero_sigma_keeps_diffusion_spec(self):
        # The split is structural; a zero amplitude only folds away in
        # the batched codegen (shared-value simplification).
        system = compile_graph(_ou_graph(nsig=0.0))
        assert system.has_noise

    def test_annotation_diffusion(self):
        """An ``ns(0.1,rel)`` annotation on ``tau`` in ``T = -var(s)/
        s.tau`` migrates to the addend ``noise(0.1*T)``: the same
        diffusion amplitude ``T * 0.1``."""
        source = ANNOT_SOURCE.replace(" ns(0.1,rel)", "").replace(
            "s <= -var(s)/s.tau;",
            "s <= -var(s)/s.tau + noise(0.1*(-var(s)/s.tau));")
        lang = parse_program(source).languages["oun"]
        g = repro.GraphBuilder(lang, "oun1")
        g.node("x", "X").set_attr("x", "tau", 2.0)
        g.edge("x", "x", "r0", "R").set_init("x", 1.0)
        system = compile_graph(g.finish())
        assert system.has_noise
        term, = system.diffusion
        assert (term.element, term.path) == ("r0", "w0")
        # b(y) = (-y/tau) * 0.1 -> at y=4, tau=2: -0.2
        assert system.diffusion_values(0.0, np.array([4.0]))[0] == \
            pytest.approx(-0.2)
        # The drift keeps the decay: f(4) = -4/2.
        assert system.rhs()(0.0, np.array([4.0]))[0] == \
            pytest.approx(-2.0)

    def test_signature_distinguishes_noise(self):
        noisy = compile_graph(_ou_graph())
        lang = parse_program(OU_SOURCE.replace(
            " + noise(s.nsig)", "")).languages["ou"]
        g = repro.GraphBuilder(lang, "det")
        g.node("x", "X").set_attr("x", "tau", 1.0)
        g.set_attr("x", "nsig", 0.5)
        g.edge("x", "x", "r0", "R").set_init("x", 1.0)
        silent = compile_graph(g.finish())
        assert noisy.structural_signature() != \
            silent.structural_signature()

    def test_signature_shared_across_values(self):
        a = compile_graph(_ou_graph(tau=1.0, nsig=0.1))
        b = compile_graph(_ou_graph(tau=2.0, nsig=0.9, name="ou2"))
        assert a.structural_signature() == b.structural_signature()

    def test_equations_render_diffusion(self):
        lines = compile_graph(_ou_graph()).equations()
        assert any("dW[r0/w0]" in line for line in lines)

    def test_noise_on_mul_node_rejected(self):
        src = OU_SOURCE.replace("ntyp(1,sum) X", "ntyp(1,mul) X")
        lang = parse_program(src).languages["ou"]
        g = repro.GraphBuilder(lang, "mul")
        g.node("x", "X").set_attr("x", "tau", 1.0)
        g.set_attr("x", "nsig", 0.5)
        g.edge("x", "x", "r0", "R").set_init("x", 1.0)
        with pytest.raises(CompileError):
            compile_graph(g.finish())

    def test_noise_on_algebraic_node_rejected(self):
        src = """
        lang alg {
            ntyp(1,sum) X {};
            ntyp(0,sum) A {attr nsig=real[0,inf]};
            etyp R {};
            prod(e:R, s:X->t:A) t <= var(s) + noise(t.nsig);
            prod(e:R, s:X->s:X) s <= -var(s);
        }
        """
        lang = parse_program(src).languages["alg"]
        g = repro.GraphBuilder(lang, "alg1")
        g.node("x", "X").set_init("x", 1.0)
        g.node("a", "A").set_attr("a", "nsig", 0.1)
        g.edge("x", "x", "rs", "R")
        g.edge("x", "a", "ra", "R")
        with pytest.raises(CompileError):
            compile_graph(g.finish())

    def test_noise_arity_checked(self):
        src = OU_SOURCE.replace("noise(s.nsig)", "noise(s.nsig, 2)")
        lang = parse_program(src).languages["ou"]
        g = repro.GraphBuilder(lang, "arity")
        g.node("x", "X").set_attr("x", "tau", 1.0)
        g.set_attr("x", "nsig", 0.5)
        g.edge("x", "x", "r0", "R").set_init("x", 1.0)
        with pytest.raises(CompileError):
            compile_graph(g.finish())


class TestWienerStreams:
    def test_deterministic(self):
        a = stream(7, "E_3", "w0").standard_normal(8)
        b = stream(7, "E_3", "w0").standard_normal(8)
        assert np.array_equal(a, b)

    def test_independent_across_triples(self):
        base = stream_seed(7, "E_3", "w0")
        assert base != stream_seed(8, "E_3", "w0")
        assert base != stream_seed(7, "E_4", "w0")
        assert base != stream_seed(7, "E_3", "w1")

    def test_matches_mismatch_hash_scheme(self):
        # mismatch.py routes through the same helper, so §4.3 samples
        # are unchanged by the refactor.
        from repro.core.mismatch import MismatchSite, draw

        value, = draw(3, [MismatchSite("el", "a", 1.0, 0.1)])
        expected = float(stream(3, "el", "a").normal(1.0, 0.1))
        assert value == pytest.approx(expected)


class TestBulkSeeding:
    """``seed_words``/``streams`` reproduce numpy's own per-seed
    seeding bit for bit: one vectorized pass, the same generators."""

    EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]

    @classmethod
    def _seeds(cls):
        rng = np.random.default_rng(2024)
        drawn = rng.integers(0, 2**64 - 1, size=200, dtype=np.uint64,
                             endpoint=True)
        return cls.EDGE_SEEDS + [int(seed) for seed in drawn]

    def test_seed_words_match_seed_sequence(self):
        from repro.core.noise import seed_words

        seeds = self._seeds()
        words = seed_words(seeds)
        assert words.shape == (len(seeds), 4)
        assert words.dtype == np.uint64
        for seed, row in zip(seeds, words):
            expected = np.random.SeedSequence(seed).generate_state(
                4, np.uint64)
            assert np.array_equal(row, expected), seed

    def test_bit_generators_match_pcg64_state(self):
        from repro.core.noise import bit_generators

        seeds = self._seeds()
        for seed, bits in zip(seeds, bit_generators(seeds)):
            assert bits.state == np.random.PCG64(seed).state, seed

    def test_streams_match_per_triple_generators(self):
        from repro.core.noise import streams

        keys = [("5:3", "E_1", "w0"), (7, "x", "tau"), (-3, "y", "init0"),
                ("0:31", "$shared", "supply"), (None, "n", "a")]
        for key, generator in zip(keys, streams(keys)):
            reference = np.random.Generator(
                np.random.PCG64(stream_seed(*key)))
            assert generator.bit_generator.state == \
                reference.bit_generator.state
            assert np.array_equal(generator.standard_normal(16),
                                  reference.standard_normal(16))

    def test_stream_seeds_match_per_triple_seeds(self):
        from repro.core.noise import stream_seeds

        seed = 2**40
        keys = [(seed, "E_1", "ws"), (seed, "E_1", "wt"), (1, "a", "b"),
                (True, "a", "b"), (1.0, "a", "b"), ("1", "a", "b"),
                (True, "x", "y"), (None, "n", "a"), (seed, "E_2", "ws")]
        assert stream_seeds(keys) == [stream_seed(*key) for key in keys]
        assert stream_seeds([]) == []

    def test_stream_is_a_batch_of_one(self):
        from repro.core.noise import streams

        (batched,) = streams([("5:3", "E_1", "w0")])
        single = stream("5:3", "E_1", "w0")
        assert np.array_equal(batched.standard_normal(8),
                              single.standard_normal(8))

    def test_bridge_bits_match_pcg64(self):
        from repro.core.noise import bridge_bits, bridge_seed

        for level in (0, 1, 7):
            bits = bridge_bits("2:5", "E_4", "w0", level)
            reference = np.random.PCG64(bridge_seed("2:5", "E_4", "w0",
                                                    level))
            assert bits.state == reference.state
            bits.advance(1000)
            reference.advance(1000)
            assert bits.random_raw() == reference.random_raw()

    def test_empty_and_out_of_range(self):
        from repro.core.noise import seed_words, streams

        assert seed_words([]).shape == (0, 4)
        assert streams([]) == []
        with pytest.raises(OverflowError):
            seed_words([-1])
        with pytest.raises(OverflowError):
            seed_words([2**64])

    def test_words_serve_pcg64_only(self):
        from repro.core.noise import bit_generators

        seed_seq = bit_generators([5])[0].seed_seq
        with pytest.raises(NotImplementedError):
            seed_seq.generate_state(8, np.uint32)
