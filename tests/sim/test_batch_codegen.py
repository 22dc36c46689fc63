"""Unit tests for the batched RHS code generator."""

import copy

import numpy as np
import pytest

import repro
from repro.core.compiler import compile_graph
from repro.errors import SimulationError
from repro.sim import compile_batch, generate_batch_source, \
    group_by_signature
from repro.sim.batch_codegen import _AutoVector, _PerInstanceFn
from repro.telemetry import collect_metrics


def _mismatch_language():
    lang = repro.Language("mm")
    lang.node_type("X", order=1,
                   attrs=[("tau", repro.real(0.5, 2.0, mm=(0.0, 0.1))),
                          ("gain", repro.real(-5.0, 5.0))])
    lang.edge_type("S")
    lang.prod("prod(e:S,s:X->s:X) s <= -s.gain*var(s)/s.tau")
    return lang


def _instance(lang, seed, gain=1.0, init=1.0):
    builder = repro.GraphBuilder(lang, f"inst", seed=seed)
    builder.node("x", "X").set_attr("x", "tau", 1.0)
    builder.set_attr("x", "gain", gain)
    builder.edge("x", "x", "e", "S")
    builder.set_init("x", init)
    return compile_graph(builder.finish())


class TestStructuralSignature:
    def test_mismatch_seeds_share_signature(self):
        lang = _mismatch_language()
        signatures = {_instance(lang, seed).structural_signature()
                      for seed in range(4)}
        assert len(signatures) == 1

    def test_different_topology_differs(self, leaky_language):
        def build(coupled):
            builder = repro.GraphBuilder(leaky_language, "sig")
            builder.node("a", "X").set_attr("a", "tau", 1.0)
            builder.node("b", "X").set_attr("b", "tau", 1.0)
            builder.edge("a", "a", "la", "W")
            builder.set_attr("la", "w", 0.0)
            builder.edge("b", "b", "lb", "W")
            builder.set_attr("lb", "w", 0.0)
            if coupled:
                builder.edge("a", "b", "c", "W")
                builder.set_attr("c", "w", 1.0)
            builder.set_init("a", 1.0)
            return compile_graph(builder.finish())

        assert build(True).structural_signature() != \
            build(False).structural_signature()

    def test_group_by_signature_preserves_order(self):
        lang = _mismatch_language()
        systems = [_instance(lang, seed) for seed in range(3)]
        assert group_by_signature(systems) == [[0, 1, 2]]


class TestSourceGeneration:
    def test_shared_attributes_inline_per_instance_become_arrays(self):
        lang = _mismatch_language()
        # tau is mismatched (per-instance), gain is shared.
        systems = [_instance(lang, seed, gain=2.0) for seed in range(3)]
        namespace = {"_np": np}
        source = generate_batch_source(systems, namespace)
        assert "y[:, 0]" in source
        assert "2.0" in source              # shared gain inlined
        arrays = [v for k, v in namespace.items()
                  if k.startswith("_attr_")]
        assert len(arrays) == 1             # only tau is stacked
        assert arrays[0].shape == (3,)

    def test_incompatible_batch_raises(self, leaky_language):
        lang = _mismatch_language()
        a = _instance(lang, 0)
        builder = repro.GraphBuilder(leaky_language, "other")
        builder.node("x", "X").set_attr("x", "tau", 1.0)
        builder.edge("x", "x", "e", "W")
        builder.set_attr("e", "w", 0.0)
        builder.set_init("x", 1.0)
        b = compile_graph(builder.finish())
        with pytest.raises(SimulationError, match="compatible"):
            compile_batch([a, b])

    def test_empty_batch_raises(self):
        with pytest.raises(SimulationError):
            compile_batch([])


class TestBatchEvaluation:
    def test_matches_serial_rhs_rows(self):
        lang = _mismatch_language()
        systems = [_instance(lang, seed) for seed in range(5)]
        batch = compile_batch(systems)
        rng = np.random.default_rng(7)
        y = rng.normal(size=(5, 1))
        dy = batch(0.0, y)
        for row, system in enumerate(systems):
            expected = system.rhs("codegen")(0.0, y[row])
            np.testing.assert_allclose(dy[row], expected, rtol=1e-12)

    def test_y0_stacks_initial_states(self):
        lang = _mismatch_language()
        systems = [_instance(lang, seed, init=float(seed))
                   for seed in range(3)]
        batch = compile_batch(systems)
        np.testing.assert_allclose(batch.y0[:, 0], [0.0, 1.0, 2.0])

    def test_algebraic_values_broadcast(self):
        lang = repro.Language("alg")
        lang.node_type("X", order=1)
        lang.node_type("F", order=0)
        lang.edge_type("W", attrs=[("w", repro.real(-5, 5,
                                                    mm=(0.0, 0.2)))])
        lang.prod("prod(e:W,s:X->s:X) s <= -var(s)")
        lang.prod("prod(e:W,s:X->t:F) t <= e.w*var(s)")

        def instance(seed):
            builder = repro.GraphBuilder(lang, "alg", seed=seed)
            builder.node("x", "X").node("f", "F")
            builder.edge("x", "x", "s", "W").set_attr("s", "w", 0.0)
            builder.edge("x", "f", "e", "W").set_attr("e", "w", 2.0)
            builder.set_init("x", 1.0)
            return compile_graph(builder.finish())

        systems = [instance(seed) for seed in range(4)]
        batch = compile_batch(systems)
        y = np.ones((4, 1))
        values = batch.algebraic_values(0.0, y)["f"]
        assert values.shape == (4,)
        for row, system in enumerate(systems):
            expected = system.algebraic_values(0.0, y[row])["f"]
            assert values[row] == pytest.approx(expected)


class TestOneRowLayout:
    """One system compiles to the one-row layout; a batch, even of one,
    to rows."""

    @staticmethod
    def _networks():
        from repro.paradigms.cnn import default_image, edge_detector
        from repro.paradigms.obc import maxcut_network

        return [edge_detector(default_image(8)),
                maxcut_network([(0, 1), (1, 2), (2, 3), (3, 0)], 4)]

    def test_scalar_python_without_array_wrappers(self):
        # The rows layout evaluated at n=1 is ~10x slower on these
        # small nonlinear networks (ufunc dispatch, elementwise
        # wrappers); the one-row kernel must stay plain Python.
        for graph in self._networks():
            system = compile_graph(graph)
            namespace = {}
            source = generate_batch_source(system, namespace)
            assert "_np." not in source
            assert "_AutoVector" not in source
            assert "y[:, " not in source and "y[0]" in source
            assert not any(isinstance(value, _AutoVector)
                           for value in namespace.values())
            assert "y[:, " in compile_batch([system]).source

    def test_fused_kernel_is_a_matrix_vector_product(self):
        lang = repro.Language("chain")
        lang.node_type("X", order=1, attrs=[("g", repro.real(0, 5))])
        lang.edge_type("W")
        lang.prod("prod(e:W,s:X->s:X) s <= -s.g*var(s)")
        lang.prod("prod(e:W,s:X->t:X) t <= var(s)")
        builder = repro.GraphBuilder(lang, "chain")
        for k in range(3):
            builder.node(f"x{k}", "X").set_attr(f"x{k}", "g", k + 1.0)
            builder.edge(f"x{k}", f"x{k}", f"s{k}", "W")
        builder.edge("x0", "x1", "c", "W")
        system = compile_graph(builder.finish())
        namespace = {}
        source = generate_batch_source(system, namespace)
        assert "_acc = _lin_val0 * y[_lin_col0]" in source
        assert "@" not in source
        # x1 reads x0 and itself, so it leads the line order; x0 and x2
        # read only themselves.
        assert namespace["_lin_line"].tolist() == [1, 0, 2]
        assert namespace["_lin_col0"].tolist() == [0, 0, 2]
        assert namespace["_lin_col1"].tolist() == [1]
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(system.rhs("codegen")(0.0, y),
                                   [-1.0, -3.0, -9.0])

    def test_compiles_outside_the_kernel_cache(self):
        from repro.sim.batch_codegen import _CODE_CACHE

        systems = [compile_graph(graph) for graph in self._networks()]
        cached = len(_CODE_CACHE)
        with collect_metrics() as report:
            for system in systems:
                system.rhs("codegen")
        assert len(_CODE_CACHE) == cached
        assert report.counter("codegen.kernel_cache_hits") == 0
        assert report.counter("codegen.kernel_cache_misses") == 0
        assert not any(node["name"] == "codegen.emit"
                       for node in report.spans)


class TestCallableAttributeSlots:
    def test_distinct_untagged_callables_get_distinct_slots(self):
        # Regression: multiple untagged callable attributes on one
        # system must not collide into one namespace slot (slot names
        # were once derived from a shadowed memoization key).
        lang = repro.Language("multi-src")
        lang.node_type("X", order=1,
                       attrs=[("f", repro.lambd(1)),
                              ("g", repro.lambd(1))])
        lang.edge_type("S")
        lang.prod("prod(e:S,s:X->s:X) s <= s.f(time) + s.g(time)")

        def instance():
            builder = repro.GraphBuilder(lang, "multi")
            builder.node("x", "X")
            builder.set_attr("x", "f", lambda t: 10.0)
            builder.set_attr("x", "g", lambda t: 1.0)
            builder.edge("x", "x", "e", "S")
            builder.set_init("x", 0.0)
            return compile_graph(builder.finish())

        systems = [instance() for _ in range(2)]
        batch = compile_batch(systems)
        dy = batch(0.0, np.zeros((2, 1)))
        np.testing.assert_allclose(dy[:, 0], [11.0, 11.0])
        for row, system in enumerate(systems):
            expected = system.rhs("codegen")(0.0, np.zeros(1))
            np.testing.assert_allclose(dy[row], expected)

    def test_repeated_attr_reference_reuses_slot(self):
        lang = repro.Language("reuse")
        lang.node_type("X", order=1,
                       attrs=[("f", repro.lambd(1))])
        lang.edge_type("S")
        lang.prod("prod(e:S,s:X->s:X) s <= s.f(time) + s.f(time)")
        builder = repro.GraphBuilder(lang, "reuse")
        builder.node("x", "X").set_attr("x", "f", lambda t: 3.0)
        builder.edge("x", "x", "e", "S")
        builder.set_init("x", 0.0)
        batch = compile_batch([compile_graph(builder.finish())])
        assert batch.source.count("_attr_0") == 2
        assert "_attr_1" not in batch.source
        np.testing.assert_allclose(batch(0.0, np.zeros((1, 1)))[:, 0],
                                   [6.0])


class TestRepeatedSystems:
    """A batch that repeats one system object, as a noisy sweep repeats
    each chip for every trial row, resolves its values once per distinct
    object. It must compile what the same rows as distinct copies
    compile: the same source and byte-identical namespace arrays."""

    @staticmethod
    def _sourced_systems():
        lang = repro.Language("repeat-src")
        lang.node_type("X", order=1,
                       attrs=[("tau", repro.real(0.5, 2.0, mm=(0.0, 0.1))),
                              ("f", repro.lambd(1))])
        lang.edge_type("S")
        lang.prod("prod(e:S,s:X->s:X) s <= -var(s)/s.tau + s.f(time)")
        lang.prod("prod(e:S,s:X->t:X) t <= var(s)")
        systems = []
        for seed in range(3):
            builder = repro.GraphBuilder(lang, "repeat", seed=seed)
            for k in range(3):
                builder.node(f"x{k}", "X").set_attr(f"x{k}", "tau", 1.0)
                builder.set_attr(f"x{k}", "f",
                                 lambda t, k=k, seed=seed: k + seed * t)
                builder.edge(f"x{k}", f"x{k}", f"s{k}", "S")
                builder.set_init(f"x{k}", 0.1 * k)
            builder.edge("x0", "x1", "c0", "S")
            builder.edge("x1", "x2", "c1", "S")
            systems.append(compile_graph(builder.finish()))
        return systems

    @staticmethod
    def _noisy_chips():
        from repro.paradigms.tln import TLineSpec
        from repro.puf import PufDesign
        from repro.puf.response import ChipFactory
        design = PufDesign(spec=TLineSpec(n_segments=4), noise=1e-8,
                           branch_positions=(2,), branch_lengths=(3,))
        factory = ChipFactory(design, 1)
        return [compile_graph(factory(seed)) for seed in range(3)]

    @pytest.mark.parametrize("build", ["_sourced_systems", "_noisy_chips"])
    @pytest.mark.parametrize("fuse", [True, False])
    @pytest.mark.parametrize("dtype", ["numpy:float64", "numpy:float32"])
    def test_repeats_compile_like_distinct_copies(self, build, fuse,
                                                  dtype):
        systems = getattr(self, build)()
        rows = [0, 0, 0, 1, 2, 2, 1, 0]
        repeated = compile_batch([systems[row] for row in rows],
                                 fuse=fuse, array_backend=dtype)
        copies = compile_batch([copy.copy(systems[row]) for row in rows],
                               fuse=fuse, array_backend=dtype)
        assert repeated.source == copies.source
        left = repeated._rhs_inner.__globals__
        right = copies._rhs_inner.__globals__
        assert left.keys() == right.keys()
        checked = 0
        for name, value in left.items():
            other = right[name]
            if isinstance(value, np.ndarray):
                assert value.dtype == other.dtype
                assert value.shape == other.shape
                assert value.tobytes() == other.tobytes()
                checked += 1
            elif isinstance(value, _PerInstanceFn):
                assert value._fns == other._fns
                checked += 1
        assert checked
        y = np.random.default_rng(1).normal(
            size=(len(rows), repeated.n_states)).astype(repeated.dtype)
        np.testing.assert_array_equal(repeated(0.3, y.copy()),
                                      copies(0.3, y.copy()))


class TestVectorWrappers:
    def test_autovector_passes_arrays_through_broadcastable_fn(self):
        fn = _AutoVector(lambda x: x * 2.0)
        np.testing.assert_allclose(fn(np.array([1.0, 2.0])), [2.0, 4.0])

    def test_autovector_wraps_piecewise_fn(self):
        from repro.paradigms.cnn import sat_ni
        fn = _AutoVector(sat_ni)
        out = fn(np.array([-2.0, 0.5, 2.0]))
        np.testing.assert_allclose(
            out, [sat_ni(-2.0), sat_ni(0.5), sat_ni(2.0)])

    def test_per_instance_fn_indexes_array_args(self):
        fns = [lambda t, k=k: t + k for k in range(3)]
        fn = _PerInstanceFn(fns)
        np.testing.assert_allclose(fn(1.0), [1.0, 2.0, 3.0])
        np.testing.assert_allclose(fn(np.array([1.0, 2.0, 3.0])),
                                   [1.0, 3.0, 5.0])
