"""Unit tests for GraphBuilder: datatype checking, mismatch-at-write,
and switch statements."""

import pytest

import repro
from repro.core.builder import GraphBuilder
from repro.errors import DatatypeError, GraphError
from tests.conftest import build_leaky_language


@pytest.fixture()
def lang():
    return build_leaky_language()


@pytest.fixture()
def mm_lang():
    language = repro.Language("mm")
    language.node_type("N", order=1, attrs=[
        ("a", repro.real(0.0, 10.0, mm=(0.0, 0.1))),
        ("b", repro.real(0.0, 10.0)),
    ])
    language.edge_type("S")
    language.prod("prod(e:S,s:N->s:N) s<=-var(s)")
    return language


class TestSetAttr:
    def test_range_checked(self, lang):
        builder = GraphBuilder(lang)
        builder.node("x", "X")
        with pytest.raises(DatatypeError):
            builder.set_attr("x", "tau", 99.0)

    def test_unknown_attr_rejected(self, lang):
        builder = GraphBuilder(lang)
        builder.node("x", "X")
        with pytest.raises(GraphError):
            builder.set_attr("x", "volume", 1.0)

    def test_unknown_owner_rejected(self, lang):
        builder = GraphBuilder(lang)
        with pytest.raises(GraphError):
            builder.set_attr("ghost", "tau", 1.0)

    def test_nominal_and_resolved_stored(self, mm_lang):
        builder = GraphBuilder(mm_lang, seed=42)
        builder.node("n", "N")
        builder.set_attr("n", "a", 5.0)
        node = builder.graph.node("n")
        assert node.nominal_attrs["a"] == 5.0
        assert node.attrs["a"] != 5.0  # mismatch applied
        assert abs(node.attrs["a"] - 5.0) < 5.0  # within a few sigma

    def test_no_seed_means_nominal(self, mm_lang):
        builder = GraphBuilder(mm_lang)
        builder.node("n", "N")
        builder.set_attr("n", "a", 5.0)
        assert builder.graph.node("n").attrs["a"] == 5.0

    def test_unannotated_attr_never_mismatched(self, mm_lang):
        builder = GraphBuilder(mm_lang, seed=42)
        builder.node("n", "N")
        builder.set_attr("n", "b", 5.0)
        assert builder.graph.node("n").attrs["b"] == 5.0

    def test_range_applies_to_nominal_not_sample(self):
        # real[1,1] mm(0,0.1) (Fig. 10b) accepts nominal 1.0 even though
        # samples leave the range.
        language = repro.Language("edge-case")
        language.node_type("N", order=1, attrs=[
            ("mm", repro.real(1.0, 1.0, mm=(0.0, 0.1)))])
        builder = GraphBuilder(language, seed=7)
        builder.node("n", "N")
        builder.set_attr("n", "mm", 1.0)
        assert builder.graph.node("n").nominal_attrs["mm"] == 1.0
        assert builder.graph.node("n").attrs["mm"] != 1.0


class TestSetInit:
    def test_init_written(self, lang):
        builder = GraphBuilder(lang)
        builder.node("x", "X").set_init("x", 0.5)
        assert builder.graph.node("x").inits[0] == 0.5

    def test_bad_index_rejected(self, lang):
        builder = GraphBuilder(lang)
        builder.node("x", "X")
        with pytest.raises(GraphError):
            builder.set_init("x", 0.5, index=3)


class TestSwitch:
    def test_switch_statement(self, lang):
        builder = GraphBuilder(lang)
        builder.node("x", "X").set_attr("x", "tau", 1.0)
        builder.node("y", "X").set_attr("y", "tau", 1.0)
        builder.edge("x", "y", "e", "W").set_attr("e", "w", 1.0)
        builder.set_switch("e", False)
        assert not builder.graph.edge("e").on


class TestFinish:
    def test_finish_checks_completeness(self, lang):
        builder = GraphBuilder(lang)
        builder.node("x", "X")
        with pytest.raises(GraphError):
            builder.finish()

    def test_finish_no_check(self, lang):
        builder = GraphBuilder(lang)
        builder.node("x", "X")
        graph = builder.finish(check=False)
        assert graph.has_node("x")

    def test_fluent_chaining(self, lang):
        graph = (GraphBuilder(lang)
                 .node("x", "X")
                 .set_attr("x", "tau", 1.0)
                 .edge("x", "x", "e", "W")
                 .set_attr("e", "w", 0.0)
                 .set_init("x", 1.0)
                 .finish())
        assert graph.stats()["nodes"] == 1


class _StreamRecorder:
    """Wraps ``repro.core.mismatch.streams``: records each bulk call's
    keys."""

    def __init__(self, monkeypatch):
        from repro.core import mismatch

        self.calls = []
        real = mismatch.streams

        def recording(keys):
            keys = list(keys)
            self.calls.append(keys)
            return real(keys)

        monkeypatch.setattr(mismatch, "streams", recording)


class TestDeferredMismatch:
    """Mismatched writes are queued and drawn in one bulk call; every
    value equals the one-at-a-time draw of its (seed, element, attr)."""

    @staticmethod
    def _sample(seed, element, attr, nominal, mm=(0.0, 0.1)):
        from repro.core.datatypes import Mismatch
        from repro.core.noise import stream

        sigma = Mismatch(*mm).sigma(nominal)
        return float(stream(seed, element, attr).normal(nominal, sigma))

    def test_graph_read_mid_build_is_resolved(self, mm_lang):
        builder = GraphBuilder(mm_lang, seed=42)
        builder.node("n", "N").set_attr("n", "a", 5.0)
        assert builder.graph.node("n").attrs["a"] == \
            self._sample(42, "n", "a", 5.0)
        builder.node("m", "N").set_attr("m", "a", 3.0)
        graph = builder.graph
        assert graph.node("m").attrs["a"] == self._sample(42, "m", "a", 3.0)
        assert graph.node("n").attrs["a"] == self._sample(42, "n", "a", 5.0)

    def test_rewrite_keeps_last_write(self, mm_lang):
        builder = GraphBuilder(mm_lang, seed=42)
        builder.node("n", "N")
        builder.set_attr("n", "a", 5.0).set_attr("n", "a", 7.0)
        node = builder.graph.node("n")
        assert node.nominal_attrs["a"] == 7.0
        assert node.attrs["a"] == self._sample(42, "n", "a", 7.0)
        # A write after a flush replaces the flushed sample.
        builder.set_attr("n", "a", 2.0)
        assert builder.graph.node("n").attrs["a"] == \
            self._sample(42, "n", "a", 2.0)

    def test_zero_sigma_rewrite_drops_queued_draw(self, mm_lang):
        builder = GraphBuilder(mm_lang, seed=42)
        builder.node("n", "N")
        builder.set_attr("n", "a", 5.0).set_attr("n", "a", 0.0)
        assert builder.graph.node("n").attrs["a"] == 0.0

    def test_one_bulk_draw_per_build(self, mm_lang, monkeypatch):
        recorder = _StreamRecorder(monkeypatch)
        builder = GraphBuilder(mm_lang, seed=3)
        for name in ("n0", "n1", "n2"):
            builder.node(name, "N").set_attr(name, "a", 5.0)
            builder.set_attr(name, "b", 5.0)
        builder.edge("n0", "n0", "s", "S")
        builder.finish()
        assert recorder.calls == [[(3, "n0", "a"), (3, "n1", "a"),
                                   (3, "n2", "a")]]

        # A PUF chip finds its branch junctions without reading the
        # graph mid-build: a template instance and the direct seeded
        # build each draw in one bulk call.
        from repro.paradigms.tln import TLineSpec
        from repro.puf import PufDesign, challenge

        design = PufDesign(spec=TLineSpec(n_segments=10),
                           branch_positions=(3, 6), branch_lengths=(4, 6))
        recorder.calls.clear()
        graph = design.build(2, seed=5)
        monkeypatch.setattr(
            challenge, "fabricate",
            lambda language, key, build, seed: build(seed).finish())
        design.build(2, seed=5)
        assert len(recorder.calls) == 2
        assert recorder.calls[0] == recorder.calls[1]
        # Every Em edge's ws and wt, the branch junctions included.
        assert len(recorder.calls[0]) == 2 * len(graph.edges) - \
            2 * sum(edge.is_self for edge in graph.edges)

    def test_no_seed_and_zero_sigma_draw_nothing(self, mm_lang,
                                                  monkeypatch):
        recorder = _StreamRecorder(monkeypatch)
        ideal = GraphBuilder(mm_lang)
        ideal.node("n", "N").set_attr("n", "a", 5.0)
        assert ideal.graph.node("n").attrs["a"] == 5.0
        zero = GraphBuilder(mm_lang, seed=4)
        zero.node("n", "N").set_attr("n", "a", 0.0)
        assert zero.graph.node("n").attrs["a"] == 0.0
        assert recorder.calls == []

    def test_integer_values_round(self):
        language = repro.Language("mm-int")
        language.node_type("N", order=1, attrs=[
            ("k", repro.integer(0, 100, mm=(5, 0)))])
        builder = GraphBuilder(language, seed=3)
        builder.node("n", "N").set_attr("n", "k", 50)
        value = builder.graph.node("n").attrs["k"]
        assert isinstance(value, int)
        assert value == int(round(self._sample(3, "n", "k", 50.0,
                                               mm=(5, 0))))

    def test_mismatched_init_is_float(self):
        from repro.core.attributes import InitDecl

        language = repro.Language("mm-init")
        language.node_type("N", order=1, inits=[
            InitDecl(0, repro.real(-10, 10, mm=(0.1, 0.0)))])
        builder = GraphBuilder(language, seed=9)
        builder.node("n", "N").set_init("n", 1.0)
        node = builder.graph.node("n")
        assert node.nominal_inits[0] == 1.0
        assert node.inits[0] == self._sample(9, "n", "init0", 1.0,
                                             mm=(0.1, 0.0))

    def test_ark_function_path(self):
        from repro.core import function as F

        lang = repro.Language("mm-fn")
        lang.node_type("N", order=1, attrs=[
            ("a", repro.real(0, 10, mm=(0, 0.1)))])
        lang.edge_type("S")
        lang.prod("prod(e:S,s:N->s:N) s<=-var(s)")
        fn = F.ArkFunction("f", lang, statements=[
            F.NodeStmt("n", "N"),
            F.SetAttrStmt("n", "a", F.Literal(5.0)),
            F.EdgeStmt("n", "n", "s", "S")])
        assert fn.invoke(seed=11).node("n").attrs["a"] == \
            self._sample(11, "n", "a", 5.0)

    def test_rewrite_path(self, gmc, small_spec):
        from repro.core.rewrite import substitute_types
        from repro.paradigms.tln import linear_tline, mismatched_tline

        rewritten = substitute_types(linear_tline(small_spec),
                                     {"V": "Vm", "I": "Im"},
                                     language=gmc, seed=7)
        built = mismatched_tline("cint", small_spec, seed=7)
        mismatched = 0
        for node in built.nodes:
            for attr, value in node.attrs.items():
                if isinstance(value, float):
                    assert rewritten.node(node.name).attrs[attr] == value
                    mismatched += value != node.nominal_attrs[attr]
        assert mismatched > 0
