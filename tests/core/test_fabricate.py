"""Fabricate once per structure: the t-line and PUF factories clone a
memoized nominal graph (:class:`repro.core.builder.GraphTemplate`) and
draw each seed's mismatch in one pass.

Every instance must equal the direct seeded build — the same
``build(seed)`` statements run through a seeded
:class:`~repro.core.builder.GraphBuilder`, bypassing the memo — field
for field, dict insertion order included. Instances are independent
graphs, and the memo lives and dies with the language's rule table.
"""

import functools
import pickle
from dataclasses import dataclass

import pytest

from repro.core import builder as builder_module
from repro import integer, real
from repro.core.attributes import InitDecl
from repro.core.builder import GraphBuilder, fabricate
from repro.core.compiler import compile_graph
from repro.core.language import Language
from repro.core.noise import share_wiener
from repro.core.production import MEMO_LIMIT
from repro.errors import GraphError
from repro.sim import TrajectoryCache, compile_batch, run_ensemble
from repro.paradigms.tln import (TLineSpec, branched_tline, linear_tline,
                                 mismatched_tline)
from repro.paradigms.tln import functions as tln_functions
from repro.paradigms.tln.gmc import build_gmc_tln_language
from repro.paradigms.tln.waveforms import pulse
from repro.puf import ChipFactory, PufDesign
from repro.puf import challenge as puf_challenge
from repro.telemetry import RunReport, collect_metrics

SPEC = TLineSpec(n_segments=5)
PUF_SPEC = TLineSpec(n_segments=10)
BRANCHES = dict(branch_positions=(3, 6), branch_lengths=(4, 6))
SEEDS = [None, -3, 0, 7, 2**40]


def _direct(language, key, build, seed):
    """``fabricate`` without the memo: the seeded builder run itself."""
    return build(seed).finish()


@pytest.fixture()
def direct(monkeypatch):
    """Route every factory through :func:`_direct` while active."""
    def bypass():
        for module in (tln_functions, puf_challenge):
            monkeypatch.setattr(module, "fabricate", _direct)
    return bypass


def _value(value):
    # A template shares its pulse closure across instances while a
    # direct build makes a fresh one: compare the closure's tag.
    if callable(value):
        return ("callable", getattr(value, "_ark_vector_key", None))
    return (type(value), value)


def _items(values: dict) -> list:
    return [(key, _value(value)) for key, value in values.items()]


def _fields(graph) -> list:
    """Every field of every node and edge, in insertion order."""
    nodes = [(node.name, node.type, _items(node.attrs),
              _items(node.nominal_attrs), _items(node.inits),
              _items(node.nominal_inits)) for node in graph.nodes]
    edges = [(edge.name, edge.type, edge.src, edge.dst, edge.on,
              _items(edge.attrs), _items(edge.nominal_attrs))
             for edge in graph.edges]
    return [graph.name, graph.language, nodes, edges]


def _puf(challenge, **options):
    design = PufDesign(spec=PUF_SPEC, **BRANCHES, **options)
    return lambda seed: design.build(challenge, seed=seed)


def _shared_supply(challenge):
    factory = ChipFactory(PufDesign(spec=PUF_SPEC, **BRANCHES, noise=1e-8,
                                    shared_supply=True), challenge)
    return lambda seed: factory(seed).graph


CASES = {
    "linear-ideal": lambda seed: linear_tline(SPEC, seed=seed),
    "linear-cint": lambda seed: linear_tline(SPEC, node_variant="cint",
                                             seed=seed),
    "linear-gm": lambda seed: linear_tline(SPEC, edge_variant="gm",
                                           seed=seed),
    "linear-noisy": lambda seed: linear_tline(SPEC, edge_variant="gm",
                                              noise=1e-8, seed=seed),
    "mismatched-gm": lambda seed: mismatched_tline("gm", seed=seed),
    "branched-ideal": lambda seed: branched_tline(
        SPEC, branch_segments=3, seed=seed),
    "branched-cint": lambda seed: branched_tline(
        SPEC, branch_segments=3, node_variant="cint", seed=seed),
    "branched-gm": lambda seed: branched_tline(
        SPEC, branch_segments=3, edge_variant="gm", seed=seed),
    **{f"puf-gm-{c}": _puf(c) for c in range(4)},
    **{f"puf-cint-{c}": _puf(c, variant="cint") for c in (1, 2)},
    **{f"puf-noisy-{c}": _puf(c, noise=1e-8) for c in (0, 3)},
    **{f"puf-alpha-{c}": _puf(c, switch_alpha=0.2) for c in (1, 3)},
    "puf-shared-supply-2": _shared_supply(2),
}


class TestParity:
    @pytest.mark.parametrize("name", list(CASES))
    def test_instances_equal_direct_builds(self, name, direct):
        build = CASES[name]
        # Twice through the memo: the first call may be the miss.
        templated = [[_fields(build(seed)) for seed in SEEDS]
                     for _ in range(2)]
        direct()
        expected = [_fields(build(seed)) for seed in SEEDS]
        assert templated[0] == expected
        assert templated[1] == expected

    def test_seeds_differ(self):
        first, second = (mismatched_tline("gm", SPEC, seed=seed)
                         for seed in (1, 2))
        assert first.edge("E_0").attrs != second.edge("E_0").attrs
        assert first.edge("E_0").nominal_attrs == \
            second.edge("E_0").nominal_attrs

    def test_template_needs_no_seed(self):
        builder = GraphBuilder(build_gmc_tln_language(), seed=1)
        with pytest.raises(GraphError, match="without a seed"):
            builder.template()


class TestIndependence:
    def test_mutating_an_instance_leaves_the_next_untouched(self):
        design = PufDesign(spec=PUF_SPEC, **BRANCHES)
        junction = next(edge.name for edge in design.build(1).edges
                        if edge.dst == "s0I_0")
        expected = _fields(design.build(1, seed=4))
        graph = design.build(1, seed=4)
        graph.edge("E_0").attrs["ws"] = 1.5
        graph.edge("E_0").nominal_attrs["ws"] = 1.5
        graph.node("V_0").inits[0] = 0.25
        graph.set_switch(junction, not graph.edge(junction).on)
        graph.add_node("extra", "V")
        assert _fields(design.build(1, seed=4)) == expected

    def test_mutating_an_instance_leaves_the_template_untouched(self):
        language = build_gmc_tln_language()
        graph = linear_tline(SPEC, edge_variant="gm", language=language)
        graph.edge("E_0").attrs["ws"] = 1.5
        graph.node("IN_V").attrs["c"] = 2e-9
        [template] = language.rule_table().graph_templates.values()
        nominal = template.instance(None)
        assert nominal.edge("E_0").attrs["ws"] == 1.0
        assert nominal.node("IN_V").attrs["c"] == SPEC.capacitance
        assert nominal is not template.instance(None)


def _metered(build, seeds):
    report = RunReport()
    with collect_metrics(into=report):
        graphs = [build(seed) for seed in seeds]
    return graphs, (report.counter("build.template_hits"),
                    report.counter("build.template_misses"))


class TestMemo:
    def test_one_miss_per_structure(self):
        language = build_gmc_tln_language()
        _, counts = _metered(
            lambda seed: linear_tline(SPEC, edge_variant="gm",
                                      language=language, seed=seed),
            range(64))
        assert counts == (63, 1)

    def test_non_seed_arguments_key_the_template(self):
        language = build_gmc_tln_language()
        builds = [
            lambda seed: linear_tline(SPEC, edge_variant="gm",
                                      language=language, seed=seed),
            lambda seed: linear_tline(TLineSpec(n_segments=4),
                                      edge_variant="gm",
                                      language=language, seed=seed),
            lambda seed: linear_tline(SPEC, node_variant="cint",
                                      language=language, seed=seed),
            lambda seed: branched_tline(SPEC, branch_segments=2,
                                        edge_variant="gm",
                                        language=language, seed=seed),
            lambda seed: branched_tline(SPEC, branch_segments=3,
                                        edge_variant="gm",
                                        language=language, seed=seed)]
        _, counts = _metered(lambda seed: [build(seed) for build in builds],
                             [1, 2])
        assert counts == (5, 5)

    def test_declaration_drops_the_memo(self):
        language = build_gmc_tln_language()

        def build(seed):
            return linear_tline(SPEC, edge_variant="gm", language=language,
                                seed=seed)

        _, counts = _metered(build, [1, 2])
        assert counts == (1, 1)
        language.node_type("Extra", order=1)
        _, counts = _metered(build, [3])
        assert counts == (0, 1)

    def test_pickled_rule_table_arrives_empty(self):
        language = build_gmc_tln_language()
        linear_tline(SPEC, edge_variant="gm", language=language, seed=1)
        table = language.rule_table()
        assert len(table.graph_templates) == 1
        copied = pickle.loads(pickle.dumps(table))
        assert len(copied.graph_templates) == 0
        assert len(copied.templates) == 0
        assert len(table.graph_templates) == 1

    def test_unhashable_key_builds_without_storing(self, direct):
        @dataclass
        class Pulse:                    # eq=True, not frozen: no hash
            width: float = 2e-8

            def __call__(self, t):
                return pulse(t, 0.0, self.width)

        language = build_gmc_tln_language()
        waveform = Pulse()

        def build(seed):
            return linear_tline(SPEC, edge_variant="gm", language=language,
                                waveform=waveform, seed=seed)

        graphs, counts = _metered(build, [5, 5])
        assert counts == (0, 2)
        assert len(language.rule_table().graph_templates) == 0
        assert graphs[0].node("InpI_0").attrs["fn"] is waveform
        direct()
        assert _fields(graphs[0]) == _fields(build(5))
        assert _fields(graphs[1]) == _fields(build(5))

    def test_least_recently_used_structure_is_dropped(self):
        table = build_gmc_tln_language().rule_table()
        for key in range(MEMO_LIMIT):
            table.memoized(table.graph_templates, key, object, "t")
        table.memoized(table.graph_templates, 0, object, "t")
        table.memoized(table.graph_templates, MEMO_LIMIT, object, "t")
        assert 0 in table.graph_templates
        assert 1 not in table.graph_templates
        assert len(table.graph_templates) == MEMO_LIMIT

    def test_fabricate_is_the_builders_entry(self):
        assert builder_module.fabricate is fabricate
        language = build_gmc_tln_language()

        def build(seed):
            builder = GraphBuilder(language, "one", seed=seed)
            builder.node("n", "Vm").set_attr("n", "c", 1e-9)
            builder.set_attr("n", "g", 0.0).set_init("n", 0.0)
            return builder

        graph = fabricate(language, "one", build, 9)
        assert _fields(graph) == _fields(build(9).finish())


class TestPufDesignKey:
    def test_list_and_tuple_inputs_agree(self):
        listed = PufDesign(spec=PUF_SPEC, branch_positions=[3, 6],
                           branch_lengths=[4, 6])
        tupled = PufDesign(spec=PUF_SPEC, **BRANCHES)
        assert listed == tupled
        assert hash(listed) == hash(tupled)
        assert listed.branch_positions == (3, 6)
        assert listed.branch_lengths == (4, 6)

    def test_list_design_shares_the_tuple_designs_template(self):
        listed = PufDesign(spec=PUF_SPEC, branch_positions=[3, 6],
                           branch_lengths=[4, 6])
        tupled = PufDesign(spec=PUF_SPEC, **BRANCHES)
        tupled.build(2, seed=1)
        _, counts = _metered(lambda seed: listed.build(2, seed=seed), [2])
        assert counts == (1, 0)


# ----------------------------------------------------------------------
# A fabricated instance is its value row: lazy graphs and the row bind
# ----------------------------------------------------------------------

def _mismatched_inits_language():
    """Order-2 nodes with mismatched initial values, a mismatched
    integer attribute and a mismatched attribute no rule reads."""
    language = Language("row-bind")
    language.node_type("N", order=2, attrs=[
        ("a", real(0, 10, mm=(0, 0.1))), ("k", integer(0, 100, mm=(5, 0))),
        ("u", real(0, 10, mm=(0, 0.1)))], inits=[
            InitDecl(0, real(-10, 10, mm=(0.1, 0.0))),
            InitDecl(1, real(-10, 10, mm=(0.1, 0.0)))])
    language.edge_type("S")
    language.prod("prod(e:S,s:N->s:N) s<=-s.a*var(s)+s.k")
    return language


MISMATCHED_INITS = _mismatched_inits_language()


def _mismatched_inits(seed):
    def build(seed):
        builder = GraphBuilder(MISMATCHED_INITS, "row-bind", seed=seed)
        for name in ("m", "n"):
            builder.node(name, "N").set_attr(name, "a", 2.0)
            builder.set_attr(name, "k", 40).set_attr(name, "u", 1.0)
            builder.set_init(name, 0.5).set_init(name, -0.25, index=1)
            builder.edge(name, name, f"s_{name}", "S")
        return builder

    return fabricate(MISMATCHED_INITS, "row-bind", build, seed)


SHARED_SUPPLY = PufDesign(spec=PUF_SPEC, **BRANCHES, noise=1e-8,
                          shared_supply=True)

#: Factories of lazy instances, ``build(seed) -> graph``.
ROW_CASES = {
    "mismatched-inits": _mismatched_inits,
    **{name: CASES[name] for name in ("linear-ideal", "linear-gm",
                                      "linear-cint", "linear-noisy",
                                      "branched-gm")},
    "chip-plain": _puf(1),
    "chip-cint": _puf(2, variant="cint"),
    "chip-noisy": _puf(3, noise=1e-8),
    "chip-parasitic": _puf(1, switch_alpha=0.2),
    "chip-shared-supply": lambda seed: SHARED_SUPPLY.build(2, seed=seed),
}

ROW_SEEDS = [None, 0, 7, 2**40]

#: A source waveform that pickles (the default one is a closure).
PICKLABLE_PULSE = functools.partial(pulse, t0=0.0, width=2e-8)

KEY_OPTIONS = {"t_span": (0.0, 4e-8), "n_points": 50, "method": "rkf45"}


def _lazy_and_materialized(name, seed):
    """Two graphs of instance ``seed``: one never read, one read."""
    lazy, read = ROW_CASES[name](seed), ROW_CASES[name](seed)
    assert read.nodes
    return lazy, read


def _finish(name, graph):
    """Compile ``graph`` as a sweep of the case does: ``ChipFactory``
    aliases a shared-supply chip's Wiener paths."""
    system = compile_graph(graph)
    if name == "chip-shared-supply":
        system = share_wiener(system, "supply")
    return system


def _system_fields(system) -> list:
    return [_items(system.attr_values), system.y0.tobytes(),
            system.structural_signature(),
            TrajectoryCache().key_for([system], "batch", KEY_OPTIONS),
            compile_batch([system]).source]


class TestRowBind:
    @pytest.mark.parametrize("name", list(ROW_CASES))
    def test_row_bind_equals_walked_compile(self, name):
        for seed in ROW_SEEDS:
            lazy, read = _lazy_and_materialized(name, seed)
            report = RunReport()
            with collect_metrics(into=report):
                bound = _finish(name, lazy)
            walked = _finish(name, read)
            assert report.counter("compile.row_binds") == 1
            assert lazy.fabrication() is not None
            assert read.fabrication() is None
            assert _system_fields(bound) == _system_fields(walked)

    def test_plan_keeps_only_sites_the_system_reads(self):
        compile_graph(_mismatched_inits(1))
        [plan] = MISMATCHED_INITS.rule_table().bind_plans.values()
        assert [key for _, key in plan.attr_sites] == [
            ("node", "m", "a"), ("node", "m", "k"), ("node", "n", "a"),
            ("node", "n", "k")]
        assert [state for _, state in plan.init_sites] == [0, 1, 2, 3]

    def test_chip_factory_compiles_its_lazy_graph(self):
        report = RunReport()
        with collect_metrics(into=report):
            system = ChipFactory(SHARED_SUPPLY, 2)(5)
        assert report.counter("compile.row_binds") == 1
        assert report.counter("build.materialized") == 0
        _, read = _lazy_and_materialized("chip-shared-supply", 5)
        assert _system_fields(system) == \
            _system_fields(_finish("chip-shared-supply", read))

    def test_reading_materializes_once(self):
        graph = mismatched_tline("gm", SPEC, seed=3)
        report = RunReport()
        with collect_metrics(into=report):
            repr(graph)
            graph.stats()
            graph.edge("E_0")
        assert report.counter("build.materialized") == 1
        assert graph.fabrication() is None

    def test_warm_replay_reads_no_graph(self, tmp_path):
        def sweep():
            return run_ensemble(
                lambda seed: mismatched_tline("gm", seed=seed), range(64),
                (0.0, 4e-8), n_points=20,
                cache=TrajectoryCache(directory=tmp_path), telemetry=True)

        cold = sweep()
        warm = sweep()
        report = warm.telemetry
        assert report.counter("cache.hits") == 1
        assert report.counter("compile.row_binds") == 64
        assert report.counter("build.materialized") == 0
        assert warm.batches[0].y.tobytes() == cold.batches[0].y.tobytes()


class TestMutations:
    """Any write reaches the compiled system: the write reads the
    structure first, so the compile walks the materialized graph."""

    def _compile(self, graph):
        report = RunReport()
        with collect_metrics(into=report):
            system = compile_graph(graph)
        assert report.counter("compile.row_binds") == 0
        return system

    def test_attribute_written_through_node(self):
        graph = mismatched_tline("gm", SPEC, seed=3)
        graph.node("IN_V").attrs["c"] = 2e-9
        graph.edge("E_0").attrs["ws"] = 1.5
        system = self._compile(graph)
        assert system.attr_values[("node", "IN_V", "c")] == 2e-9
        untouched = compile_graph(mismatched_tline("gm", SPEC, seed=3))
        assert untouched.attr_values[("node", "IN_V", "c")] != 2e-9

    def test_set_switch(self):
        design = PufDesign(spec=PUF_SPEC, **BRANCHES)
        graph = design.build(1, seed=4)
        junction = next(edge.name for edge in design.build(1).edges
                        if edge.dst == "s1I_0" and not edge.is_self)
        graph.set_switch(junction, True)
        system = self._compile(graph)
        flipped = compile_graph(design.build(3, seed=4))
        assert _system_fields(system) == _system_fields(flipped)
        assert system.structural_signature() != \
            compile_graph(design.build(1, seed=4)).structural_signature()

    def test_add_node(self):
        graph = mismatched_tline("gm", SPEC, seed=3)
        node = graph.add_node("extra", "V")
        node.attrs.update(c=1e-9, g=0.5)
        node.inits[0] = 0.25
        graph.add_edge("Es_extra", "extra", "extra", "E")
        system = self._compile(graph)
        assert system.y0[system.index_of("extra")] == 0.25
        assert system.attr_values[("node", "extra", "g")] == 0.5

    def test_derived_language_walks(self):
        graph = mismatched_tline("gm", SPEC, seed=3)
        derived = Language("gm-derived", parent=graph.language)
        system = self._compile_in(graph, derived)
        assert graph.fabrication() is None
        assert system.language is derived
        base = compile_graph(mismatched_tline("gm", SPEC, seed=3))
        assert _items(system.attr_values) == _items(base.attr_values)
        assert system.y0.tobytes() == base.y0.tobytes()

    def _compile_in(self, graph, language):
        report = RunReport()
        with collect_metrics(into=report):
            system = compile_graph(graph, language)
        assert report.counter("compile.row_binds") == 0
        return system


def _by_type_name(graph) -> list:
    """:func:`_fields` with types by name: an unpickled graph carries
    copies of its language and types."""
    name, _language, nodes, edges = _fields(graph)
    return [name, [(node[0], node[1].name, *node[2:]) for node in nodes],
            [(edge[0], edge[1].name, *edge[2:]) for edge in edges]]


class TestLazyLifecycle:
    def test_pickle_round_trips_a_lazy_graph(self):
        def build():
            return linear_tline(SPEC, edge_variant="gm", seed=6,
                                waveform=PICKLABLE_PULSE)

        lazy = build()
        copied = pickle.loads(pickle.dumps(lazy))
        assert lazy.fabrication() is None
        assert copied.fabrication() is None
        assert _by_type_name(copied) == _by_type_name(build())
        assert _fields(lazy) == _fields(build())

    def test_declaration_drops_the_bind_plan(self):
        language = build_gmc_tln_language()

        def build(seed):
            return linear_tline(SPEC, edge_variant="gm", language=language,
                                seed=seed)

        compile_graph(build(1))
        assert len(language.rule_table().bind_plans) == 1
        earlier = build(2)
        language.node_type("Extra", order=1)
        assert len(language.rule_table().bind_plans) == 0
        report = RunReport()
        with collect_metrics(into=report):
            system = compile_graph(earlier)
        assert report.counter("compile.row_binds") == 1
        assert report.counter("compile.template_misses") == 1
        assert len(language.rule_table().bind_plans) == 1
        read = build(2)
        read.nodes
        assert _system_fields(system) == _system_fields(compile_graph(read))

    def test_pickled_rule_table_drops_bind_plans(self):
        language = build_gmc_tln_language()
        compile_graph(linear_tline(SPEC, edge_variant="gm",
                                   language=language, seed=1))
        copied = pickle.loads(pickle.dumps(language.rule_table()))
        assert len(copied.bind_plans) == 0
