"""Unit tests for the §5 dynamical-system compiler."""

import math
import pathlib

import numpy as np
import pytest

import repro
from repro.core.builder import GraphBuilder
from repro.core.compiler import compile_graph
from repro.errors import CompileError
from repro.telemetry import RunReport, collect_metrics
from tests.conftest import build_leaky_language, build_two_pole


class TestStateAllocation:
    def test_one_state_per_order(self):
        lang = build_leaky_language()
        graph = build_two_pole(lang)
        system = compile_graph(graph)
        assert system.n_states == 2
        assert system.index_of("x0") == 0
        assert system.index_of("x1") == 1

    def test_higher_order_states(self):
        lang = repro.Language("osc2")
        lang.node_type("H", order=2, reduction="sum")
        lang.edge_type("S")
        lang.prod("prod(e:S,s:H->s:H) s<=-var(s)")
        builder = GraphBuilder(lang)
        builder.node("h", "H")
        builder.edge("h", "h", "e", "S")
        builder.set_init("h", 1.0, index=0)
        builder.set_init("h", 0.0, index=1)
        system = compile_graph(builder.finish())
        assert system.n_states == 2
        assert system.index_of("h", 0) == 0
        assert system.index_of("h", 1) == 1
        # Chain equation: d h/dt = h'
        equations = system.equations()
        assert "d h/dt = h'" in equations

    def test_initial_state_vector(self):
        lang = build_leaky_language()
        graph = build_two_pole(lang)
        system = compile_graph(graph)
        assert list(system.y0) == [1.0, 0.0]

    def test_unknown_state_raises(self):
        lang = build_leaky_language()
        system = compile_graph(build_two_pole(lang))
        with pytest.raises(CompileError):
            system.index_of("ghost")


class TestSecondOrderDynamics:
    def test_harmonic_oscillator(self):
        # d2q/dt2 = -q  -> q(t) = cos(t)
        lang = repro.Language("sho")
        lang.node_type("Q", order=2, reduction="sum")
        lang.edge_type("S")
        lang.prod("prod(e:S,s:Q->s:Q) s<=-var(s)")
        builder = GraphBuilder(lang)
        builder.node("q", "Q")
        builder.edge("q", "q", "e", "S")
        builder.set_init("q", 1.0, index=0)
        builder.set_init("q", 0.0, index=1)
        trajectory = repro.simulate(builder.finish(), (0.0, math.pi),
                                    n_points=200)
        assert trajectory.final("q") == pytest.approx(-1.0, abs=1e-3)
        # First derivative is tracked as its own state.
        assert trajectory.state("q", 1)[-1] == pytest.approx(0.0,
                                                             abs=1e-3)


class TestRuleApplication:
    def test_missing_rule_detected(self):
        lang = repro.Language("partial")
        lang.node_type("A", order=1)
        lang.node_type("B", order=1)
        lang.edge_type("E")
        lang.prod("prod(e:E,s:A->t:A) t<=var(s)")
        builder = GraphBuilder(lang)
        builder.node("a", "A")
        builder.node("b", "B")
        builder.edge("a", "b", "e", "E")
        with pytest.raises(CompileError, match="no production rule"):
            compile_graph(builder.finish())

    def test_off_edge_without_off_rule_contributes_nothing(self):
        lang = build_leaky_language()
        graph = build_two_pole(lang)
        graph.set_switch("couple", False)
        system = compile_graph(graph)
        trajectory = repro.simulate(system, (0.0, 3.0))
        assert trajectory.final("x1") == pytest.approx(0.0, abs=1e-9)

    def test_off_rule_applies_when_switched_off(self):
        lang = build_leaky_language()
        lang.prod("prod(e:W,s:X->t:X) t<=0.01*e.w*var(s)/t.tau off")
        graph = build_two_pole(lang)
        graph.set_switch("couple", False)
        trajectory = repro.simulate(graph, (0.0, 3.0))
        leaked = trajectory.final("x1")
        assert leaked != pytest.approx(0.0, abs=1e-12)
        graph_on = build_two_pole(lang)
        full = repro.simulate(graph_on, (0.0, 3.0)).final("x1")
        assert abs(leaked) < abs(full)

    def test_derived_language_compiles_parent_graph_identically(self):
        base = build_leaky_language()
        derived = repro.Language("leaky-hw", parent=base)
        derived.edge_type("Wm", inherits="W")
        derived.prod("prod(e:Wm,s:X->t:X) t<=2*e.w*var(s)/t.tau")
        graph = build_two_pole(base)
        t_base = repro.simulate(compile_graph(graph, base), (0.0, 3.0))
        t_derived = repro.simulate(compile_graph(graph, derived),
                                   (0.0, 3.0))
        assert np.allclose(t_base.y, t_derived.y)


class TestAlgebraicNodes:
    def _lang(self):
        lang = repro.Language("alg")
        lang.node_type("X", order=1)
        lang.node_type("F", order=0)
        lang.edge_type("E")
        lang.prod("prod(e:E,s:X->s:X) s<=-var(s)")
        lang.prod("prod(e:E,s:X->t:F) t<=2*var(s)")
        lang.prod("prod(e:E,s:F->t:F) t<=var(s)+1")
        lang.prod("prod(e:E,s:F->t:X) t<=var(s)")
        return lang

    def test_algebraic_chain_evaluated_in_order(self):
        lang = self._lang()
        builder = GraphBuilder(lang)
        builder.node("x", "X").set_init("x", 1.0)
        builder.edge("x", "x", "leak", "E")
        builder.node("f1", "F")
        builder.node("f2", "F")
        builder.edge("x", "f1", "e1", "E")   # f1 = 2x
        builder.edge("f1", "f2", "e2", "E")  # f2 = f1 + 1
        system = compile_graph(builder.finish())
        values = system.algebraic_values(0.0, system.y0)
        assert values["f1"] == pytest.approx(2.0)
        assert values["f2"] == pytest.approx(3.0)

    def test_algebraic_cycle_detected(self):
        lang = self._lang()
        builder = GraphBuilder(lang)
        builder.node("f1", "F")
        builder.node("f2", "F")
        builder.edge("f1", "f2", "e1", "E")
        builder.edge("f2", "f1", "e2", "E")
        with pytest.raises(CompileError, match="algebraic cycle"):
            compile_graph(builder.finish())

    def test_algebraic_feeds_dynamics(self):
        # dx/dt = -x + f where f = 2x  =>  dx/dt = x  => growth e^t
        lang = self._lang()
        builder = GraphBuilder(lang)
        builder.node("x", "X").set_init("x", 1.0)
        builder.edge("x", "x", "leak", "E")
        builder.node("f", "F")
        builder.edge("x", "f", "e1", "E")
        builder.edge("f", "x", "e2", "E")
        trajectory = repro.simulate(builder.finish(), (0.0, 1.0))
        assert trajectory.final("x") == pytest.approx(math.e, rel=1e-3)


class TestReductions:
    def test_mul_reduction(self):
        lang = repro.Language("mul")
        lang.node_type("P", order=1, reduction="mul")
        lang.node_type("S", order=1, reduction="sum")
        lang.edge_type("E")
        lang.prod("prod(e:E,s:S->t:P) t<=var(s)")
        lang.prod("prod(e:E,s:S->s:S) s<=0*var(s)")
        lang.prod("prod(e:E,s:P->s:P) s<=1")
        builder = GraphBuilder(lang)
        builder.node("a", "S").set_init("a", 2.0)
        builder.edge("a", "a", "sa", "E")
        builder.node("b", "S").set_init("b", 3.0)
        builder.edge("b", "b", "sb", "E")
        builder.node("p", "P").set_init("p", 0.0)
        builder.edge("a", "p", "e1", "E")
        builder.edge("b", "p", "e2", "E")
        builder.edge("p", "p", "sp", "E")
        system = compile_graph(builder.finish())
        rhs = system.rhs("interpreter")
        dy = rhs(0.0, system.y0)
        # dp/dt = a * b * 1 = 6 (mul reduction over three terms)
        assert dy[system.index_of("p")] == pytest.approx(6.0)

    def test_empty_sum_is_zero(self):
        lang = repro.Language("empty")
        lang.node_type("X", order=1)
        lang.edge_type("E")
        builder = GraphBuilder(lang)
        builder.node("x", "X").set_init("x", 5.0)
        system = compile_graph(builder.finish())
        rhs = system.rhs("codegen")
        assert rhs(0.0, system.y0)[0] == 0.0

    def test_empty_mul_is_one(self):
        lang = repro.Language("empty-mul")
        lang.node_type("X", order=1, reduction="mul")
        lang.edge_type("E")
        builder = GraphBuilder(lang)
        builder.node("x", "X").set_init("x", 5.0)
        system = compile_graph(builder.finish())
        assert system.rhs("codegen")(0.0, system.y0)[0] == 1.0


class TestParametrization:
    def test_attrs_resolved_at_compile_time(self):
        lang = build_leaky_language()
        graph = build_two_pole(lang)
        system = compile_graph(graph)
        assert system.attr_values[("node", "x0", "tau")] == 1.0
        assert system.attr_values[("edge", "couple", "w")] == 2.0

    def test_lambda_attr_callable_in_rhs(self):
        lang = repro.Language("driven")
        lang.node_type("X", order=1)
        lang.node_type("Src", order=0,
                       attrs=[("fn", repro.lambd(1))])
        lang.edge_type("E")
        lang.prod("prod(e:E,s:X->s:X) s<=-var(s)")
        lang.prod("prod(e:E,s:Src->t:X) t<=s.fn(time)")
        builder = GraphBuilder(lang)
        builder.node("x", "X").set_init("x", 0.0)
        builder.edge("x", "x", "leak", "E")
        builder.node("u", "Src")
        builder.set_attr("u", "fn", lambda t: 1.0)
        builder.edge("u", "x", "drive", "E")
        trajectory = repro.simulate(builder.finish(), (0.0, 10.0))
        # dx/dt = -x + 1 settles at 1.
        assert trajectory.final("x") == pytest.approx(1.0, abs=1e-4)


# ----------------------------------------------------------------------
# Per-structure memo: the symbolic compile runs once per graph structure
# ----------------------------------------------------------------------

def _metered_compile(graph, language=None):
    """``compile_graph`` plus the template hit/miss counts it emitted."""
    report = RunReport()
    with collect_metrics(into=report):
        system = compile_graph(graph, language)
    return system, (report.counter("compile.template_hits"),
                    report.counter("compile.template_misses"))


def _value_token(value):
    # Lambda attributes are fresh closures per build; their Ark source
    # tag is what identifies them.
    if callable(value):
        return ("callable", getattr(value, "_ark_vector_key", None))
    return (type(value), value)


def _assert_same_system(warm, cold):
    assert warm.equations() == cold.equations()
    assert list(warm.attr_values) == list(cold.attr_values)
    assert [_value_token(value) for value in warm.attr_values.values()] \
        == [_value_token(value) for value in cold.attr_values.values()]
    assert warm.y0.tobytes() == cold.y0.tobytes()
    assert list(warm.functions) == list(cold.functions)
    assert all(warm.functions[name] is cold.functions[name]
               for name in warm.functions)
    assert warm.diffusion == cold.diffusion
    assert warm.structural_signature() == cold.structural_signature()


def _br_func():
    from repro.cli import _prelude_functions, _prelude_languages
    from repro.lang import parse_program

    source = (pathlib.Path(__file__).parents[2] / "examples" / "ark"
              / "br_func.ark").read_text()
    program = parse_program(source, languages=_prelude_languages(),
                            functions=_prelude_functions())
    return program.functions["br-func"]


def _memo_builds():
    from repro.paradigms.cnn import EROSION_TEMPLATE, cnn_grid
    from repro.paradigms.fhn import neuron_chain
    from repro.paradigms.gpac import leaky, lotka_volterra
    from repro.paradigms.obc import maxcut_network
    from repro.paradigms.tln import (TLineSpec, branched_tline,
                                     linear_tline, mismatched_tline)
    from repro.puf import ChipFactory, PufDesign

    spec = TLineSpec(n_segments=4)
    image = np.where(np.random.default_rng(3).random((4, 4)) > 0.5,
                     1.0, -1.0)
    chip = ChipFactory(PufDesign(spec=spec, branch_positions=(1, 2),
                                 branch_lengths=(2, 3)), 1)
    br_func = _br_func()
    return {
        "tline-gm": lambda seed: mismatched_tline("gm", spec, seed=seed),
        "tline-cint": lambda seed: mismatched_tline("cint", spec,
                                                    seed=seed),
        "tline-branched": lambda seed: branched_tline(
            spec, branch_segments=2, edge_variant="gm", seed=seed),
        "br-func": lambda seed: br_func.invoke({"br": 1}, seed=seed),
        "puf-chip": chip,
        "tline-noisy": lambda seed: linear_tline(
            spec, edge_variant="gm", noise=1e-8, seed=seed),
        "obc": lambda seed: maxcut_network(
            [(0, 1), (1, 2), (2, 0)], 3, edge_type="Cpl_ofs", seed=seed),
        "cnn": lambda seed: cnn_grid(image, EROSION_TEMPLATE,
                                     cell_type="Vm", seed=seed),
        "fhn": lambda seed: neuron_chain(3, mismatched_bias=True,
                                         seed=seed),
        "gpac": lambda seed: lotka_volterra(
            types=leaky(0.1, mismatched_weights=True), seed=seed),
    }


class TestStructureMemo:
    @pytest.mark.parametrize("name", [
        "tline-gm", "tline-cint", "tline-branched", "br-func", "puf-chip",
        "tline-noisy", "obc", "cnn", "fhn", "gpac"])
    def test_warm_compile_equals_cold(self, name):
        build = _memo_builds()[name]
        compile_graph(build(1))
        graph = build(2)
        warm, (hits, misses) = _metered_compile(graph)
        assert (hits, misses) == (1, 0)
        graph.language._invalidate()
        cold, (hits, misses) = _metered_compile(build(2))
        assert (hits, misses) == (0, 1)
        _assert_same_system(warm, cold)

    def test_structure_changes_miss(self):
        lang = build_leaky_language()
        lang.node_type("Y", inherits="X")
        lang.prod("prod(e:W, s:Y->s:Y) s <= -2*var(s)/s.tau")
        base = build_two_pole(lang)
        switched = build_two_pole(lang)
        switched.set_switch("couple", False)
        extra = build_two_pole(lang)
        extra.add_edge("back", "x1", "x0", "W").attrs["w"] = 1.0
        retyped = build_two_pole(lang)
        retyped.node("x1").type = lang.find_node_type("Y")
        systems = []
        for graph in (base, switched, extra, retyped):
            system, counts = _metered_compile(graph)
            assert counts == (0, 1)
            systems.append(system)
        signatures = {system.structural_signature() for system in systems}
        assert len(signatures) == len(systems)
        for system in systems[1:]:
            assert system.equations() != systems[0].equations()

    def test_systems_of_one_structure_are_independent(self):
        lang = build_leaky_language()
        first = compile_graph(build_two_pole(lang, w=1.0))
        second, counts = _metered_compile(build_two_pole(lang, w=3.0))
        assert counts == (1, 0)
        n_specs, n_states = len(second.rhs_specs), len(second.states)
        first.rhs_specs.append(first.rhs_specs[0])
        first.states.append(first.states[0])
        first.state_index[("ghost", 0)] = 99
        first.algebraic.append(None)
        assert len(second.rhs_specs) == n_specs
        assert len(second.states) == n_states
        assert ("ghost", 0) not in second.state_index
        assert second.algebraic == []
        assert second.attr_values[("edge", "couple", "w")] == 3.0
        assert first.attr_values[("edge", "couple", "w")] == 1.0

    def test_functions_resolve_per_instance(self):
        lang = repro.Language("fn-memo")
        lang.node_type("X", order=1)
        lang.edge_type("E")
        lang.register_function("gain", lambda x: 2.0 * x)
        lang.prod("prod(e:E,s:X->s:X) s<=-gain(var(s))")

        def build():
            builder = GraphBuilder(lang)
            builder.node("x", "X").set_init("x", 1.0)
            builder.edge("x", "x", "leak", "E")
            return builder.finish()

        first = compile_graph(build())
        replacement = lang.register_function("gain", lambda x: 3.0 * x)
        second, counts = _metered_compile(build())
        assert counts == (1, 0)
        assert second.functions["gain"] is replacement
        assert first.structural_signature() != \
            second.structural_signature()
        assert second.rhs("codegen")(0.0, second.y0)[0] == -3.0


class TestDerivedLanguageRuleTable:
    def test_ancestor_change_reaches_derived_language(self):
        base = repro.Language("base")
        base.node_type("A", order=1)
        base.edge_type("E")
        base.prod("prod(e:E,s:A->t:A) t<=var(s)")
        child = repro.Language("child", parent=base)

        def build(language):
            builder = GraphBuilder(language)
            builder.node("a", "A").set_init("a", 1.0)
            builder.node("b", "A").set_init("b", 0.0)
            builder.edge("a", "b", "e", "E")
            return builder.finish()

        assert "d a/dt = 0.0" in compile_graph(build(child)).equations()
        base.prod("prod(e:E,s:A->t:A) s<=-var(t)")
        expected = "d a/dt = (-var(b))"
        assert expected in compile_graph(build(child)).equations()
        assert expected in compile_graph(build(base)).equations()
        fresh = repro.Language("fresh", parent=base)
        assert expected in compile_graph(build(fresh)).equations()
