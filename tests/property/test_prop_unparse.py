"""Property tests: unparse -> parse round trips on randomly generated
languages preserve the type system and the compiled dynamics."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.builder import GraphBuilder
from repro.lang import parse_program
from repro.lang.unparse import unparse_language

_REDUCTIONS = ("sum", "mul")


@st.composite
def random_language(draw):
    lang = repro.Language("randlang")
    n_node_types = draw(st.integers(1, 3))
    node_types = []
    for index in range(n_node_types):
        attrs = []
        for a in range(draw(st.integers(0, 2))):
            lo = draw(st.floats(-10, 0))
            hi = draw(st.floats(0, 10))
            mm = (0.0, draw(st.floats(0.01, 0.5))) if draw(
                st.booleans()) else None
            attrs.append((f"a{a}", repro.real(lo, hi, mm=mm)))
        name = f"N{index}"
        lang.node_type(name, order=draw(st.integers(1, 2)),
                       reduction=draw(st.sampled_from(_REDUCTIONS)),
                       attrs=attrs)
        node_types.append(name)
    lang.edge_type("E", attrs=[("w", repro.real(-5, 5))])
    # A self rule per node type plus one cross rule.
    for name in node_types:
        lang.prod(f"prod(e:E,s:{name}->s:{name}) s <= -var(s)")
    src = draw(st.sampled_from(node_types))
    dst = draw(st.sampled_from(node_types))
    lang.prod(f"prod(e:E,s:{src}->t:{dst}) t <= e.w*var(s)")
    lo = draw(st.integers(0, 3))
    hi = draw(st.one_of(st.just("inf"), st.integers(lo, 5).map(str)))
    lang.cstr(f"cstr {node_types[0]} "
              f"{{acc[match({lo},{hi},E,{node_types[0]}->"
              f"[{','.join(node_types)}]),"
              f" match(0,inf,E,[{','.join(node_types)}]->"
              f"{node_types[0]}), match(0,inf,E,{node_types[0]})]}}")
    return lang, (src, dst)


@given(random_language())
@settings(max_examples=30, deadline=None)
def test_round_trip_structure(case):
    lang, _ = case
    source = unparse_language(lang)
    reparsed = parse_program(source).languages["randlang"]
    assert set(reparsed.node_types()) == set(lang.node_types())
    assert set(reparsed.edge_types()) == set(lang.edge_types())
    assert len(reparsed.productions()) == len(lang.productions())
    assert len(reparsed.constraints()) == len(lang.constraints())
    # Both front ends read rules with one grammar: the reparsed rules
    # equal the API-built ones, cardinalities included.
    assert [r.describe() for r in reparsed.productions()] == \
        [r.describe() for r in lang.productions()]
    assert reparsed.constraints() == lang.constraints()
    for name, node_type in lang.node_types().items():
        again = reparsed.find_node_type(name)
        assert again.order == node_type.order
        assert again.reduction == node_type.reduction
        assert set(again.attrs) == set(node_type.attrs)
        for attr, decl in node_type.attrs.items():
            assert again.attrs[attr].datatype == decl.datatype


@given(random_language(), st.floats(-1.0, 1.0))
@settings(max_examples=20, deadline=None)
def test_round_trip_dynamics(case, w):
    lang, (src, dst) = case
    reparsed = parse_program(
        unparse_language(lang)).languages["randlang"]

    def build(language):
        builder = GraphBuilder(language, "pair")
        for name, type_name in (("a", src), ("b", dst)):
            if not builder.graph.has_node(name):
                builder.node(name, type_name)
                node_type = language.find_node_type(type_name)
                for attr in node_type.attrs:
                    builder.set_attr(name, attr, 0.0)
                builder.set_init(name, 1.0)
                builder.edge(name, name, f"s_{name}", "E")
                builder.set_attr(f"s_{name}", "w", 0.0)
        if src != dst:
            builder.edge("a", "b", "c", "E")
            builder.set_attr("c", "w", w)
        return builder.finish()

    t_orig = repro.simulate(build(lang), (0.0, 0.5), n_points=20)
    t_new = repro.simulate(build(reparsed), (0.0, 0.5), n_points=20)
    assert np.allclose(t_orig.y, t_new.y)
