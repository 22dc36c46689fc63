"""Tests for attribute inlining and expression simplification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

import repro
from repro.core import expr as E
from repro.core.compiler import compile_graph
from repro.core.exprparse import parse_expression
from repro.core.simplify import inline_attributes, simplify
from repro.sim.batch_codegen import generate_batch_source


def _lookup(values):
    return lambda kind, owner, attr: values.get((kind, owner, attr))


class TestInlineAttributes:
    def test_numeric_attr_becomes_const(self):
        expr = parse_expression("e.w*var(s)")
        rewritten = expr.substitute(
            {"e": E.Substitution("E0", "edge"),
             "s": E.Substitution("x", "node")})
        inlined = inline_attributes(
            rewritten, _lookup({("edge", "E0", "w"): 2.5}))
        consts = [n for n in inlined.walk() if isinstance(n, E.Const)]
        assert any(c.value == 2.5 for c in consts)
        assert not any(isinstance(n, E.AttrRef)
                       for n in inlined.walk())

    def test_callable_attr_left_alone(self):
        expr = parse_expression("s.fn(time)")
        rewritten = expr.substitute(
            {"s": E.Substitution("u", "node")})
        inlined = inline_attributes(
            rewritten, _lookup({("node", "u", "fn"): lambda t: t}))
        assert any(isinstance(n, E.LambdaCall)
                   for n in inlined.walk())

    def test_missing_attr_left_alone(self):
        expr = E.AttrRef("x", "c", "node")
        assert inline_attributes(expr, _lookup({})) is expr


class TestSimplify:
    @pytest.mark.parametrize("source,expected", [
        ("1 + 2", 3.0),
        ("2 * 3 - 1", 5.0),
        ("2 ^ 3", 8.0),
        ("-(4)", -4.0),
        ("sin(0)", 0.0),
        ("sqrt(4)", 2.0),
    ])
    def test_constant_folding(self, source, expected):
        assert simplify(parse_expression(source)) == E.Const(expected)

    @pytest.mark.parametrize("source", [
        "var(s) + 0", "0 + var(s)", "var(s) - 0", "var(s) * 1",
        "1 * var(s)", "var(s) / 1", "var(s) ^ 1",
    ])
    def test_identities_reduce_to_var(self, source):
        assert simplify(parse_expression(source)) == E.VarOf("s")

    @pytest.mark.parametrize("source", ["var(s) * 0", "0 * var(s)"])
    def test_zero_annihilates(self, source):
        assert simplify(parse_expression(source)) == E.Const(0.0)

    def test_if_folds_on_constant_condition(self):
        expr = parse_expression("if 1 < 2 then var(s) else var(t)")
        assert simplify(expr) == E.VarOf("s")

    def test_boolean_folding(self):
        expr = parse_expression("1 < 2 and var(s) > 0")
        simplified = simplify(expr)
        assert simplified == E.Compare(">", E.VarOf("s"), E.Const(0.0))

    def test_division_by_zero_not_folded(self):
        expr = parse_expression("1 / 0")
        assert isinstance(simplify(expr), E.BinOp)

    def test_nonpure_function_not_folded(self):
        # `sat` is language-defined, so it must survive even with
        # constant arguments.
        expr = E.Call("sat", (E.Const(0.5),))
        assert simplify(expr) == expr

    def test_nested_collapse(self):
        expr = parse_expression("(2*3)*var(s) + (1-1)*var(t)")
        simplified = simplify(expr)
        assert simplified == E.BinOp("*", E.Const(6.0), E.VarOf("s"))


class Env(E.EvalContext):
    def time(self):
        return 1.25

    def var(self, node):
        return {"s": 0.75, "t": -0.5}[node]

    def attr(self, kind, owner, attr):
        return {"c": 2.0, "g": 0.5, "k": -1.0, "w": 3.0}[attr]


@given(__import__("tests.property.test_prop_exprparse",
                  fromlist=["expressions"]).expressions())
@settings(max_examples=150, deadline=None)
def test_simplify_preserves_semantics(expr):
    env = Env()
    try:
        original = expr.evaluate(env)
    except (ZeroDivisionError, OverflowError, ValueError):
        return  # undefined inputs: simplifier makes no promises
    result = simplify(expr).evaluate(env)
    if isinstance(original, float) and math.isnan(original):
        assert isinstance(result, float) and math.isnan(result)
    else:
        assert result == pytest.approx(original, rel=1e-12, abs=1e-12)


class TestCodegenIntegration:
    def test_zero_weight_terms_disappear(self):
        lang = repro.Language("opt")
        lang.node_type("X", order=1)
        lang.edge_type("W", attrs=[("w", repro.real(-5, 5))])
        lang.prod("prod(e:W,s:X->s:X) s<=-var(s)")
        lang.prod("prod(e:W,s:X->t:X) t<=e.w*var(s)")
        builder = repro.GraphBuilder(lang)
        builder.node("a", "X").set_init("a", 1.0)
        builder.node("b", "X").set_init("b", 0.0)
        builder.edge("a", "a", "sa", "W").set_attr("sa", "w", 0.0)
        builder.edge("b", "b", "sb", "W").set_attr("sb", "w", 0.0)
        builder.edge("a", "b", "c", "W").set_attr("c", "w", 0.0)
        system = compile_graph(builder.finish())
        source = generate_batch_source(system, {}, fuse=False)
        # The zero-weight coupling must be gone from dy[1].
        dy1_line = [line for line in source.splitlines()
                    if line.strip().startswith("dy[1]")][0]
        assert "var" not in dy1_line and "y[0]" not in dy1_line

    def test_cnn_codegen_shrinks(self):
        from repro.paradigms.cnn import default_image, edge_detector
        system = compile_graph(edge_detector(default_image(8)))
        source = generate_batch_source(system, {})
        # EDGE template: 8 of 9 A-template weights are zero, so the
        # optimized source must be much smaller than 1 term per edge.
        n_terms = source.count("y[")
        n_edges = sum(1 for _ in system.graph.edges)
        assert n_terms < n_edges

    def test_backends_still_agree_after_optimization(self):
        from repro.paradigms.cnn import default_image, edge_detector
        system = compile_graph(edge_detector(default_image(8)))
        rng = np.random.default_rng(0)
        y = rng.normal(size=system.n_states)
        a = system.rhs("interpreter")(0.3, y)
        b = system.rhs("codegen")(0.3, y)
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)
