"""Unit tests for the core languages and functions the parser builds:
inheritance, extern bindings, forward references and the semantic
checks the core declaration API runs on them."""

import math

import pytest

import repro
from repro.errors import FunctionError, LanguageError, ParseError
from repro.lang import (parse_function, parse_language, parse_program)


class TestLanguageLowering:
    def test_types_lowered(self):
        lang = parse_language("""
        lang l {
            ntyp(1,sum) V {attr c=real[1e-10,1e-08], attr g=real[0,inf]};
            etyp E {};
        }
        """)
        v = lang.find_node_type("V")
        assert v.order == 1
        assert v.attrs["c"].datatype.lo == pytest.approx(1e-10)
        assert lang.find_edge_type("E") is not None

    def test_mm_lowered(self):
        lang = parse_language(
            "lang l { ntyp(1,sum) V {attr c=real[0,1] mm(0,0.1)}; }")
        annotation = lang.find_node_type("V").attrs["c"].datatype.mismatch
        assert annotation.s0 == 0.0 and annotation.s1 == 0.1

    def test_const_lowered(self):
        lang = parse_language(
            "lang l { ntyp(1,sum) V {attr c=real[0,1] const}; }")
        assert lang.find_node_type("V").attrs["c"].const

    def test_rules_lowered_and_checked(self):
        with pytest.raises(LanguageError):
            parse_language("""
            lang l { ntyp(1,sum) V {};
                     prod(e:E, s:V->t:V) t <= var(s); }
            """)

    def test_inheritance_across_programs(self):
        base = parse_language("lang base { ntyp(1,sum) V {}; etyp E {};"
                              " }")
        program = parse_program(
            "lang derived inherits base { ntyp(1,sum) Vm inherit V {};"
            " }",
            languages={"base": base})
        derived = program.languages["derived"]
        assert derived.parent is base
        assert derived.find_node_type("Vm").parent is \
            base.find_node_type("V")

    def test_unknown_parent_language(self):
        with pytest.raises(LanguageError):
            parse_program("lang d inherits ghost { ntyp(1,sum) X {}; }")

    def test_parent_defined_later_is_unknown(self):
        # A language resolves its parent among the caller's languages
        # and the ones defined before it.
        with pytest.raises(LanguageError,
                           match="inherits unknown language base"):
            parse_program("lang d inherits base { ntyp(1,sum) Y {}; }"
                          " lang base { ntyp(1,sum) X {}; }")

    def test_duplicate_language_rejected(self):
        with pytest.raises(LanguageError):
            parse_program("lang a { ntyp(1,sum) X {}; }"
                          " lang a { ntyp(1,sum) Y {}; }")

    def test_extern_binding_required(self):
        with pytest.raises(LanguageError):
            parse_program("lang l { ntyp(1,sum) V {};"
                          " extern-func grid; }")

    def test_extern_binding_used(self):
        calls = []

        def grid(graph):
            calls.append(graph)
            return True

        program = parse_program(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " prod(e:E,s:V->s:V) s<=-var(s); extern-func grid; }",
            extern={"grid": grid})
        lang = program.languages["l"]
        builder = repro.GraphBuilder(lang)
        builder.node("v", "V")
        builder.edge("v", "v", "e", "E")
        repro.validate(builder.finish())
        assert calls

    def test_functions_registered(self):
        program = parse_program(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " prod(e:E,s:V->s:V) s<=boost(var(s)); }",
            functions={"boost": lambda x: 2 * x})
        assert "boost" in program.languages["l"].functions()

    def test_parse_language_requires_single(self):
        with pytest.raises(ParseError):
            parse_language("lang a { ntyp(1,sum) X {}; }"
                           " lang b { ntyp(1,sum) Y {}; }")


class TestFunctionLowering:
    BASE = """
    lang l { ntyp(1,sum) X {attr tau=real[0,10]}; etyp W
    {attr w=real[-5,5]}; prod(e:W,s:X->s:X) s<=-var(s)/s.tau;
    prod(e:W,s:X->t:X) t<=e.w*var(s)/t.tau; }
    """

    def test_function_invocable(self):
        program = parse_program(self.BASE + """
        func f (w:real[-5,5]) uses l {
            node x:X; node y:X;
            edge <x,x> sx:W; edge <y,y> sy:W;
            edge <x,y> c:W;
            set-attr x.tau=1.0; set-attr y.tau=1.0;
            set-attr sx.w=0.0;  set-attr sy.w=0.0;
            set-attr c.w=w;
            set-init x(0)=1.0;
        }
        """)
        graph = program.functions["f"](w=1.5)
        assert graph.edge("c").attrs["w"] == 1.5

    def test_uses_unknown_language(self):
        with pytest.raises(LanguageError):
            parse_program("func f () uses ghost { }")

    def test_parse_function_helper(self):
        base = parse_language(self.BASE)
        fn = parse_function("""
        func g () uses l {
            node x:X; edge <x,x> s:W;
            set-attr x.tau=1.0; set-attr s.w=0.0;
        }
        """, languages={"l": base})
        graph = fn()
        assert graph.has_node("x")

    def test_lambda_func_val_lowered(self):
        program = parse_program("""
        lang wv { ntyp(0,sum) S {attr fn=fn(a0)}; }
        func f () uses wv {
            node s:S;
            set-attr s.fn = lambd(t): t*2;
        }
        """)
        graph = program.functions["f"]()
        assert graph.node("s").attrs["fn"](3.0) == 6.0

    def test_forward_references(self):
        # A func may precede the lang it uses, and a prod or cstr the
        # types it names.
        program = parse_program("""
        func f (w:real[-5,5]) uses fwd {
            node x:X; edge <x,x> s:W;
            set-attr x.tau=1.0; set-attr s.w=w;
            set-init x(0)=1.0;
        }
        lang fwd {
            prod(e:W,s:X->s:X) s<=e.w*var(s)/s.tau;
            cstr X {acc[match(1,1,W,X)]};
            ntyp(1,sum) X {attr tau=real[0,10]};
            etyp W {attr w=real[-5,5]};
        }
        """)
        function = program.functions["f"]
        assert function.language is program.languages["fwd"]
        graph = function(w=-0.5)
        repro.validate(graph)
        assert graph.edge("s").attrs["w"] == -0.5
        result = repro.simulate(graph, (0.0, 1.0), n_points=3)
        assert result.final("x") == pytest.approx(math.exp(-0.5), rel=1e-3)

    def test_duplicate_function_rejected(self):
        with pytest.raises(LanguageError,
                           match="function f is defined twice"):
            parse_program(self.BASE + """
            func f () uses l { node x:X; }
            func f () uses l { node y:X; }
            """)

    def test_static_checks_run_at_lowering(self):
        with pytest.raises(FunctionError):
            parse_program(self.BASE + """
            func f () uses l { set-attr ghost.tau = 1.0; }
            """)
