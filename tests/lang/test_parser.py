"""Unit tests for the textual Ark parser (syntax level)."""

import math
from pathlib import Path

import pytest

from repro.errors import ParseError
from repro.lang import parse
from repro.lang import ast


class TestLanguageSyntax:
    def test_minimal_language(self):
        program = parse("lang tiny { ntyp(1,sum) X {}; etyp E {}; }")
        lang = program.languages[0]
        assert lang.name == "tiny"
        assert lang.node_types[0].name == "X"
        assert lang.edge_types[0].name == "E"

    def test_dashed_language_name(self):
        program = parse("lang gmc-tln { ntyp(1,sum) X {}; }")
        assert program.languages[0].name == "gmc-tln"

    def test_dash_with_spaces_not_joined(self):
        with pytest.raises(ParseError):
            parse("lang gmc - tln { }")

    def test_inherits(self):
        program = parse("lang a { ntyp(1,sum) X {}; }"
                        " lang b inherits a { ntyp(1,sum) Y inherit X"
                        " {}; }")
        assert program.languages[1].inherits == "a"
        assert program.languages[1].node_types[0].inherits == "X"

    def test_node_type_attrs(self):
        program = parse(
            "lang l { ntyp(1,sum) V {attr c=real[1e-10,1e-08],"
            " attr g=real[0,inf]}; }")
        attrs = program.languages[0].node_types[0].attrs
        assert attrs[0].name == "c"
        assert attrs[0].sig.lo == pytest.approx(1e-10)
        assert math.isinf(attrs[1].sig.hi)

    def test_mm_annotation(self):
        program = parse(
            "lang l { ntyp(1,sum) V {attr c=real[0,1] mm(0,0.1)}; }")
        sig = program.languages[0].node_types[0].attrs[0].sig
        assert sig.mm == (0.0, 0.1)

    def test_const_marker(self):
        program = parse(
            "lang l { ntyp(1,sum) V {attr c=real[0,1] const}; }")
        assert program.languages[0].node_types[0].attrs[0].sig.const

    def test_lambda_datatypes(self):
        program = parse(
            "lang l { ntyp(0,sum) S {attr fn=fn(a0),"
            " attr g2=lambd(a0,a1)}; }")
        attrs = program.languages[0].node_types[0].attrs
        assert attrs[0].sig.kind == "lambda" and attrs[0].sig.arity == 1
        assert attrs[1].sig.arity == 2

    def test_init_declaration(self):
        program = parse(
            "lang l { ntyp(2,sum) V {attr c=real[0,1],"
            " init(0) real[-1,1], init(1) real[-1,1]}; }")
        inits = program.languages[0].node_types[0].inits
        assert [i.index for i in inits] == [0, 1]

    def test_fixed_edge_type(self):
        program = parse("lang l { etyp fixed F {}; edge-type G fixed"
                        " {}; }")
        assert program.languages[0].edge_types[0].fixed
        assert program.languages[0].edge_types[1].fixed

    def test_negative_bounds(self):
        program = parse("lang l { ntyp(1,sum) V {attr z=real[-10,10]};"
                        " }")
        sig = program.languages[0].node_types[0].attrs[0].sig
        assert sig.lo == -10.0

    def test_long_form_keywords(self):
        program = parse(
            "lang l { node-type(1,sum) X {}; edge-type E {}; }")
        assert program.languages[0].node_types[0].name == "X"

    def test_unknown_statement_rejected(self):
        with pytest.raises(ParseError):
            parse("lang l { banana X {}; }")


class TestProdSyntax:
    def test_basic(self):
        program = parse(
            "lang l { ntyp(1,sum) V {attr c=real[0,1]}; etyp E {};"
            " prod(e:E, s:V->t:V) s <= -var(t)/s.c; }")
        rule = program.languages[0].prods[0]
        assert rule.edge_type == "E"
        assert rule.target == "s"
        assert not rule.off

    def test_off_suffix(self):
        program = parse(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " prod(e:E, s:V->t:V) t <= 1e-12*var(s) off; }")
        assert program.languages[0].prods[0].off

    def test_self_rule(self):
        program = parse(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " prod(e:E, s:V->s:V) s <= -var(s); }")
        rule = program.languages[0].prods[0]
        assert rule.src_role == rule.dst_role


class TestCstrSyntax:
    def test_acc_patterns(self):
        program = parse(
            "lang l { ntyp(1,sum) V {}; ntyp(1,sum) I {}; etyp E {};"
            " cstr V {acc[match(0,inf,E,V->[I]), match(1,1,E,V),"
            " match(0,1,E,[I]->V)]}; }")
        cstr = program.languages[0].cstrs[0]
        clauses = cstr.patterns[0].clauses
        assert [c.kind for c in clauses] == ["out", "self", "in"]

    def test_acc_and_rej(self):
        program = parse(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " cstr V {acc[match(0,inf,E,V->[V])]"
            " rej[match(2,inf,E,V->[V])]}; }")
        cstr = program.languages[0].cstrs[0]
        assert [p.polarity for p in cstr.patterns] == ["acc", "rej"]

    def test_fig13_self_form(self):
        program = parse(
            "lang l { ntyp(1,sum) O {}; etyp C {};"
            " cstr O {acc[match(1,1,C,O)]}; }")
        clause = program.languages[0].cstrs[0].patterns[0].clauses[0]
        assert clause.kind == "self"

    @pytest.mark.parametrize("bounds", ["0.5,1.5", "1e0,2"])
    def test_fractional_cardinality_rejected(self, bounds):
        # A cardinality is a non-negative integer or inf: printing a
        # fractional one would silently change the rule.
        with pytest.raises(ParseError, match="line 3"):
            parse("lang l { ntyp(1,sum) O {}; etyp C {};\n"
                  " cstr O {acc[match(1,1,C,O),\n"
                  f" match({bounds},C,O->[O])]}}; }}")

    def test_extern_func(self):
        program = parse("lang l { ntyp(1,sum) V {};"
                        " extern-func grid_check; }")
        assert program.languages[0].externs[0].name == "grid_check"


class TestFuncSyntax:
    SRC = """
    lang l { ntyp(1,sum) X {attr tau=real[0,10]}; etyp W {attr
    w=real[-5,5]}; }
    func br-func (br:int[0,1], w:real[-5,5]) uses l {
        node x0:X; node x1:X;
        edge <x0,x1> e0:W;
        set-attr x0.tau = 1.0;
        set-attr x1.tau = 2.0;
        set-attr e0.w = w;
        set-init x0(0) = 1.0;
        set-switch e0 when br == 1;
    }
    """

    def test_function_parsed(self):
        program = parse(self.SRC)
        fn = program.functions[0]
        assert fn.name == "br-func"
        assert fn.uses == "l"
        assert [a.name for a in fn.args] == ["br", "w"]

    def test_statement_kinds(self):
        program = parse(self.SRC)
        statements = program.functions[0].statements
        kinds = [type(s).__name__ for s in statements]
        assert kinds == ["NodeStmtAst", "NodeStmtAst", "EdgeStmtAst",
                         "SetAttrAst", "SetAttrAst", "SetAttrAst",
                         "SetInitAst", "SetSwitchAst"]

    def test_arg_reference_value(self):
        program = parse(self.SRC)
        set_w = program.functions[0].statements[5]
        assert set_w.value.kind == "arg"
        assert set_w.value.value == "w"

    def test_lambda_value(self):
        program = parse("""
        lang l { ntyp(0,sum) S {attr fn=fn(a0)}; }
        func f () uses l {
            node s:S;
            set-attr s.fn = lambd(t): sin(t)*2;
        }
        """)
        value = program.functions[0].statements[1].value
        assert value.kind == "lambda"
        assert value.value.params == ("t",)

    def test_set_edge_alias(self):
        program = parse("""
        lang l { ntyp(1,sum) X {}; etyp W {}; }
        func f (b:int[0,1]) uses l {
            node x:X; edge <x,x> e:W;
            set-edge e when b;
        }
        """)
        assert isinstance(program.functions[0].statements[-1],
                          ast.SetSwitchAst)

    def test_dotted_function_arg(self):
        program = parse("""
        lang l { ntyp(1,sum) X {attr tau=real[0,10]}; }
        func f (x.tau:real[0,10]) uses l { node x:X; }
        """)
        arg = program.functions[0].args[0]
        assert arg.applies_to == ("x", "tau")

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse("""
            lang l { ntyp(1,sum) X {}; }
            func f () uses l { destroy x; }
            """)


TWO_POLE = Path(__file__).parents[2] / "examples" / "ark" / "two_pole.ark"


def _located(source: str, token: str) -> tuple[int, int]:
    """1-based (line, column) of the first ``token`` in ``source``."""
    for number, line in enumerate(source.splitlines(), start=1):
        if token in line:
            return number, line.index(token) + 1
    raise AssertionError(f"{token!r} not in source")


class TestIntegerFields:
    """Node orders and init indices are non-negative integer literals:
    a fraction, exponent or sign is an error at its token, never a
    silently truncated float."""

    SOURCES = {
        "order": "lang l {\n ntyp(@,sum) X {}; }",
        "init": "lang l {\n ntyp(1,sum) X {\n init(@)=real[0,1]}; }",
        "set-init": ("lang l { ntyp(1,sum) X {}; }\n"
                     "func f () uses l {\n node x:X;\n"
                     " set-init x(@)=1.0; }"),
    }

    @pytest.mark.parametrize("text", ["1.7", "0.9", "1e0", "-1"])
    @pytest.mark.parametrize("field", sorted(SOURCES))
    def test_non_integer_rejected_at_token(self, field, text):
        source = self.SOURCES[field].replace("@", text)
        with pytest.raises(ParseError, match="non-negative integer") \
                as info:
            parse(source)
        assert (info.value.line, info.value.column) == \
            _located(source, text)

    def test_integer_fields_read_exactly(self):
        source = self.SOURCES["set-init"].replace("@", "1")
        assert parse(source).functions[0].statements[-1].index == 1
        source = self.SOURCES["init"].replace("@", "12")
        node_type = parse(source).languages[0].node_types[0]
        assert node_type.inits[0].index == 12

    @pytest.mark.parametrize("edit", [("ntyp(1,sum)", "ntyp(1.7,sum)"),
                                      ("x0(0)=1.0", "x0(0.9)=1.0")])
    def test_cli_info_exits_2(self, edit, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "two_pole.ark"
        path.write_text(TWO_POLE.read_text().replace(*edit))
        assert main(["info", str(path)]) == 2
        assert "non-negative integer" in capsys.readouterr().err


class TestRulePositions:
    """A rule the core constructors reject is reported at the rule's
    first token, with the constructor's message unchanged."""

    def test_production_target_error_has_line(self):
        source = TWO_POLE.read_text().replace("s:X->s:X) s <=",
                                              "s:X->s:X) q <=")
        line, _column = _located(source, "q <=")
        with pytest.raises(ParseError,
                           match="production rule target `q` must be"
                           ) as info:
            parse(source)
        assert info.value.line == line
        assert f"at line {line}" in str(info.value)

    def test_match_cardinality_error_has_line(self):
        source = TWO_POLE.read_text().replace("match(1,1,W,X)",
                                              "match(2,1,W,X)")
        line, column = _located(source, "match(2,1")
        with pytest.raises(ParseError,
                           match=r"match cardinality \[2,1\] is invalid"
                           ) as info:
            parse(source)
        assert (info.value.line, info.value.column) == (line, column)
