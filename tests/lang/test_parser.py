"""Unit tests for the textual Ark parser: the core objects it builds
from each construct, and where it reports errors."""

import math
import re
from pathlib import Path

import pytest

from repro.core import function as F
from repro.core.datatypes import Mismatch, lambd
from repro.errors import ParseError
from repro.lang import parse_program


def _language(source: str, **options):
    program = parse_program(source, **options)
    (language,) = program.languages.values()
    return language


class TestLanguageSyntax:
    def test_minimal_language(self):
        lang = _language("lang tiny { ntyp(1,sum) X {}; etyp E {}; }")
        assert lang.name == "tiny"
        assert list(lang.node_types()) == ["X"]
        assert list(lang.edge_types()) == ["E"]

    def test_dashed_language_name(self):
        program = parse_program("lang gmc-tln { ntyp(1,sum) X {}; }")
        assert list(program.languages) == ["gmc-tln"]

    def test_dash_with_spaces_not_joined(self):
        with pytest.raises(ParseError):
            parse_program("lang gmc - tln { }")

    def test_inherits(self):
        program = parse_program(
            "lang a { ntyp(1,sum) X {}; }"
            " lang b inherits a { ntyp(1,sum) Y inherit X {}; }")
        a, b = program.languages["a"], program.languages["b"]
        assert b.parent is a
        assert b.find_node_type("Y").parent is a.find_node_type("X")

    def test_node_type_attrs(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {attr c=real[1e-10,1e-08],"
            " attr g=real[0,inf]}; }")
        attrs = list(lang.find_node_type("V").attrs.values())
        assert attrs[0].name == "c"
        assert attrs[0].datatype.lo == pytest.approx(1e-10)
        assert math.isinf(attrs[1].datatype.hi)

    def test_mm_annotation(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {attr c=real[0,1] mm(0,0.1)}; }")
        datatype = lang.find_node_type("V").attrs["c"].datatype
        assert datatype.mismatch == Mismatch(0.0, 0.1)

    def test_const_marker(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {attr c=real[0,1] const}; }")
        assert lang.find_node_type("V").attrs["c"].const

    def test_lambda_datatypes(self):
        lang = _language(
            "lang l { ntyp(0,sum) S {attr fn=fn(a0),"
            " attr g2=lambd(a0,a1)}; }")
        attrs = lang.find_node_type("S").attrs
        assert attrs["fn"].datatype == lambd(1)
        assert attrs["g2"].datatype == lambd(2)

    def test_init_declaration(self):
        lang = _language(
            "lang l { ntyp(2,sum) V {attr c=real[0,1],"
            " init(0) real[-1,1], init(1) real[-1,1]}; }")
        inits = lang.find_node_type("V").inits
        assert [inits[i].index for i in sorted(inits)] == [0, 1]
        assert inits[1].datatype.lo == -1.0

    def test_fixed_edge_type(self):
        lang = _language("lang l { etyp fixed F {}; edge-type G fixed"
                         " {}; }")
        assert lang.find_edge_type("F").fixed
        assert lang.find_edge_type("G").fixed

    def test_negative_bounds(self):
        lang = _language("lang l { ntyp(1,sum) V {attr z=real[-10,10]};"
                         " }")
        assert lang.find_node_type("V").attrs["z"].datatype.lo == -10.0

    def test_long_form_keywords(self):
        lang = _language(
            "lang l { node-type(1,sum) X {}; edge-type E {}; }")
        assert list(lang.node_types()) == ["X"]

    def test_unknown_statement_rejected(self):
        with pytest.raises(ParseError):
            parse_program("lang l { banana X {}; }")


class TestProdSyntax:
    def test_basic(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {attr c=real[0,1]}; etyp E {};"
            " prod(e:E, s:V->t:V) s <= -var(t)/s.c; }")
        rule = lang.productions()[0]
        assert rule.edge_type == "E"
        assert rule.target == "s"
        assert not rule.off

    def test_off_suffix(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " prod(e:E, s:V->t:V) t <= 1e-12*var(s) off; }")
        assert lang.productions()[0].off

    def test_self_rule(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " prod(e:E, s:V->s:V) s <= -var(s); }")
        rule = lang.productions()[0]
        assert rule.src_role == rule.dst_role


class TestCstrSyntax:
    def test_acc_patterns(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {}; ntyp(1,sum) I {}; etyp E {};"
            " cstr V {acc[match(0,inf,E,V->[I]), match(1,1,E,V),"
            " match(0,1,E,[I]->V)]}; }")
        clauses = lang.constraints()[0].patterns[0].clauses
        assert [c.kind for c in clauses] == ["out", "self", "in"]

    def test_acc_and_rej(self):
        lang = _language(
            "lang l { ntyp(1,sum) V {}; etyp E {};"
            " cstr V {acc[match(0,inf,E,V->[V])]"
            " rej[match(2,inf,E,V->[V])]}; }")
        patterns = lang.constraints()[0].patterns
        assert [p.polarity for p in patterns] == ["acc", "rej"]

    def test_fig13_self_form(self):
        lang = _language(
            "lang l { ntyp(1,sum) O {}; etyp C {};"
            " cstr O {acc[match(1,1,C,O)]}; }")
        clause = lang.constraints()[0].patterns[0].clauses[0]
        assert clause.kind == "self"

    @pytest.mark.parametrize("bounds", ["0.5,1.5", "1e0,2"])
    def test_fractional_cardinality_rejected(self, bounds):
        # A cardinality is a non-negative integer or inf: printing a
        # fractional one would silently change the rule.
        with pytest.raises(ParseError, match="line 3"):
            parse_program("lang l { ntyp(1,sum) O {}; etyp C {};\n"
                          " cstr O {acc[match(1,1,C,O),\n"
                          f" match({bounds},C,O->[O])]}}; }}")

    def test_extern_func(self):
        def grid_check(graph):
            return True

        lang = _language("lang l { ntyp(1,sum) V {};"
                         " extern-func grid_check; }",
                         extern={"grid_check": grid_check})
        assert lang.extern_checks() == [("grid_check", grid_check)]


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
        program = parse_program(self.SRC)
        fn = program.functions["br-func"]
        assert fn.name == "br-func"
        assert fn.language is program.languages["l"]
        assert [a.name for a in fn.args] == ["br", "w"]

    def test_statement_kinds(self):
        statements = parse_program(self.SRC).functions["br-func"].statements
        kinds = [type(s).__name__ for s in statements]
        assert kinds == ["NodeStmt", "NodeStmt", "EdgeStmt",
                         "SetAttrStmt", "SetAttrStmt", "SetAttrStmt",
                         "SetInitStmt", "SetSwitchStmt"]

    def test_arg_reference_value(self):
        statements = parse_program(self.SRC).functions["br-func"].statements
        assert statements[5].value == F.ArgRef("w")

    def test_lambda_value(self):
        program = parse_program("""
        lang l { ntyp(0,sum) S {attr fn=fn(a0)}; }
        func f () uses l {
            node s:S;
            set-attr s.fn = lambd(t): sin(t)*2;
        }
        """)
        value = program.functions["f"].statements[1].value
        assert isinstance(value, F.LambdaVal)
        assert value.params == ("t",)

    def test_set_edge_alias(self):
        program = parse_program("""
        lang l { ntyp(1,sum) X {}; etyp W {}; }
        func f (b:int[0,1]) uses l {
            node x:X; edge <x,x> e:W;
            set-edge e when b;
        }
        """)
        assert isinstance(program.functions["f"].statements[-1],
                          F.SetSwitchStmt)

    def test_dotted_function_arg(self):
        program = parse_program("""
        lang l { ntyp(1,sum) X {attr tau=real[0,10]}; }
        func f (x.tau:real[0,10]) uses l { node x:X; }
        """)
        arg = program.functions["f"].args[0]
        assert arg.applies_to == ("x", "tau")
        assert arg.datatype.hi == 10.0

    def test_unknown_statement(self):
        with pytest.raises(ParseError):
            parse_program("""
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
        "init": "lang l {\n ntyp(13,sum) X {\n init(@)=real[0,1]}; }",
        "set-init": ("lang l { ntyp(2,sum) X {}; }\n"
                     "func f () uses l {\n node x:X;\n"
                     " set-init x(@)=1.0; }"),
    }

    @pytest.mark.parametrize("text", ["1.7", "0.9", "1e0", "-1"])
    @pytest.mark.parametrize("field", sorted(SOURCES))
    def test_non_integer_rejected_at_token(self, field, text):
        source = self.SOURCES[field].replace("@", text)
        with pytest.raises(ParseError, match="non-negative integer") \
                as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == \
            _located(source, text)

    def test_integer_fields_read_exactly(self):
        source = self.SOURCES["set-init"].replace("@", "1")
        function = parse_program(source).functions["f"]
        assert function.statements[-1].index == 1
        source = self.SOURCES["init"].replace("@", "12")
        node_type = _language(source).find_node_type("X")
        assert node_type.inits[12].index == 12

    @pytest.mark.parametrize("edit", [("ntyp(1,sum)", "ntyp(1.7,sum)"),
                                      ("x0(0)=1.0", "x0(0.9)=1.0")])
    def test_cli_info_exits_2(self, edit, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "two_pole.ark"
        path.write_text(TWO_POLE.read_text().replace(*edit))
        assert main(["info", str(path)]) == 2
        assert "non-negative integer" in capsys.readouterr().err


#: Datatypes of ``two_pole.ark`` edited into ones the core constructors
#: reject: (original, edited, the constructor's message).
BAD_DATATYPES = {
    "real[2,1]": ("real[0.1,10]", "real[2,1]",
                  "real range is empty: [2.0, 1.0]"),
    "mm(-1,0)": ("real[0.1,10]", "real[0.1,10] mm(-1,0)",
                 "mismatch deviations must be non-negative, got "
                 "mm(-1.0, 0.0)"),
    "int[0.5,3]": ("int[0,1]", "int[0.5,3]",
                   "int bounds must be finite integers, got [0.5, 3.0]"),
    "int[0.5,3.7]": ("int[0,1]", "int[0.5,3.7]",
                     "int bounds must be finite integers, got "
                     "[0.5, 3.7]"),
    "int[0,inf]": ("real[-5,5]", "int[0,inf]",
                   "int bounds must be finite integers, got "
                   "[0.0, inf]"),
}


def _bad_datatype_source(name: str) -> str:
    original, edited, _message = BAD_DATATYPES[name]
    return TWO_POLE.read_text().replace(original, edited, 1)


class TestRulePositions:
    """A rule or datatype the core constructors reject is reported at
    its first token, with the constructor's message unchanged."""

    def test_production_target_error_has_line(self):
        source = TWO_POLE.read_text().replace("s:X->s:X) s <=",
                                              "s:X->s:X) q <=")
        line, _column = _located(source, "q <=")
        with pytest.raises(ParseError,
                           match="production rule target `q` must be"
                           ) as info:
            parse_program(source)
        assert info.value.line == line
        assert f"at line {line}" in str(info.value)

    def test_match_cardinality_error_has_line(self):
        source = TWO_POLE.read_text().replace("match(1,1,W,X)",
                                              "match(2,1,W,X)")
        line, column = _located(source, "match(2,1")
        with pytest.raises(ParseError,
                           match=r"match cardinality \[2,1\] is invalid"
                           ) as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == (line, column)

    @pytest.mark.parametrize("name", sorted(BAD_DATATYPES))
    def test_datatype_error_has_line_and_column(self, name):
        _original, edited, message = BAD_DATATYPES[name]
        source = _bad_datatype_source(name)
        with pytest.raises(ParseError, match=re.escape(message)) as info:
            parse_program(source)
        assert (info.value.line, info.value.column) == \
            _located(source, edited)

    @pytest.mark.parametrize("name", ["int[0,inf]", "int[0.5,3.7]",
                                      "real[2,1]"])
    def test_datatype_error_cli_exits_2(self, name, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "two_pole.ark"
        path.write_text(_bad_datatype_source(name))
        assert main(["info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " at line " in err
        assert "Traceback" not in err
