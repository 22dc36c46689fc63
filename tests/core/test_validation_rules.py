"""Unit tests for validity-rule structures and their string parsers."""

import math

import pytest

from repro.core.language import Language
from repro.core.validation import (IN, OUT, SELF, ConstraintRule,
                                   MatchClause, Pattern, parse_constraint,
                                   parse_match)
from repro.errors import LanguageError


class TestMatchClause:
    def test_out_clause(self):
        clause = MatchClause(0, math.inf, "E", OUT, ("I",))
        assert clause.kind == OUT

    def test_self_clause_needs_no_types(self):
        MatchClause(1, 1, "E", SELF)

    def test_in_out_need_types(self):
        with pytest.raises(LanguageError):
            MatchClause(0, 1, "E", IN, ())

    def test_invalid_cardinality(self):
        with pytest.raises(LanguageError):
            MatchClause(2, 1, "E", SELF)
        with pytest.raises(LanguageError):
            MatchClause(-1, 1, "E", SELF)

    def test_unknown_kind(self):
        with pytest.raises(LanguageError):
            MatchClause(0, 1, "E", "sideways", ("I",))


class TestParseMatch:
    def test_outgoing(self):
        clause = parse_match("match(0,inf,E,V->[I])")
        assert clause.kind == OUT
        assert clause.node_types == ("I",)
        assert math.isinf(clause.hi)

    def test_incoming(self):
        clause = parse_match("match(0,1,E,[V,InpV,InpI]->I)")
        assert clause.kind == IN
        assert clause.node_types == ("V", "InpV", "InpI")
        assert clause.hi == 1

    def test_self_three_args(self):
        clause = parse_match("match(1,1,E)")
        assert clause.kind == SELF

    def test_self_fig13_form(self):
        clause = parse_match("match(1,1,Cpl_l,Osc_G0)")
        assert clause.kind == SELF
        assert clause.edge_type == "Cpl_l"

    def test_cardinalities(self):
        clause = parse_match("match(4,9,fE,[Out]->V)")
        assert (clause.lo, clause.hi) == (4, 9)

    def test_rejects_garbage(self):
        with pytest.raises(LanguageError):
            parse_match("match(1)")
        with pytest.raises(LanguageError):
            parse_match("notmatch(1,1,E)")
        with pytest.raises(LanguageError):
            parse_match("match(1,1,E,V->[I]) extra")
        with pytest.raises(LanguageError, match="line 1, column 7"):
            parse_match("match(0.5,1.5,E,V)")
        with pytest.raises(LanguageError, match="1e0"):
            parse_match("match(1e0,2,E,V)")


class TestParseConstraint:
    def test_fig7_v_constraint(self):
        rule = parse_constraint(
            "cstr V {acc[match(0,inf,E,V->[I]), match(0,inf,E,[I]->V),"
            " match(0,inf,E,[InpV]->V), match(0,inf,E,[InpI]->V),"
            " match(1,1,E,V)]}")
        assert rule.node_type == "V"
        assert len(rule.accepted) == 1
        assert len(rule.accepted[0].clauses) == 5

    def test_multiple_patterns(self):
        rule = parse_constraint(
            "cstr X {acc[match(1,1,E,X)] rej[match(2,inf,E,X->[X])]}")
        assert len(rule.accepted) == 1
        assert len(rule.rejected) == 1

    def test_vn_colon_form(self):
        rule = parse_constraint("cstr n:V {acc[match(1,1,E,V)]}")
        assert rule.node_type == "V"

    def test_pattern_polarity_validated(self):
        with pytest.raises(LanguageError):
            Pattern("maybe", (MatchClause(1, 1, "E", SELF),))

    def test_describe_round_trips(self):
        rule = parse_constraint(
            "cstr V {acc[match(0,inf,E,V->[I]), match(1,1,E,V)]}")
        again = parse_constraint(rule.describe())
        assert again.node_type == rule.node_type
        assert len(again.accepted[0].clauses) == \
            len(rule.accepted[0].clauses)

    def test_rejects_bad_body(self):
        with pytest.raises(LanguageError):
            parse_constraint("cstr V {nonsense[match(1,1,E)]}")
        with pytest.raises(LanguageError):
            parse_constraint("cstr V {acc[match(1,1,E,V)]} trailing junk")
        with pytest.raises(LanguageError):
            parse_constraint("cstr V {acc[match(1,1,E,V) junk]}")
        with pytest.raises(LanguageError):
            Language("l").cstr("cstr V {acc[match(1,1,E,V->[I]]}")


class TestConstraintRule:
    def test_accepted_rejected_partition(self):
        acc = Pattern("acc", (MatchClause(1, 1, "E", SELF),))
        rej = Pattern("rej", (MatchClause(0, 0, "E", SELF),))
        rule = ConstraintRule("V", (acc, rej))
        assert rule.accepted == (acc,)
        assert rule.rejected == (rej,)
