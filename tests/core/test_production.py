"""Unit tests for production rules: parsing, semantic checks, and the
most-specific lookup with inheritance fallback."""

import pytest

from repro.core.production import (ProductionRule, RuleTable,
                                   parse_production)
from repro.core.types import EdgeType, NodeType, Reduction
from repro.errors import CompileError, LanguageError


class TestParseProduction:
    def test_paper_rule(self):
        rule = parse_production("prod(e:E,s:V->t:I) s<=-var(t)/s.c")
        assert rule.edge_type == "E"
        assert rule.src_type == "V"
        assert rule.dst_type == "I"
        assert rule.target == "s"
        assert not rule.off
        assert not rule.is_self_rule

    def test_without_prod_keyword(self):
        rule = parse_production("(e:E, s:V->t:I) t <= var(s)/t.l")
        assert rule.target == "t"

    def test_self_rule(self):
        rule = parse_production("prod(e:E,s:V->s:V) s<=-s.g/s.c*var(s)")
        assert rule.is_self_rule
        assert rule.targets_source

    def test_off_rule(self):
        rule = parse_production("prod(e:E,s:V->t:I) t<=1e-12*var(s) off")
        assert rule.off
        # An explicit off= overrides the suffix either way.
        assert not parse_production("prod(e:E,s:V->t:I) t<=var(s) off",
                                    off=False).off
        assert parse_production("prod(e:E,s:V->t:I) t<=var(s)",
                                off=True).off

    def test_trailing_semicolon(self):
        rule = parse_production("prod(e:E,s:V->t:I) s<=-var(t)/s.c;")
        assert rule.target == "s"

    def test_missing_body_rejected(self):
        with pytest.raises(LanguageError):
            parse_production("prod(e:E,s:V->t:I) novalue")
        # The column counts from the start of the rule text.
        with pytest.raises(LanguageError, match="line 1, column 30"):
            parse_production("prod(e:E,s:V->t:I) s<=var(t) garbage")

    def test_malformed_head_rejected(self):
        with pytest.raises(LanguageError):
            parse_production("prod(e:E) s<=1")

    def test_unbalanced_parens_rejected(self):
        with pytest.raises(LanguageError):
            parse_production("prod(e:E,s:V->t:I s<=1")
        with pytest.raises(LanguageError, match="column"):
            parse_production("prod(e:E,s:V->t:I) t<=var(s")


class TestRuleSemantics:
    def test_target_must_be_endpoint(self):
        with pytest.raises(LanguageError):
            parse_production("prod(e:E,s:V->t:I) q<=var(s)")

    def test_expression_scope_checked(self):
        with pytest.raises(LanguageError):
            parse_production("prod(e:E,s:V->t:I) s<=var(other)")

    def test_self_rule_type_consistency(self):
        with pytest.raises(LanguageError):
            ProductionRule("e", "E", "s", "V", "s", "I", "s",
                           parse_production(
                               "prod(e:E,s:V->t:I) s<=1").expr)

    def test_signature_distinguishes_target(self):
        a = parse_production("prod(e:E,s:V->t:I) s<=-var(t)/s.c")
        b = parse_production("prod(e:E,s:V->t:I) t<=var(s)/t.l")
        assert a.signature() != b.signature()

    def test_describe_round_trips(self):
        rule = parse_production("prod(e:E,s:V->t:I) s<=-var(t)/s.c")
        again = parse_production(rule.describe())
        assert again.signature() == rule.signature()


def _type_universe():
    v = NodeType("V", order=1, reduction=Reduction.SUM)
    i = NodeType("I", order=1, reduction=Reduction.SUM)
    vm = NodeType("Vm", order=1, reduction=Reduction.SUM, parent=v)
    im = NodeType("Im", order=1, reduction=Reduction.SUM, parent=i)
    e = EdgeType("E")
    em = EdgeType("Em", parent=e)
    return {"V": v, "I": i, "Vm": vm, "Im": im}, {"E": e, "Em": em}


class TestRuleLookup:
    def _table(self, rules):
        nodes, edges = _type_universe()
        parsed = [parse_production(r) for r in rules]
        return RuleTable(parsed, nodes, edges), nodes, edges

    def test_exact_match(self):
        table, nodes, edges = self._table(
            ["prod(e:E,s:V->t:I) s<=-var(t)",
             "prod(e:E,s:V->t:I) t<=var(s)"])
        winners = table.lookup(edges["E"], nodes["V"], nodes["I"])
        assert len(winners) == 2
        targets = {rule.target for rule in winners}
        assert targets == {"s", "t"}

    def test_fallback_to_parent_types(self):
        table, nodes, edges = self._table(
            ["prod(e:E,s:V->t:I) t<=var(s)"])
        winners = table.lookup(edges["Em"], nodes["Vm"], nodes["Im"])
        assert len(winners) == 1
        assert winners[0].edge_type == "E"

    def test_most_specific_wins(self):
        table, nodes, edges = self._table(
            ["prod(e:E,s:V->t:I) t<=var(s)",
             "prod(e:Em,s:V->t:I) t<=2*var(s)"])
        winners = table.lookup(edges["Em"], nodes["V"], nodes["I"])
        assert winners[0].edge_type == "Em"
        # The base edge still resolves to the base rule.
        winners = table.lookup(edges["E"], nodes["V"], nodes["I"])
        assert winners[0].edge_type == "E"

    def test_ambiguity_detected(self):
        # Two incomparable rules at equal distance for the same target:
        # (Em, V, I) vs (E, Vm, I) for a (Em, Vm, I) connection.
        table, nodes, edges = self._table(
            ["prod(e:Em,s:V->t:I) t<=var(s)",
             "prod(e:E,s:Vm->t:I) t<=2*var(s)"])
        with pytest.raises(CompileError):
            table.lookup(edges["Em"], nodes["Vm"], nodes["I"])

    def test_no_match_returns_empty(self):
        table, nodes, edges = self._table(
            ["prod(e:E,s:V->t:I) t<=var(s)"])
        winners = table.lookup(edges["E"], nodes["I"], nodes["V"])
        assert winners == []

    def test_self_rules_separated(self):
        table, nodes, edges = self._table(
            ["prod(e:E,s:V->s:V) s<=-var(s)",
             "prod(e:E,s:V->t:V) t<=var(s)"])
        self_winners = table.lookup(edges["E"], nodes["V"], nodes["V"],
                                    self_rule=True)
        assert len(self_winners) == 1
        assert self_winners[0].is_self_rule
        cross = table.lookup(edges["E"], nodes["V"], nodes["V"])
        assert len(cross) == 1
        assert not cross[0].is_self_rule

    def test_off_rules_separated(self):
        table, nodes, edges = self._table(
            ["prod(e:E,s:V->t:I) t<=var(s)",
             "prod(e:E,s:V->t:I) t<=1e-12*var(s) off"])
        on = table.lookup(edges["E"], nodes["V"], nodes["I"])
        off = table.lookup(edges["E"], nodes["V"], nodes["I"], off=True)
        assert not on[0].off
        assert off[0].off

    def test_has_rule_for(self):
        table, nodes, edges = self._table(
            ["prod(e:E,s:V->t:I) t<=var(s)"])
        assert table.has_rule_for(edges["Em"], nodes["Vm"], nodes["Im"])
        assert not table.has_rule_for(edges["E"], nodes["I"], nodes["V"])
