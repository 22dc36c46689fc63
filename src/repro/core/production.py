"""Production rules (§4.1, Fig. 6 lines 8-9) and their lookup semantics.

A rule ``prod(e:ET, s:ST -> t:DT) v <= expr`` matches a connection whose
edge type is ``ET`` and whose endpoint types are ``ST``/``DT``, and
contributes ``expr`` to the dynamics of the node bound to ``v`` (which must
be the source or destination role). When the source and destination role
share a name the rule is a *self rule* matching self-referencing edges.

Lookup (§5): for a concrete connection the most specific rule is applied;
if none matches the actual types exactly, the compiler walks the inheritance
chains to find the closest parent rule. Ambiguities (two incomparable rules
at the same specificity) are an error.

:func:`read_production` is the rule's one grammar: the ``.ark`` parser
calls it after the ``prod`` keyword, and :func:`parse_production` (behind
``Language.prod("...")``) runs it over a whole string.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

from repro import telemetry
from repro.core import expr as E
from repro.core.exprparse import ExpressionParser, TokenStream, parse_text
from repro.core.types import EdgeType, NodeType
from repro.errors import CompileError, LanguageError, ParseError


@dataclass(frozen=True)
class ProductionRule:
    """One production rule.

    :param edge_role: name bound to the edge (``e``).
    :param edge_type: edge type name the rule matches.
    :param src_role: name bound to the source node (``s``).
    :param src_type: source node type name.
    :param dst_role: name bound to the destination node (``t``). Equal to
        ``src_role`` for self rules.
    :param dst_type: destination node type name.
    :param target: role receiving the contribution (source or dest role).
    :param expr: contributed algebraic term.
    :param off: True for rules modeling switched-off edges (§4.3).
    """

    edge_role: str
    edge_type: str
    src_role: str
    src_type: str
    dst_role: str
    dst_type: str
    target: str
    expr: E.Expr
    off: bool = False

    def __post_init__(self):
        if self.target not in (self.src_role, self.dst_role):
            raise LanguageError(
                f"production rule target `{self.target}` must be the source "
                f"`{self.src_role}` or destination `{self.dst_role}` role")
        if self.is_self_rule and self.src_type != self.dst_type:
            raise LanguageError(
                "self rules must bind one node: source and destination "
                f"types differ ({self.src_type} vs {self.dst_type})")
        roles = {self.edge_role, self.src_role, self.dst_role}
        loose = E.referenced_roles(self.expr) - roles
        if loose:
            raise LanguageError(
                f"production rule expression references undeclared "
                f"role(s) {sorted(loose)}; only "
                f"{sorted(roles)} are in scope")

    @property
    def is_self_rule(self) -> bool:
        """True when the rule matches self-referencing edges."""
        return self.src_role == self.dst_role

    @property
    def targets_source(self) -> bool:
        """True when the contribution lands on the source node."""
        return self.target == self.src_role

    def signature(self) -> tuple:
        """Key identifying which connections and target this rule covers."""
        return (self.edge_type, self.src_type, self.dst_type,
                self.is_self_rule, self.targets_source, self.off)

    def describe(self) -> str:
        arrow = (f"{self.src_role}:{self.src_type}->"
                 f"{self.dst_role}:{self.dst_type}")
        suffix = " off" if self.off else ""
        return (f"prod({self.edge_role}:{self.edge_type},{arrow}) "
                f"{self.target} <= {self.expr}{suffix}")

    def __str__(self) -> str:
        return self.describe()


def read_production(stream: TokenStream) -> ProductionRule:
    """Read ``(e:ET, s:ST->t:DT) target <= expr [off]`` — a rule after
    its ``prod`` keyword. A rule the constructor rejects is a
    :class:`~repro.errors.ParseError` at the rule's first token."""
    first = stream.expect("op", "(")
    edge = _binding(stream)
    stream.expect("op", ",")
    src = _binding(stream)
    stream.expect("op", "->")
    dst = _binding(stream)
    stream.expect("op", ")")
    target = stream.dashed_name()
    stream.expect("op", "<=")
    expr = ExpressionParser(stream).parse()
    off = bool(stream.accept("ident", "off"))
    try:
        return ProductionRule(*edge, *src, *dst, target, expr, off)
    except LanguageError as err:
        raise ParseError(str(err), first.line, first.column) from None


def _binding(stream: TokenStream) -> tuple[str, str]:
    """``role:Type``"""
    role = stream.dashed_name()
    stream.expect("op", ":")
    return role, stream.dashed_name()


def parse_production(text: str, off: bool | None = None) -> ProductionRule:
    """Parse the paper's concrete rule syntax.

    Accepts strings like ``prod(e:E,s:V->t:I) s<=-var(t)/s.c`` (the leading
    ``prod`` is optional, a trailing ``off`` marks an off rule). ``off``,
    when given, overrides the suffix.
    """
    rule = parse_text(text, read_production, keyword="prod")
    return rule if off is None else replace(rule, off=off)


#: Structures each per-structure memo of a :class:`RuleTable` keeps;
#: the least recently used one is dropped first.
MEMO_LIMIT = 64


def _count(counter: str | None, outcome: str):
    if counter is not None:
        telemetry.add(f"{counter}_{outcome}")


class RuleTable:
    """All production rules of a language, with most-specific lookup.

    The table also carries the language's per-structure memos — the
    compiler's symbolic systems (``templates``) and row-bind plans
    (``bind_plans``, see :func:`repro.core.compiler.compile_graph`) and
    the factories' graph templates (``graph_templates``, see
    :func:`repro.core.builder.fabricate`): they are only valid for
    these declarations, so they live and die with them. They stay
    in-process — a pickled table arrives with empty memos.
    """

    def __init__(self, rules: list[ProductionRule],
                 node_types: dict[str, NodeType],
                 edge_types: dict[str, EdgeType]):
        self._rules = list(rules)
        self._node_types = node_types
        self._edge_types = edge_types
        self.templates: OrderedDict = OrderedDict()
        self.bind_plans: OrderedDict = OrderedDict()
        self.graph_templates: OrderedDict = OrderedDict()

    def __getstate__(self):
        state = dict(self.__dict__)
        for memo in ("templates", "bind_plans", "graph_templates"):
            state[memo] = OrderedDict()
        return state

    def memoized(self, memo: OrderedDict, key, build,
                 counter: str | None):
        """``memo[key]``, made by ``build()`` on a miss and kept as one
        of the ``MEMO_LIMIT`` most recently used entries. Counts
        ``<counter>_hits``/``<counter>_misses`` (nothing for a ``None``
        counter); a key that does not hash is built and not stored."""
        try:
            value = memo.get(key)
        except TypeError:
            _count(counter, "misses")
            return build()
        if value is not None:
            _count(counter, "hits")
            memo.move_to_end(key)
            return value
        _count(counter, "misses")
        value = memo[key] = build()
        if len(memo) > MEMO_LIMIT:
            memo.popitem(last=False)
        return value

    @property
    def rules(self) -> list[ProductionRule]:
        return list(self._rules)

    def _candidates(self, edge_type: EdgeType, src_type: NodeType,
                    dst_type: NodeType, self_rule: bool, off: bool,
                    ) -> list[tuple[int, ProductionRule]]:
        """Rules applicable to the connection, with specificity distance.

        Distance is the total number of inheritance steps from the actual
        types up to the rule's declared types; 0 means an exact match.
        """
        scored: list[tuple[int, ProductionRule]] = []
        for rule in self._rules:
            if rule.off != off or rule.is_self_rule != self_rule:
                continue
            rule_edge = self._edge_types.get(rule.edge_type)
            rule_src = self._node_types.get(rule.src_type)
            rule_dst = self._node_types.get(rule.dst_type)
            if rule_edge is None or rule_src is None or rule_dst is None:
                raise CompileError(
                    f"rule {rule} references unknown types")
            d_edge = edge_type.distance_to(rule_edge)
            d_src = src_type.distance_to(rule_src)
            d_dst = dst_type.distance_to(rule_dst)
            if d_edge is None or d_src is None or d_dst is None:
                continue
            scored.append((d_edge + d_src + d_dst, rule))
        return scored

    def lookup(self, edge_type: EdgeType, src_type: NodeType,
               dst_type: NodeType, *, self_rule: bool = False,
               off: bool = False, connection: str = "connection",
               ) -> list[ProductionRule]:
        """Most-specific rules for a connection (one per target role).

        Returns the winning rule for the source-target and the dest-target
        independently — the TLN language, for instance, pairs
        ``s <= -var(t)/s.c`` with ``t <= var(s)/t.l`` on the same V->I
        match. Either may be absent. Raises :class:`CompileError` when two
        incomparable rules tie for the same target.
        """
        scored = self._candidates(edge_type, src_type, dst_type,
                                  self_rule, off)
        winners: list[ProductionRule] = []
        for targets_source in (True, False):
            if self_rule and not targets_source:
                continue
            group = [(dist, rule) for dist, rule in scored
                     if rule.targets_source == targets_source]
            if not group:
                continue
            best = min(dist for dist, _ in group)
            best_rules = [rule for dist, rule in group if dist == best]
            if len(best_rules) > 1:
                listing = "; ".join(r.describe() for r in best_rules)
                raise CompileError(
                    f"ambiguous production rules for {connection}: "
                    f"{listing}")
            winners.append(best_rules[0])
        return winners

    def has_rule_for(self, edge_type: EdgeType, src_type: NodeType,
                     dst_type: NodeType, *, self_rule: bool = False,
                     off: bool = False) -> bool:
        """True when at least one rule applies to the connection."""
        return bool(self._candidates(edge_type, src_type, dst_type,
                                     self_rule, off))
