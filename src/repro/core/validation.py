"""Local validity rules (§4.1, Fig. 6 lines 10-15).

A ``cstr vn:NT { acc [match...] rej [match...] }`` rule constrains every
node of type ``NT``. The node is valid when it is *described by* at least
one accepted pattern and by no rejected pattern. A node is described by a
pattern when its incident edges can be partitioned among the pattern's
clauses such that every clause receives between ``lo`` and ``hi`` matching
edges (§6; solved in :mod:`repro.core.validator`).

Clause forms (Fig. 6 lines 11-13):

* ``match(lo,hi,ET, vn->[NT*])`` — outgoing edges to nodes of the listed
  types;
* ``match(lo,hi,ET, [NT*]->vn)`` — incoming edges from the listed types;
* ``match(lo,hi,ET)`` / ``match(lo,hi,ET,vn)`` — self-referencing edges.

``lo`` is a non-negative integer and ``hi`` one or ``inf``.
:func:`read_constraint` and :func:`read_match` are the rule's one
grammar: the ``.ark`` parser calls them after the ``cstr`` keyword, and
:func:`parse_constraint`/:func:`parse_match` (behind
``Language.cstr("...")``) run them over a whole string.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.exprparse import TokenStream, parse_text
from repro.errors import LanguageError

#: Direction of a match clause relative to the constrained node.
OUT, IN, SELF = "out", "in", "self"


@dataclass(frozen=True)
class MatchClause:
    """One ``match`` clause of a validity pattern."""

    lo: float
    hi: float
    edge_type: str
    kind: str  # OUT | IN | SELF
    node_types: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in (OUT, IN, SELF):
            raise LanguageError(f"unknown match direction {self.kind!r}")
        if self.lo < 0 or self.hi < self.lo:
            raise LanguageError(
                f"match cardinality [{self.lo},{self.hi}] is invalid")
        if self.kind != SELF and not self.node_types:
            raise LanguageError(
                "in/out match clauses need at least one peer node type")

    def describe(self) -> str:
        hi = "inf" if math.isinf(self.hi) else str(int(self.hi))
        lo = str(int(self.lo))
        types = ",".join(self.node_types)
        if self.kind == SELF:
            return f"match({lo},{hi},{self.edge_type})"
        if self.kind == OUT:
            return f"match({lo},{hi},{self.edge_type},vn->[{types}])"
        return f"match({lo},{hi},{self.edge_type},[{types}]->vn)"

    def __str__(self) -> str:
        return self.describe()


@dataclass(frozen=True)
class Pattern:
    """An accepted (``acc``) or rejected (``rej``) pattern."""

    polarity: str  # "acc" | "rej"
    clauses: tuple[MatchClause, ...]

    def __post_init__(self):
        if self.polarity not in ("acc", "rej"):
            raise LanguageError(
                f"pattern polarity must be acc or rej, got "
                f"{self.polarity!r}")

    def __str__(self) -> str:
        body = ",".join(c.describe() for c in self.clauses)
        return f"{self.polarity}[{body}]"


@dataclass(frozen=True)
class ConstraintRule:
    """A ``cstr`` rule over one node type."""

    node_type: str
    patterns: tuple[Pattern, ...]

    @property
    def accepted(self) -> tuple[Pattern, ...]:
        return tuple(p for p in self.patterns if p.polarity == "acc")

    @property
    def rejected(self) -> tuple[Pattern, ...]:
        return tuple(p for p in self.patterns if p.polarity == "rej")

    def describe(self) -> str:
        body = " ".join(str(p) for p in self.patterns)
        return f"cstr {self.node_type} {{ {body} }}"

    def __str__(self) -> str:
        return self.describe()


def read_constraint(stream: TokenStream) -> ConstraintRule:
    """Read ``[vn:]NT { acc[...] rej[...] }`` — a rule after its
    ``cstr`` keyword. Only the type name matters; ``vn`` is implied."""
    node_type = stream.dashed_name()
    if stream.accept("op", ":"):
        node_type = stream.dashed_name()
    stream.expect("op", "{")
    patterns: list[Pattern] = []
    while not stream.at("op", "}"):
        polarity = stream.expect("ident").text
        if polarity not in ("acc", "rej"):
            stream.error(f"expected acc or rej, found {polarity!r}")
        stream.expect("op", "[")
        clauses: list[MatchClause] = []
        if not stream.at("op", "]"):
            clauses.append(read_match(stream))
            while stream.accept("op", ","):
                clauses.append(read_match(stream))
        stream.expect("op", "]")
        patterns.append(Pattern(polarity, tuple(clauses)))
        stream.skip_separators()
    stream.expect("op", "}")
    return ConstraintRule(node_type, tuple(patterns))


def read_match(stream: TokenStream) -> MatchClause:
    """Read one ``match(...)`` clause in any of its three forms::

        match(0,inf,E,V->[I])      outgoing
        match(0,inf,E,[I]->V)      incoming
        match(1,1,E)  /  match(1,1,E,V)   self-edge
    """
    stream.expect("ident", "match")
    stream.expect("op", "(")
    lo = _cardinality(stream)
    stream.expect("op", ",")
    hi = _cardinality(stream)
    stream.expect("op", ",")
    edge_type = stream.dashed_name()
    if stream.accept("op", ")"):
        return MatchClause(lo, hi, edge_type, SELF)
    stream.expect("op", ",")
    if stream.at("op", "["):
        types = _type_list(stream)
        stream.expect("op", "->")
        stream.dashed_name()  # vn, implied by the enclosing cstr
        stream.expect("op", ")")
        return MatchClause(lo, hi, edge_type, IN, types)
    stream.dashed_name()  # vn
    if stream.accept("op", ")"):
        # Fig. 13 form: match(lo,hi,ET,vn) — self-edges.
        return MatchClause(lo, hi, edge_type, SELF)
    stream.expect("op", "->")
    types = _type_list(stream)
    stream.expect("op", ")")
    return MatchClause(lo, hi, edge_type, OUT, types)


def _cardinality(stream: TokenStream) -> float:
    if stream.accept("ident", "inf"):
        return math.inf
    token = stream.peek()
    if token.kind != "num" or not token.text.isdecimal():
        stream.error(f"match cardinality must be a non-negative integer "
                     f"or inf, found {token.text or token.kind!r}")
    stream.next()
    return int(token.text)


def _type_list(stream: TokenStream) -> tuple[str, ...]:
    stream.expect("op", "[")
    types = [stream.dashed_name()]
    while stream.accept("op", ","):
        types.append(stream.dashed_name())
    stream.expect("op", "]")
    return tuple(types)


def parse_match(text: str) -> MatchClause:
    """Parse one ``match(...)`` clause from the paper's syntax."""
    return parse_text(text, read_match)


def parse_constraint(text: str) -> ConstraintRule:
    """Parse a full ``cstr`` rule from the paper's syntax, e.g.::

        cstr V {acc[match(0,inf,E,V->[I]), match(1,1,E,V)]}
    """
    return parse_text(text, read_constraint, keyword="cstr")
