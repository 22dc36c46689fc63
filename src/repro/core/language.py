"""Ark language definitions (§4.1) with single inheritance (§4.1.1).

A :class:`Language` collects node and edge types, production rules, local
validity rules, global validity checks (extern functions), and registered
expression functions. Languages form a single-inheritance chain; the
constraints of §4.1.1 are enforced at declaration time:

* derived node/edge types keep the parent's order, reduction, and fixedness,
  and may only narrow overridden attribute ranges;
* parent production and validation rules are never overridden or removed;
* every production or validation rule added by a derived language must
  mention at least one type declared by that language.

These rules guarantee that any graph written in a parent language is also a
valid program of every derived language, with identical dynamics — the
property the paper's "progressive rewriting" workflow relies on.
"""

from __future__ import annotations

from typing import Callable

from repro.core import expr as E
from repro.core.attributes import AttrDecl, InitDecl
from repro.core.datatypes import Datatype
from repro.core.production import (ProductionRule, RuleTable,
                                   parse_production)
from repro.core.types import EdgeType, NodeType, Reduction
from repro.core.validation import ConstraintRule, parse_constraint
from repro.errors import InheritanceError, LanguageError


def _normalize_attrs(attrs) -> dict[str, AttrDecl]:
    """Accept AttrDecl instances, (name, datatype[, options]) tuples, or
    dicts, and return a name-keyed declaration table."""
    table: dict[str, AttrDecl] = {}
    if attrs is None:
        return table
    if isinstance(attrs, dict):
        attrs = [AttrDecl(name, datatype) if isinstance(datatype, Datatype)
                 else datatype for name, datatype in attrs.items()]
    for item in attrs:
        if isinstance(item, AttrDecl):
            decl = item
        elif isinstance(item, tuple) and len(item) == 2:
            decl = AttrDecl(item[0], item[1])
        elif isinstance(item, tuple) and len(item) == 3:
            options = dict(item[2])
            decl = AttrDecl(item[0], item[1],
                            const=bool(options.get("const", False)),
                            default=options.get("default"))
        else:
            raise LanguageError(f"cannot interpret attribute spec {item!r}")
        if decl.name in table:
            raise LanguageError(f"duplicate attribute `{decl.name}`")
        table[decl.name] = decl
    return table


def _normalize_inits(inits, order: int) -> dict[int, InitDecl]:
    table: dict[int, InitDecl] = {}
    if inits is None:
        return table
    for item in inits:
        if not isinstance(item, InitDecl):
            raise LanguageError(f"cannot interpret init spec {item!r}")
        if item.index in table:
            raise LanguageError(f"duplicate init({item.index})")
        table[item.index] = item
    return table


class Language:
    """A domain-specific language specializing the DG model."""

    def __init__(self, name: str, parent: "Language | None" = None):
        if not name:
            raise LanguageError("language name must be non-empty")
        if parent is not None and not isinstance(parent, Language):
            raise LanguageError(f"parent must be a Language, got "
                                f"{parent!r}")
        self.name = name
        self.parent = parent
        self._node_types: dict[str, NodeType] = {}
        self._edge_types: dict[str, EdgeType] = {}
        self._productions: list[ProductionRule] = []
        self._constraints: list[ConstraintRule] = []
        self._extern_checks: list[tuple[str, Callable]] = []
        self._functions: dict[str, Callable] = {}
        #: Bumped by every declaration; :meth:`rule_table` compares the
        #: versions of the whole chain, so a change to an ancestor
        #: reaches derived languages too.
        self._version = 0
        self._rule_table: tuple[tuple[int, ...], RuleTable] | None = None

    # ------------------------------------------------------------------
    # Declaration API
    # ------------------------------------------------------------------

    def node_type(self, name: str, order: int | None = None,
                  reduction=None, attrs=None, inits=None,
                  inherits: "NodeType | str | None" = None) -> NodeType:
        """Declare a node type: ``node-type(p, Reduc) name {Attr*}``."""
        self._check_fresh_name(name)
        parent_type = self._resolve_node_parent(inherits)
        if parent_type is None:
            if order is None:
                raise LanguageError(
                    f"node type {name}: order is required for root types")
            reduction = Reduction.parse(reduction or Reduction.SUM)
        else:
            if order is None:
                order = parent_type.order
            reduction = (Reduction.parse(reduction)
                         if reduction is not None
                         else parent_type.reduction)
        node_type = NodeType(
            name, order=order, reduction=reduction,
            attrs=_normalize_attrs(attrs),
            inits=_normalize_inits(inits, order),
            parent=parent_type)
        self._node_types[name] = node_type
        self._invalidate()
        return node_type

    def edge_type(self, name: str, attrs=None, fixed: bool = False,
                  inherits: "EdgeType | str | None" = None) -> EdgeType:
        """Declare an edge type: ``edge-type [fixed] name {Attr*}``."""
        self._check_fresh_name(name)
        parent_type = self._resolve_edge_parent(inherits)
        edge_type = EdgeType(name, attrs=_normalize_attrs(attrs),
                             fixed=fixed or (parent_type is not None
                                             and parent_type.fixed),
                             parent=parent_type)
        self._edge_types[name] = edge_type
        self._invalidate()
        return edge_type

    def prod(self, rule, off: bool | None = None) -> ProductionRule:
        """Add a production rule; accepts the paper's string syntax or a
        :class:`ProductionRule`."""
        if isinstance(rule, str):
            rule = parse_production(rule, off=off)
        elif not isinstance(rule, ProductionRule):
            raise LanguageError(f"cannot interpret rule {rule!r}")
        self._check_rule_types(rule)
        self._check_new_rule_mentions_own_type(
            {rule.edge_type, rule.src_type, rule.dst_type},
            f"production rule {rule}")
        for existing in self.productions():
            if existing.signature() == rule.signature():
                raise LanguageError(
                    f"duplicate production rule for the same connection "
                    f"and target: {rule}")
        self._productions.append(rule)
        self._invalidate()
        return rule

    def cstr(self, rule) -> ConstraintRule:
        """Add a local validity rule; accepts the paper's string syntax or
        a :class:`ConstraintRule`."""
        if isinstance(rule, str):
            rule = parse_constraint(rule)
        elif not isinstance(rule, ConstraintRule):
            raise LanguageError(f"cannot interpret constraint {rule!r}")
        mentioned = {rule.node_type}
        if self.find_node_type(rule.node_type) is None:
            raise LanguageError(
                f"cstr references unknown node type {rule.node_type}")
        for pattern in rule.patterns:
            for clause in pattern.clauses:
                if self.find_edge_type(clause.edge_type) is None:
                    raise LanguageError(
                        f"cstr clause references unknown edge type "
                        f"{clause.edge_type}")
                mentioned.add(clause.edge_type)
                for peer in clause.node_types:
                    if self.find_node_type(peer) is None:
                        raise LanguageError(
                            f"cstr clause references unknown node type "
                            f"{peer}")
                    mentioned.add(peer)
        self._check_new_rule_mentions_own_type(
            mentioned, f"validity rule {rule.describe()}")
        self._constraints.append(rule)
        self._invalidate()
        return rule

    def extern_check(self, fn: Callable, name: str | None = None):
        """Register a global validity check (``extern-func``, §4.1).

        ``fn(graph)`` returns True, or (False, message) / False on failure.
        """
        if not callable(fn):
            raise LanguageError("extern check must be callable")
        self._extern_checks.append((name or getattr(fn, "__name__",
                                                    "extern"), fn))
        return fn

    def register_function(self, name: str, fn: Callable):
        """Make ``fn`` callable from expressions of this language."""
        if not callable(fn):
            raise LanguageError(f"function {name} must be callable")
        self._functions[name] = fn
        return fn

    # ------------------------------------------------------------------
    # Lookup API (resolves through the inheritance chain)
    # ------------------------------------------------------------------

    def chain(self) -> list["Language"]:
        """This language and its ancestors, most-derived first."""
        languages: list[Language] = []
        current: Language | None = self
        while current is not None:
            languages.append(current)
            current = current.parent
        return languages

    def find_node_type(self, name: str) -> NodeType | None:
        for language in self.chain():
            if name in language._node_types:
                return language._node_types[name]
        return None

    def find_edge_type(self, name: str) -> EdgeType | None:
        for language in self.chain():
            if name in language._edge_types:
                return language._edge_types[name]
        return None

    def node_types(self) -> dict[str, NodeType]:
        merged: dict[str, NodeType] = {}
        for language in reversed(self.chain()):
            merged.update(language._node_types)
        return merged

    def edge_types(self) -> dict[str, EdgeType]:
        merged: dict[str, EdgeType] = {}
        for language in reversed(self.chain()):
            merged.update(language._edge_types)
        return merged

    def productions(self) -> list[ProductionRule]:
        rules: list[ProductionRule] = []
        for language in reversed(self.chain()):
            rules.extend(language._productions)
        return rules

    def constraints(self) -> list[ConstraintRule]:
        rules: list[ConstraintRule] = []
        for language in reversed(self.chain()):
            rules.extend(language._constraints)
        return rules

    def extern_checks(self) -> list[tuple[str, Callable]]:
        checks: list[tuple[str, Callable]] = []
        for language in reversed(self.chain()):
            checks.extend(language._extern_checks)
        return checks

    def functions(self) -> dict[str, Callable]:
        merged = dict(E.BUILTIN_FUNCTIONS)
        for language in reversed(self.chain()):
            merged.update(language._functions)
        return merged

    def constraints_for(self, node_type: NodeType) -> list[ConstraintRule]:
        """All cstr rules applying to ``node_type`` or an ancestor of it."""
        applicable = []
        for rule in self.constraints():
            declared = self.find_node_type(rule.node_type)
            if declared is not None and node_type.is_subtype_of(declared):
                applicable.append(rule)
        return applicable

    def rule_table(self) -> RuleTable:
        """Production-rule lookup table over the full inheritance chain,
        rebuilt when this language or any ancestor has changed since."""
        versions = tuple(language._version for language in self.chain())
        if self._rule_table is None or self._rule_table[0] != versions:
            self._rule_table = (versions, RuleTable(self.productions(),
                                                    self.node_types(),
                                                    self.edge_types()))
        return self._rule_table[1]

    def owns_type(self, name: str) -> bool:
        """True when this language (not an ancestor) declared the type."""
        return name in self._node_types or name in self._edge_types

    # ------------------------------------------------------------------
    # Internal checks
    # ------------------------------------------------------------------

    def _invalidate(self):
        self._version += 1

    def _check_fresh_name(self, name: str):
        if self.find_node_type(name) is not None or \
                self.find_edge_type(name) is not None:
            raise LanguageError(
                f"type name {name} is already declared in language "
                f"{self.name} or an ancestor")

    def _resolve_node_parent(self, inherits) -> NodeType | None:
        if inherits is None:
            return None
        if isinstance(inherits, NodeType):
            return inherits
        parent = self.find_node_type(str(inherits))
        if parent is None:
            raise InheritanceError(
                f"unknown parent node type {inherits!r}")
        return parent

    def _resolve_edge_parent(self, inherits) -> EdgeType | None:
        if inherits is None:
            return None
        if isinstance(inherits, EdgeType):
            return inherits
        parent = self.find_edge_type(str(inherits))
        if parent is None:
            raise InheritanceError(
                f"unknown parent edge type {inherits!r}")
        return parent

    def _check_rule_types(self, rule: ProductionRule):
        if self.find_edge_type(rule.edge_type) is None:
            raise LanguageError(
                f"production rule references unknown edge type "
                f"{rule.edge_type}")
        for node_type in (rule.src_type, rule.dst_type):
            if self.find_node_type(node_type) is None:
                raise LanguageError(
                    f"production rule references unknown node type "
                    f"{node_type}")
        unknown = (E.referenced_functions(rule.expr)
                   - set(self.functions()))
        if unknown:
            raise LanguageError(
                f"production rule calls unknown function(s) "
                f"{sorted(unknown)}")

    def _check_new_rule_mentions_own_type(self, mentioned: set[str],
                                          what: str):
        """§4.1.1: rules added by a derived language must include at least
        one type declared by that language."""
        if self.parent is None:
            return
        if not any(self.owns_type(name) for name in mentioned):
            raise InheritanceError(
                f"{what} added by derived language {self.name} must "
                "mention at least one type declared by this language")

    def __repr__(self) -> str:
        parent = f" inherits {self.parent.name}" if self.parent else ""
        return f"<Language {self.name}{parent}>"
