"""AST node definitions for the textual Ark front-end.

The parser produces these plain dataclasses; :mod:`repro.lang.lowering`
turns them into :class:`~repro.core.language.Language` and
:class:`~repro.core.function.ArkFunction` objects. Keeping the two stages
separate lets tests inspect the syntax tree without touching semantics.

Rules have no mirror class here: the core rule readers build
:class:`~repro.core.production.ProductionRule` and
:class:`~repro.core.validation.ConstraintRule` objects while parsing, so
:class:`LangAst` holds those, and a malformed rule fails at parse time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import expr as E
from repro.core.production import ProductionRule
from repro.core.validation import ConstraintRule


@dataclass(frozen=True)
class SigTAst:
    """A datatype annotation ``real[a,b] mm(s0,s1) ns(sigma,kind)`` /
    ``int[a,b]`` / ``lambd(a0,...)`` with an optional ``const``
    marker."""

    kind: str  # "real" | "int" | "lambda"
    lo: float | None = None
    hi: float | None = None
    mm: tuple[float, float] | None = None
    arity: int = 0
    const: bool = False
    ns: tuple[float, str] | None = None


@dataclass(frozen=True)
class AttrAst:
    """``attr name = SigT`` inside a type body."""

    name: str
    sig: SigTAst


@dataclass(frozen=True)
class InitAst:
    """``init(i) SigT`` inside a node type body."""

    index: int
    sig: SigTAst


@dataclass(frozen=True)
class NodeTypeAst:
    """``node-type(p, Reduc) name [inherit parent] { ... }``"""

    name: str
    order: int
    reduction: str
    inherits: str | None
    attrs: tuple[AttrAst, ...]
    inits: tuple[InitAst, ...]


@dataclass(frozen=True)
class EdgeTypeAst:
    """``edge-type [fixed] name [inherit parent] { ... }``"""

    name: str
    fixed: bool
    inherits: str | None
    attrs: tuple[AttrAst, ...]


@dataclass(frozen=True)
class ExternAst:
    """``extern-func name``"""

    name: str


@dataclass(frozen=True)
class LangAst:
    """A full ``lang`` definition."""

    name: str
    inherits: str | None
    node_types: tuple[NodeTypeAst, ...]
    edge_types: tuple[EdgeTypeAst, ...]
    prods: tuple[ProductionRule, ...]
    cstrs: tuple[ConstraintRule, ...]
    externs: tuple[ExternAst, ...]


@dataclass(frozen=True)
class LambdaAst:
    """``lambd(a0,...): expr`` function literal."""

    params: tuple[str, ...]
    body: E.Expr


@dataclass(frozen=True)
class FuncValAst:
    """A FuncVal: literal number, argument reference, or lambda."""

    kind: str  # "literal" | "arg" | "lambda"
    value: object


@dataclass(frozen=True)
class FuncArgAst:
    """``name : SigT`` or ``owner.attr : SigT``"""

    name: str
    sig: SigTAst
    applies_to: tuple[str, str] | None = None


@dataclass(frozen=True)
class NodeStmtAst:
    name: str
    type_name: str


@dataclass(frozen=True)
class EdgeStmtAst:
    src: str
    dst: str
    name: str
    type_name: str


@dataclass(frozen=True)
class SetAttrAst:
    owner: str
    attr: str
    value: FuncValAst


@dataclass(frozen=True)
class SetInitAst:
    node: str
    index: int
    value: FuncValAst


@dataclass(frozen=True)
class SetSwitchAst:
    edge: str
    condition: E.Expr


FuncStmtAst = (NodeStmtAst | EdgeStmtAst | SetAttrAst | SetInitAst
               | SetSwitchAst)


@dataclass(frozen=True)
class FuncAst:
    """A full ``func`` definition."""

    name: str
    args: tuple[FuncArgAst, ...]
    uses: str
    statements: tuple[FuncStmtAst, ...]


@dataclass(frozen=True)
class ProgramAst:
    """A whole program: languages and functions in source order."""

    languages: tuple[LangAst, ...] = field(default=())
    functions: tuple[FuncAst, ...] = field(default=())
