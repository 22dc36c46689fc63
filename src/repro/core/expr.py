"""Expression AST for Ark math and boolean expressions (§4, "Expressions").

Expressions appear in production rules (``-var(t)/s.c``), lambda attribute
bodies, and switch conditions. They are built either programmatically or via
:mod:`repro.core.exprparse`, which accepts the paper's concrete syntax.

An expression references graph elements through *roles* while it lives inside
a production rule (``e``/``s``/``t``) and through concrete element names after
the compiler's ``Rewrite`` step (Alg. 1). Both states share this AST; the
:meth:`Expr.substitute` method performs the rewrite.

Evaluation is double-dispatched through an :class:`EvalContext` so the same
tree can be interpreted against a state vector, constant-folded at compile
time, or lowered to Python source by the code generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import CompileError

# --------------------------------------------------------------------------
# Built-in function registry
# --------------------------------------------------------------------------

def _sgn(x: float) -> float:
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return 0.0


def _noise_mean(amplitude):
    """Deterministic reading of a ``noise(amplitude)`` term.

    ``noise(a)`` denotes zero-mean white noise of amplitude ``a``; the
    compiler moves such terms into the diffusion part of the SDE, so a
    deterministic evaluation context only ever sees the drift — whose
    contribution is the mean, 0. Multiplying keeps array shapes intact
    when the batched backends evaluate a stray noise call elementwise.
    """
    return 0.0 * amplitude


#: Functions available in every Ark expression. Languages may register more
#: (e.g. the CNN language registers ``sat`` and ``sat_ni``).
BUILTIN_FUNCTIONS: dict[str, object] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
    "sgn": _sgn,
    "min": min,
    "max": max,
    "pow": math.pow,
    "noise": _noise_mean,
}

_NUMERIC_BINOPS = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
    "^": lambda a, b: a ** b,
}

_COMPARE_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

_PY_BINOP = {"+": "+", "-": "-", "*": "*", "/": "/", "^": "**"}
_PY_CMP = {"<": "<", "<=": "<=", ">": ">", ">=": ">=", "==": "==",
           "!=": "!="}
_PY_BOOL = {"and": "and", "or": "or"}


class EvalContext:
    """Resolution hooks used by :meth:`Expr.evaluate`.

    Subclasses override the lookups; the defaults raise, which makes partial
    contexts (e.g. constant folding) explicit about what they support.
    """

    def time(self) -> float:
        raise CompileError("expression references `time` but the evaluation "
                           "context provides no time")

    def var(self, node: str) -> float:
        raise CompileError(f"expression references var({node}) but the "
                           "evaluation context provides no state")

    def attr(self, kind: str, owner: str, attr: str):
        raise CompileError(f"expression references attribute {owner}.{attr} "
                           "but the evaluation context provides no "
                           "attributes")

    def name(self, name: str) -> float:
        raise CompileError(f"unresolved name `{name}` in expression")

    def function(self, name: str):
        try:
            return BUILTIN_FUNCTIONS[name]
        except KeyError:
            raise CompileError(f"unknown function `{name}`") from None


# --------------------------------------------------------------------------
# AST nodes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    """Base class of all expression nodes."""

    def children(self) -> tuple["Expr", ...]:
        return ()

    def evaluate(self, ctx: EvalContext):
        raise NotImplementedError

    def substitute(self, mapping: dict[str, "Substitution"]) -> "Expr":
        """Rewrite role names to concrete element names (Alg. 1 `Rewrite`).

        ``mapping`` maps role name (``s``/``t``/``e``) to a
        :class:`Substitution` carrying the element's concrete name and kind.
        Nodes without name references return themselves.
        """
        return self

    def walk(self):
        """Yield every node of the tree (pre-order)."""
        yield self
        for child in self.children():
            yield from child.walk()

    def is_boolean(self) -> bool:
        return False


@dataclass(frozen=True)
class Substitution:
    """Target of a role substitution: a concrete element name and kind."""

    name: str
    kind: str  # "node" or "edge"


@dataclass(frozen=True)
class Const(Expr):
    """Numeric literal."""

    value: float

    def evaluate(self, ctx: EvalContext):
        return self.value

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Time(Expr):
    """The simulation time ``time`` (the paper also spells it ``times``)."""

    def evaluate(self, ctx: EvalContext):
        return ctx.time()

    def __str__(self) -> str:
        return "time"


@dataclass(frozen=True)
class NameRef(Expr):
    """A bare identifier: a function argument or lambda parameter."""

    name: str

    def evaluate(self, ctx: EvalContext):
        return ctx.name(self.name)

    def substitute(self, mapping):
        # Bare names are *not* roles; roles only appear inside var() and
        # attribute owners. Function-argument references survive rewriting.
        return self

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VarOf(Expr):
    """``var(x)``: the state variable associated with node ``x``."""

    node: str

    def evaluate(self, ctx: EvalContext):
        return ctx.var(self.node)

    def substitute(self, mapping):
        target = mapping.get(self.node)
        if target is None:
            return self
        if target.kind != "node":
            raise CompileError(
                f"var({self.node}) rewritten to non-node {target.name}")
        return VarOf(target.name)

    def __str__(self) -> str:
        return f"var({self.node})"


@dataclass(frozen=True)
class AttrRef(Expr):
    """``owner.attr``: attribute of a node or edge.

    ``kind`` is ``None`` while the owner is still a role name and becomes
    ``"node"``/``"edge"`` after substitution.
    """

    owner: str
    attr: str
    kind: str | None = None

    def evaluate(self, ctx: EvalContext):
        return ctx.attr(self.kind or "node", self.owner, self.attr)

    def substitute(self, mapping):
        target = mapping.get(self.owner)
        if target is None:
            return self
        return AttrRef(target.name, self.attr, target.kind)

    def __str__(self) -> str:
        return f"{self.owner}.{self.attr}"


@dataclass(frozen=True)
class UnOp(Expr):
    """Unary negation."""

    op: str  # only "-"
    operand: Expr

    def children(self):
        return (self.operand,)

    def evaluate(self, ctx: EvalContext):
        return -self.operand.evaluate(ctx)

    def substitute(self, mapping):
        return UnOp(self.op, self.operand.substitute(mapping))

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class BinOp(Expr):
    """Binary arithmetic: ``+ - * / ^``."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def evaluate(self, ctx: EvalContext):
        return _NUMERIC_BINOPS[self.op](self.left.evaluate(ctx),
                                        self.right.evaluate(ctx))

    def substitute(self, mapping):
        return BinOp(self.op, self.left.substitute(mapping),
                     self.right.substitute(mapping))

    def __str__(self) -> str:
        return f"({self.left}{self.op}{self.right})"


@dataclass(frozen=True)
class Call(Expr):
    """Call of a registered function: ``sin(x)``, ``sat(var(s))``..."""

    func: str
    args: tuple[Expr, ...]

    def children(self):
        return self.args

    def evaluate(self, ctx: EvalContext):
        fn = ctx.function(self.func)
        return fn(*[a.evaluate(ctx) for a in self.args])

    def substitute(self, mapping):
        return Call(self.func, tuple(a.substitute(mapping)
                                     for a in self.args))

    def __str__(self) -> str:
        return f"{self.func}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class LambdaCall(Expr):
    """Invocation of a lambda-valued attribute: ``s.fn(time)``."""

    target: AttrRef
    args: tuple[Expr, ...]

    def children(self):
        return (self.target,) + self.args

    def evaluate(self, ctx: EvalContext):
        fn = ctx.attr(self.target.kind or "node", self.target.owner,
                      self.target.attr)
        if not callable(fn):
            raise CompileError(
                f"attribute {self.target} is not callable but is invoked "
                "as a function")
        return fn(*[a.evaluate(ctx) for a in self.args])

    def substitute(self, mapping):
        return LambdaCall(self.target.substitute(mapping),
                          tuple(a.substitute(mapping) for a in self.args))

    def __str__(self) -> str:
        return f"{self.target}({', '.join(map(str, self.args))})"


@dataclass(frozen=True)
class IfThenElse(Expr):
    """``if b then e else e'``."""

    cond: Expr
    then: Expr
    orelse: Expr

    def children(self):
        return (self.cond, self.then, self.orelse)

    def evaluate(self, ctx: EvalContext):
        if self.cond.evaluate(ctx):
            return self.then.evaluate(ctx)
        return self.orelse.evaluate(ctx)

    def substitute(self, mapping):
        return IfThenElse(self.cond.substitute(mapping),
                          self.then.substitute(mapping),
                          self.orelse.substitute(mapping))

    def __str__(self) -> str:
        return f"(if {self.cond} then {self.then} else {self.orelse})"


@dataclass(frozen=True)
class Compare(Expr):
    """Comparison between two math expressions; boolean-valued."""

    op: str
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def evaluate(self, ctx: EvalContext):
        return _COMPARE_OPS[self.op](self.left.evaluate(ctx),
                                     self.right.evaluate(ctx))

    def substitute(self, mapping):
        return Compare(self.op, self.left.substitute(mapping),
                       self.right.substitute(mapping))

    def is_boolean(self):
        return True

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class BoolOp(Expr):
    """Logical conjunction/disjunction; boolean-valued."""

    op: str  # "and" | "or"
    left: Expr
    right: Expr

    def children(self):
        return (self.left, self.right)

    def evaluate(self, ctx: EvalContext):
        if self.op == "and":
            return bool(self.left.evaluate(ctx)) and \
                bool(self.right.evaluate(ctx))
        return bool(self.left.evaluate(ctx)) or \
            bool(self.right.evaluate(ctx))

    def substitute(self, mapping):
        return BoolOp(self.op, self.left.substitute(mapping),
                      self.right.substitute(mapping))

    def is_boolean(self):
        return True

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation; boolean-valued."""

    operand: Expr

    def children(self):
        return (self.operand,)

    def evaluate(self, ctx: EvalContext):
        return not self.operand.evaluate(ctx)

    def substitute(self, mapping):
        return Not(self.operand.substitute(mapping))

    def is_boolean(self):
        return True

    def __str__(self) -> str:
        return f"(not {self.operand})"


@dataclass(frozen=True)
class BoolConst(Expr):
    """Boolean literal (used by switch conditions)."""

    value: bool

    def evaluate(self, ctx: EvalContext):
        return self.value

    def is_boolean(self):
        return True

    def __str__(self) -> str:
        return "true" if self.value else "false"


# --------------------------------------------------------------------------
# Analyses over expression trees
# --------------------------------------------------------------------------

def referenced_roles(expr: Expr) -> set[str]:
    """Names referenced as graph elements: var() targets and attribute
    owners. Used by semantic checks on production rules."""
    roles: set[str] = set()
    for node in expr.walk():
        if isinstance(node, VarOf):
            roles.add(node.node)
        elif isinstance(node, AttrRef):
            roles.add(node.owner)
    return roles


def referenced_vars(expr: Expr) -> set[str]:
    """Node names whose state variable the expression reads."""
    return {n.node for n in expr.walk() if isinstance(n, VarOf)}


def referenced_names(expr: Expr) -> set[str]:
    """Bare identifiers (function arguments / lambda parameters)."""
    return {n.name for n in expr.walk() if isinstance(n, NameRef)}


def referenced_functions(expr: Expr) -> set[str]:
    """Registered function names invoked anywhere in the tree."""
    return {n.func for n in expr.walk() if isinstance(n, Call)}


def uses_time(expr: Expr) -> bool:
    """True when the expression reads the simulation time."""
    return any(isinstance(n, Time) for n in expr.walk())


# --------------------------------------------------------------------------
# Code generation
# --------------------------------------------------------------------------

class CodegenContext:
    """Name-resolution hooks for :func:`to_python`.

    The ODE code generator subclasses this to map state references to
    ``y[i]`` slots, attributes to inlined constants or environment slots,
    and functions to names in the generated module's namespace.
    """

    def time_source(self) -> str:
        return "t"

    def var_source(self, node: str) -> str:
        raise CompileError(f"codegen: unresolved var({node})")

    def attr_source(self, kind: str, owner: str, attr: str) -> str:
        raise CompileError(f"codegen: unresolved attribute {owner}.{attr}")

    def name_source(self, name: str) -> str:
        raise CompileError(f"codegen: unresolved name `{name}`")

    def function_source(self, name: str) -> str:
        raise CompileError(f"codegen: unresolved function `{name}`")

    # The control-flow constructs below default to plain Python syntax,
    # which is correct for scalar evaluation. Vectorized backends (the
    # batched ensemble codegen in :mod:`repro.sim`) override them with
    # elementwise formulations (``numpy.where``/``logical_and``/...),
    # because Python's ``if``/``and``/``or``/``not`` are ambiguous on
    # arrays.

    def ifexp_source(self, cond: str, then: str, orelse: str) -> str:
        return f"({then} if {cond} else {orelse})"

    def boolop_source(self, op: str, left: str, right: str) -> str:
        return f"({left} {_PY_BOOL[op]} {right})"

    def not_source(self, operand: str) -> str:
        return f"(not {operand})"


def to_python(expr: Expr, ctx: CodegenContext) -> str:
    """Lower an expression tree to a Python source fragment."""
    if isinstance(expr, Const):
        return repr(float(expr.value))
    if isinstance(expr, BoolConst):
        return "True" if expr.value else "False"
    if isinstance(expr, Time):
        return ctx.time_source()
    if isinstance(expr, NameRef):
        return ctx.name_source(expr.name)
    if isinstance(expr, VarOf):
        return ctx.var_source(expr.node)
    if isinstance(expr, AttrRef):
        return ctx.attr_source(expr.kind or "node", expr.owner, expr.attr)
    if isinstance(expr, UnOp):
        return f"(-{to_python(expr.operand, ctx)})"
    if isinstance(expr, BinOp):
        op = _PY_BINOP[expr.op]
        return (f"({to_python(expr.left, ctx)} {op} "
                f"{to_python(expr.right, ctx)})")
    if isinstance(expr, Call):
        args = ", ".join(to_python(a, ctx) for a in expr.args)
        return f"{ctx.function_source(expr.func)}({args})"
    if isinstance(expr, LambdaCall):
        target = ctx.attr_source(expr.target.kind or "node",
                                 expr.target.owner, expr.target.attr)
        args = ", ".join(to_python(a, ctx) for a in expr.args)
        return f"{target}({args})"
    if isinstance(expr, IfThenElse):
        return ctx.ifexp_source(to_python(expr.cond, ctx),
                                to_python(expr.then, ctx),
                                to_python(expr.orelse, ctx))
    if isinstance(expr, Compare):
        op = _PY_CMP[expr.op]
        return (f"({to_python(expr.left, ctx)} {op} "
                f"{to_python(expr.right, ctx)})")
    if isinstance(expr, BoolOp):
        return ctx.boolop_source(expr.op, to_python(expr.left, ctx),
                                 to_python(expr.right, ctx))
    if isinstance(expr, Not):
        return ctx.not_source(to_python(expr.operand, ctx))
    raise CompileError(f"codegen: unsupported expression node {expr!r}")
