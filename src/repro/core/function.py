"""Ark function declarations (§4.2, Fig. 6 lines 19-27).

An Ark function procedurally generates a dynamical graph from typed
arguments. Its body is a sequence of statements: ``node``, ``edge``,
``set-attr``, ``set-init``, and ``set-switch``. Invoking the function binds
argument values, executes the statements through a
:class:`~repro.core.builder.GraphBuilder` (which performs datatype checks
and seeded mismatch sampling), and returns the finished graph.

Functions are constructed programmatically here, or by the textual
front-end in :mod:`repro.lang`, whose parser builds these statement and
value objects directly while it reads a ``func`` definition.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import expr as E
from repro.core.builder import GraphBuilder
from repro.core.datatypes import Datatype, LambdaType
from repro.core.graph import DynamicalGraph
from repro.core.language import Language
from repro.errors import FunctionError


# --------------------------------------------------------------------------
# Value specifications (FuncVal ::= Val | v)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    """A literal real/integer value."""

    value: object


@dataclass(frozen=True)
class ArgRef:
    """A reference to a function argument by name."""

    name: str


@dataclass(frozen=True)
class LambdaVal:
    """A function literal ``lambd(a0,...): expr``."""

    params: tuple[str, ...]
    body: E.Expr


class _LambdaEnv(E.EvalContext):
    """Evaluates a lambda body against bound parameters."""

    def __init__(self, bindings: dict[str, float],
                 functions: dict[str, object]):
        self._bindings = bindings
        self._functions = functions

    def name(self, name: str):
        try:
            return self._bindings[name]
        except KeyError:
            raise FunctionError(
                f"lambda body references unbound name `{name}`") from None

    def function(self, name: str):
        try:
            return self._functions[name]
        except KeyError:
            raise FunctionError(
                f"lambda body calls unknown function `{name}`") from None

    def time(self):
        raise FunctionError(
            "lambda bodies reference time through their parameters, "
            "not the `time` keyword")


def _compile_lambda(value: LambdaVal, functions: dict[str, object]):
    """Turn a lambda literal into a Python callable."""
    params = value.params
    body = value.body
    loose = E.referenced_names(body) - set(params)
    if loose:
        raise FunctionError(
            f"lambda body references names {sorted(loose)} outside its "
            f"parameter list {list(params)}")

    def call(*args):
        if len(args) != len(params):
            raise FunctionError(
                f"lambda expects {len(params)} argument(s), got "
                f"{len(args)}")
        env = _LambdaEnv(dict(zip(params, args)), functions)
        return body.evaluate(env)

    call.__name__ = f"lambd_{'_'.join(params) or 'const'}"
    # Lambda bodies may only reference their parameters, literals, and
    # registered functions, so two compilations of the same source are
    # interchangeable; the key lets the batched ensemble codegen share
    # one callable across fabricated instances.
    call._ark_vector_key = ("lambd", params, str(body))
    return call


# --------------------------------------------------------------------------
# Statements (FuncSt)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeStmt:
    """``node v0 : v1``"""

    name: str
    type_name: str


@dataclass(frozen=True)
class EdgeStmt:
    """``edge<v0,v1> v2 : v3``"""

    src: str
    dst: str
    name: str
    type_name: str


@dataclass(frozen=True)
class SetAttrStmt:
    """``set-attr v0.v1 = FuncVal``"""

    owner: str
    attr: str
    value: Literal | ArgRef | LambdaVal


@dataclass(frozen=True)
class SetInitStmt:
    """``set-init v(i) = FuncVal``"""

    node: str
    index: int
    value: Literal | ArgRef | LambdaVal


@dataclass(frozen=True)
class SetSwitchStmt:
    """``set-switch v when b``"""

    edge: str
    condition: E.Expr


Statement = NodeStmt | EdgeStmt | SetAttrStmt | SetInitStmt | SetSwitchStmt


@dataclass(frozen=True)
class FuncArg:
    """A typed function argument ``v : SigT``.

    The grammar's dotted form ``v0.v1 : SigT`` declares an argument whose
    value is applied directly to attribute ``v0.v1``; ``applies_to`` holds
    that target when present.
    """

    name: str
    datatype: Datatype
    applies_to: tuple[str, str] | None = None


class _SwitchEnv(E.EvalContext):
    """Evaluates a switch condition over the bound function arguments."""

    def __init__(self, bindings: dict[str, object],
                 functions: dict[str, object]):
        self._bindings = bindings
        self._functions = functions

    def name(self, name: str):
        try:
            return self._bindings[name]
        except KeyError:
            raise FunctionError(
                f"switch condition references unknown argument `{name}`"
            ) from None

    def function(self, name: str):
        try:
            return self._functions[name]
        except KeyError:
            raise FunctionError(
                f"switch condition calls unknown function `{name}`"
            ) from None


class ArkFunction:
    """A callable Ark function definition."""

    def __init__(self, name: str, language: Language,
                 args: list[FuncArg] | None = None,
                 statements: list[Statement] | None = None):
        self.name = name
        self.language = language
        self.args = list(args or [])
        self.statements = list(statements or [])
        seen = set()
        for arg in self.args:
            if arg.name in seen:
                raise FunctionError(
                    f"function {name}: duplicate argument {arg.name}")
            seen.add(arg.name)
        self._check_static()

    # ------------------------------------------------------------------
    # Static semantic checks (§4.2)
    # ------------------------------------------------------------------

    def _check_static(self):
        """Type-check the body without executing it: every referenced
        node/edge/type/attribute must exist and const attributes must not
        be wired to function arguments (§4.3)."""
        node_types: dict[str, str] = {}
        edge_types: dict[str, str] = {}
        for stmt in self.statements:
            if isinstance(stmt, NodeStmt):
                if self.language.find_node_type(stmt.type_name) is None:
                    raise FunctionError(
                        f"function {self.name}: unknown node type "
                        f"{stmt.type_name}")
                if stmt.name in node_types or stmt.name in edge_types:
                    raise FunctionError(
                        f"function {self.name}: duplicate element "
                        f"{stmt.name}")
                node_types[stmt.name] = stmt.type_name
            elif isinstance(stmt, EdgeStmt):
                if self.language.find_edge_type(stmt.type_name) is None:
                    raise FunctionError(
                        f"function {self.name}: unknown edge type "
                        f"{stmt.type_name}")
                if stmt.name in node_types or stmt.name in edge_types:
                    raise FunctionError(
                        f"function {self.name}: duplicate element "
                        f"{stmt.name}")
                for endpoint in (stmt.src, stmt.dst):
                    if endpoint not in node_types:
                        raise FunctionError(
                            f"function {self.name}: edge {stmt.name} "
                            f"references undefined node {endpoint}")
                edge_types[stmt.name] = stmt.type_name
            elif isinstance(stmt, SetAttrStmt):
                decl = self._attr_decl(node_types, edge_types,
                                       stmt.owner, stmt.attr)
                if isinstance(stmt.value, ArgRef):
                    self._check_arg_ref(stmt.value.name)
                    if decl.const:
                        raise FunctionError(
                            f"function {self.name}: const attribute "
                            f"{stmt.owner}.{stmt.attr} cannot be assigned "
                            "from a function argument (§4.3)")
            elif isinstance(stmt, SetInitStmt):
                if stmt.node not in node_types:
                    raise FunctionError(
                        f"function {self.name}: set-init on undefined "
                        f"node {stmt.node}")
                node_type = self.language.find_node_type(
                    node_types[stmt.node])
                decl = node_type.inits.get(stmt.index)
                if decl is None:
                    raise FunctionError(
                        f"function {self.name}: node {stmt.node} has no "
                        f"init({stmt.index})")
                if isinstance(stmt.value, ArgRef):
                    self._check_arg_ref(stmt.value.name)
                    if decl.const:
                        raise FunctionError(
                            f"function {self.name}: const init"
                            f"({stmt.index}) of {stmt.node} cannot be "
                            "assigned from a function argument (§4.3)")
            elif isinstance(stmt, SetSwitchStmt):
                if stmt.edge not in edge_types:
                    raise FunctionError(
                        f"function {self.name}: set-switch on undefined "
                        f"edge {stmt.edge}")
                edge_type = self.language.find_edge_type(
                    edge_types[stmt.edge])
                if edge_type.fixed:
                    raise FunctionError(
                        f"function {self.name}: set-switch applied to "
                        f"fixed edge type {edge_type.name} (§4.3)")
                arg_names = {a.name for a in self.args}
                loose = E.referenced_names(stmt.condition) - arg_names
                if loose:
                    raise FunctionError(
                        f"function {self.name}: switch condition "
                        f"references unknown argument(s) {sorted(loose)}")
            else:
                raise FunctionError(
                    f"function {self.name}: unknown statement {stmt!r}")
        for arg in self.args:
            if arg.applies_to is not None:
                owner, attr = arg.applies_to
                decl = self._attr_decl(node_types, edge_types, owner, attr)
                if decl.const:
                    raise FunctionError(
                        f"function {self.name}: const attribute "
                        f"{owner}.{attr} cannot be bound to argument "
                        f"{arg.name} (§4.3)")

    def _attr_decl(self, node_types, edge_types, owner, attr):
        if owner in node_types:
            element_type = self.language.find_node_type(node_types[owner])
        elif owner in edge_types:
            element_type = self.language.find_edge_type(edge_types[owner])
        else:
            raise FunctionError(
                f"function {self.name}: set-attr on undefined element "
                f"{owner}")
        decl = element_type.attrs.get(attr)
        if decl is None:
            raise FunctionError(
                f"function {self.name}: {owner} of type "
                f"{element_type.name} has no attribute {attr}")
        return decl

    def _check_arg_ref(self, name: str):
        if not any(arg.name == name for arg in self.args):
            raise FunctionError(
                f"function {self.name}: reference to unknown argument "
                f"{name}")

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def invoke(self, arguments: dict | None = None,
               seed: int | None = None) -> DynamicalGraph:
        """Execute the function and return the dynamical graph.

        :param arguments: argument name -> value mapping.
        :param seed: mismatch seed for this invocation (§4.3); ``None``
            produces the nominal instance.
        """
        bound = self._bind(arguments or {})
        builder = GraphBuilder(self.language,
                               name=f"{self.name}()", seed=seed)
        functions = self.language.functions()
        switch_env = _SwitchEnv(bound, functions)
        for stmt in self.statements:
            if isinstance(stmt, NodeStmt):
                builder.node(stmt.name, stmt.type_name)
            elif isinstance(stmt, EdgeStmt):
                builder.edge(stmt.src, stmt.dst, stmt.name, stmt.type_name)
            elif isinstance(stmt, SetAttrStmt):
                builder.set_attr(stmt.owner, stmt.attr,
                                 self._resolve(stmt.value, bound,
                                               functions))
            elif isinstance(stmt, SetInitStmt):
                builder.set_init(stmt.node,
                                 self._resolve(stmt.value, bound,
                                               functions),
                                 index=stmt.index)
            elif isinstance(stmt, SetSwitchStmt):
                builder.set_switch(stmt.edge,
                                   bool(stmt.condition.evaluate(
                                       switch_env)))
        for arg in self.args:
            if arg.applies_to is not None:
                owner, attr = arg.applies_to
                builder.set_attr(owner, attr, bound[arg.name])
        return builder.finish()

    def _bind(self, arguments: dict) -> dict:
        bound: dict[str, object] = {}
        expected = {arg.name for arg in self.args}
        extra = set(arguments) - expected
        if extra:
            raise FunctionError(
                f"function {self.name}: unexpected argument(s) "
                f"{sorted(extra)}")
        for arg in self.args:
            if arg.name not in arguments:
                raise FunctionError(
                    f"function {self.name}: missing argument {arg.name}")
            value = arguments[arg.name]
            if isinstance(value, LambdaVal):
                value = _compile_lambda(value, self.language.functions())
            if isinstance(arg.datatype, LambdaType):
                value = arg.datatype.check(
                    value, f"argument {arg.name} of {self.name}")
            else:
                value = arg.datatype.check(
                    value, f"argument {arg.name} of {self.name}")
            bound[arg.name] = value
        return bound

    def _resolve(self, value, bound: dict, functions: dict):
        if isinstance(value, Literal):
            return value.value
        if isinstance(value, ArgRef):
            return bound[value.name]
        if isinstance(value, LambdaVal):
            return _compile_lambda(value, functions)
        raise FunctionError(f"cannot interpret value spec {value!r}")

    def __call__(self, seed: int | None = None, **arguments,
                 ) -> DynamicalGraph:
        """Keyword-argument convenience wrapper around :meth:`invoke`."""
        return self.invoke(arguments, seed=seed)

    def __repr__(self) -> str:
        args = ", ".join(a.name for a in self.args)
        return (f"<ArkFunction {self.name}({args}) uses "
                f"{self.language.name}>")
