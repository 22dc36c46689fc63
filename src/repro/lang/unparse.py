"""Pretty-printer: core objects back to Ark concrete syntax.

The inverse of :mod:`repro.lang.parser`: renders a
:class:`~repro.core.language.Language` (its *own* declarations, with an
``inherits`` header when derived) or an
:class:`~repro.core.function.ArkFunction` as parseable Ark source. Used
for documentation, program round-tripping, and the CLI's ``info``
command; the test suite checks that reparsing an unparsed language
reproduces identical dynamics.

Opaque Python values (callables stored as attribute defaults or literal
function values) have no textual form; unparsing them raises
:class:`~repro.errors.ParseError`.
"""

from __future__ import annotations

import math

from repro.core import function as F
from repro.core.attributes import AttrDecl, InitDecl
from repro.core.datatypes import IntType, LambdaType, RealType
from repro.core.language import Language
from repro.core.types import EdgeType, NodeType
from repro.errors import ParseError


def _bound(value: float) -> str:
    if math.isinf(value):
        return "-inf" if value < 0 else "inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def unparse_datatype(datatype) -> str:
    """Render a datatype annotation (``real[a,b] mm(s0,s1)``...)."""
    if isinstance(datatype, RealType):
        text = f"real[{_bound(datatype.lo)},{_bound(datatype.hi)}]"
    elif isinstance(datatype, IntType):
        text = f"int[{_bound(datatype.lo)},{_bound(datatype.hi)}]"
    elif isinstance(datatype, LambdaType):
        args = ",".join(f"a{k}" for k in range(datatype.arity))
        return f"lambd({args})"
    else:
        raise ParseError(f"cannot unparse datatype {datatype!r}")
    if datatype.mismatch is not None:
        text += (f" mm({_bound(datatype.mismatch.s0)},"
                 f"{_bound(datatype.mismatch.s1)})")
    return text


def _attr_line(decl: AttrDecl) -> str:
    text = f"attr {decl.name}={unparse_datatype(decl.datatype)}"
    if decl.const:
        text += " const"
    return text


def _init_line(decl: InitDecl) -> str:
    text = f"init({decl.index}) {unparse_datatype(decl.datatype)}"
    if decl.const:
        text += " const"
    return text


def _node_type_block(node_type: NodeType) -> str:
    head = (f"ntyp({node_type.order},{node_type.reduction.value}) "
            f"{node_type.name}")
    if node_type.parent is not None:
        head += f" inherit {node_type.parent.name}"
    body: list[str] = [_attr_line(a)
                       for a in node_type.own_attrs.values()]
    # Auto-generated unbounded init declarations are implied; only
    # render overridden ones.
    for index, decl in sorted(node_type.inits.items()):
        if decl.datatype != RealType(float("-inf"), float("inf")) or \
                decl.const:
            body.append(_init_line(decl))
    return f"{head} {{{', '.join(body)}}};"


def _edge_type_block(edge_type: EdgeType) -> str:
    head = "etyp "
    if edge_type.fixed and (edge_type.parent is None
                            or not edge_type.parent.fixed):
        head += "fixed "
    head += edge_type.name
    if edge_type.parent is not None:
        head += f" inherit {edge_type.parent.name}"
    body = [_attr_line(a) for a in edge_type.own_attrs.values()]
    return f"{head} {{{', '.join(body)}}};"


def unparse_language(language: Language) -> str:
    """Render a language's own declarations as Ark source."""
    header = f"lang {language.name}"
    if language.parent is not None:
        header += f" inherits {language.parent.name}"
    lines = [header + " {"]
    for node_type in language._node_types.values():
        lines.append("    " + _node_type_block(node_type))
    for edge_type in language._edge_types.values():
        lines.append("    " + _edge_type_block(edge_type))
    for rule in language._productions:
        lines.append(f"    {rule.describe()};")
    for rule in language._constraints:
        lines.append(f"    {rule.describe()};")
    for name, _ in language._extern_checks:
        lines.append(f"    extern-func {name};")
    lines.append("}")
    return "\n".join(lines)


def unparse_chain(language: Language) -> str:
    """Render a language and all its ancestors, base first — a complete
    program that reparses standalone."""
    blocks = [unparse_language(ancestor)
              for ancestor in reversed(language.chain())]
    return "\n\n".join(blocks)


def _func_value(value) -> str:
    if isinstance(value, F.ArgRef):
        return value.name
    if isinstance(value, F.LambdaVal):
        params = ",".join(value.params)
        return f"lambd({params}): {value.body}"
    if isinstance(value, F.Literal):
        literal = value.value
        if isinstance(literal, bool) or not isinstance(literal,
                                                       (int, float)):
            raise ParseError(
                f"cannot unparse opaque function value {literal!r}; "
                "only numeric literals, argument references, and "
                "lambda literals have a textual form")
        return repr(literal) if isinstance(literal, float) \
            else str(literal)
    raise ParseError(f"cannot unparse value spec {value!r}")


def unparse_function(function: F.ArkFunction) -> str:
    """Render an Ark function definition as source text."""
    args = ", ".join(
        f"{arg.name}:{unparse_datatype(arg.datatype)}"
        for arg in function.args)
    lines = [f"func {function.name} ({args}) uses "
             f"{function.language.name} {{"]
    for stmt in function.statements:
        if isinstance(stmt, F.NodeStmt):
            lines.append(f"    node {stmt.name}:{stmt.type_name};")
        elif isinstance(stmt, F.EdgeStmt):
            lines.append(f"    edge <{stmt.src},{stmt.dst}> "
                         f"{stmt.name}:{stmt.type_name};")
        elif isinstance(stmt, F.SetAttrStmt):
            lines.append(f"    set-attr {stmt.owner}.{stmt.attr} = "
                         f"{_func_value(stmt.value)};")
        elif isinstance(stmt, F.SetInitStmt):
            lines.append(f"    set-init {stmt.node}({stmt.index}) = "
                         f"{_func_value(stmt.value)};")
        elif isinstance(stmt, F.SetSwitchStmt):
            lines.append(f"    set-switch {stmt.edge} when "
                         f"{stmt.condition};")
        else:
            raise ParseError(f"cannot unparse statement {stmt!r}")
    lines.append("}")
    return "\n".join(lines)
