"""Lowering from the textual AST onto the core Ark objects.

This stage resolves language inheritance (including languages provided by
the caller), binds ``extern-func`` names to Python callables, registers
expression functions, and re-checks everything through the same code paths
the programmatic API uses — so a parsed language obeys exactly the same
§4.1.1 rules as a hand-built one. Rules arrive as core objects already
(the parser reads them with the core rule grammar) and are added as they
are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core import function as F
from repro.core.attributes import AttrDecl, InitDecl
from repro.core.datatypes import integer, lambd, real
from repro.core.language import Language
from repro.errors import LanguageError, ParseError
from repro.lang import ast
from repro.lang.parser import parse


def _lower_sig(sig: ast.SigTAst):
    if sig.kind == "real":
        return real(sig.lo, sig.hi, mm=sig.mm, ns=sig.ns)
    if sig.kind == "int":
        return integer(int(sig.lo), int(sig.hi), mm=sig.mm, ns=sig.ns)
    if sig.kind == "lambda":
        return lambd(sig.arity)
    raise ParseError(f"unknown datatype kind {sig.kind!r}")


def _lower_attr(attr: ast.AttrAst) -> AttrDecl:
    return AttrDecl(attr.name, _lower_sig(attr.sig), const=attr.sig.const)


def _lower_init(init: ast.InitAst) -> InitDecl:
    return InitDecl(init.index, _lower_sig(init.sig),
                    const=init.sig.const)


def _lower_language(lang_ast: ast.LangAst,
                    known: dict[str, Language],
                    extern: dict[str, Callable],
                    functions: dict[str, Callable]) -> Language:
    parent = None
    if lang_ast.inherits is not None:
        parent = known.get(lang_ast.inherits)
        if parent is None:
            raise LanguageError(
                f"language {lang_ast.name} inherits unknown language "
                f"{lang_ast.inherits}")
    language = Language(lang_ast.name, parent=parent)
    for name, fn in functions.items():
        language.register_function(name, fn)

    for node_ast in lang_ast.node_types:
        language.node_type(
            node_ast.name, order=node_ast.order,
            reduction=node_ast.reduction,
            attrs=[_lower_attr(a) for a in node_ast.attrs],
            inits=[_lower_init(i) for i in node_ast.inits],
            inherits=node_ast.inherits)
    for edge_ast in lang_ast.edge_types:
        language.edge_type(
            edge_ast.name,
            attrs=[_lower_attr(a) for a in edge_ast.attrs],
            fixed=edge_ast.fixed, inherits=edge_ast.inherits)
    for rule in lang_ast.prods:
        language.prod(rule)
    for rule in lang_ast.cstrs:
        language.cstr(rule)
    for extern_ast in lang_ast.externs:
        binding = extern.get(extern_ast.name)
        if binding is None:
            raise LanguageError(
                f"language {lang_ast.name} binds extern-func "
                f"{extern_ast.name} but no Python callable was provided "
                "for it")
        language.extern_check(binding, name=extern_ast.name)
    return language


def _lower_func_val(value: ast.FuncValAst):
    if value.kind == "literal":
        return F.Literal(value.value)
    if value.kind == "arg":
        return F.ArgRef(value.value)
    if value.kind == "lambda":
        lam: ast.LambdaAst = value.value
        return F.LambdaVal(lam.params, lam.body)
    raise ParseError(f"unknown FuncVal kind {value.kind!r}")


def _lower_function(func_ast: ast.FuncAst,
                    known: dict[str, Language]) -> F.ArkFunction:
    language = known.get(func_ast.uses)
    if language is None:
        raise LanguageError(
            f"function {func_ast.name} uses unknown language "
            f"{func_ast.uses}")
    args = [F.FuncArg(a.name, _lower_sig(a.sig), applies_to=a.applies_to)
            for a in func_ast.args]
    statements: list[F.Statement] = []
    for stmt in func_ast.statements:
        if isinstance(stmt, ast.NodeStmtAst):
            statements.append(F.NodeStmt(stmt.name, stmt.type_name))
        elif isinstance(stmt, ast.EdgeStmtAst):
            statements.append(F.EdgeStmt(stmt.src, stmt.dst, stmt.name,
                                         stmt.type_name))
        elif isinstance(stmt, ast.SetAttrAst):
            statements.append(F.SetAttrStmt(stmt.owner, stmt.attr,
                                            _lower_func_val(stmt.value)))
        elif isinstance(stmt, ast.SetInitAst):
            statements.append(F.SetInitStmt(stmt.node, stmt.index,
                                            _lower_func_val(stmt.value)))
        elif isinstance(stmt, ast.SetSwitchAst):
            statements.append(F.SetSwitchStmt(stmt.edge, stmt.condition))
        else:
            raise ParseError(f"unknown statement {stmt!r}")
    return F.ArkFunction(func_ast.name, language, args, statements)


@dataclass
class ParsedProgram:
    """Result of parsing + lowering a textual Ark program."""

    languages: dict[str, Language] = field(default_factory=dict)
    functions: dict[str, F.ArkFunction] = field(default_factory=dict)
    syntax: ast.ProgramAst | None = None


def lower_program(program: ast.ProgramAst,
                  languages: dict[str, Language] | None = None,
                  extern: dict[str, Callable] | None = None,
                  functions: dict[str, Callable] | None = None,
                  ) -> ParsedProgram:
    """Lower a parsed program.

    :param languages: already-constructed languages available for
        ``inherits`` and ``uses`` resolution.
    :param extern: Python callables for ``extern-func`` bindings.
    :param functions: expression-level functions to register in every
        language defined by the program (e.g. ``sat``, ``pulse``).
    """
    known = dict(languages or {})
    result = ParsedProgram(syntax=program)
    for lang_ast in program.languages:
        if lang_ast.name in known:
            raise LanguageError(
                f"language {lang_ast.name} is defined twice")
        lowered = _lower_language(lang_ast, known, dict(extern or {}),
                                  dict(functions or {}))
        known[lang_ast.name] = lowered
        result.languages[lang_ast.name] = lowered
    for func_ast in program.functions:
        if func_ast.name in result.functions:
            raise LanguageError(
                f"function {func_ast.name} is defined twice")
        result.functions[func_ast.name] = _lower_function(func_ast, known)
    return result


def parse_program(source: str,
                  languages: dict[str, Language] | None = None,
                  extern: dict[str, Callable] | None = None,
                  functions: dict[str, Callable] | None = None,
                  ) -> ParsedProgram:
    """Parse and lower a textual Ark program in one call."""
    return lower_program(parse(source), languages=languages,
                         extern=extern, functions=functions)


def parse_language(source: str, **options) -> Language:
    """Parse a program that defines exactly one language and return it."""
    program = parse_program(source, **options)
    if len(program.languages) != 1:
        raise ParseError(
            f"expected exactly one language definition, found "
            f"{len(program.languages)}")
    return next(iter(program.languages.values()))


def parse_function(source: str,
                   languages: dict[str, Language] | None = None,
                   **options) -> F.ArkFunction:
    """Parse a program that defines exactly one function and return it."""
    program = parse_program(source, languages=languages, **options)
    if len(program.functions) != 1:
        raise ParseError(
            f"expected exactly one function definition, found "
            f"{len(program.functions)}")
    return next(iter(program.functions.values()))
