"""Recursive-descent parser for the Fig. 6 grammar.

Accepts the concrete syntax of the paper's listings, including its
abbreviations and spelling variants:

* ``ntyp`` / ``node-type``, ``etyp`` / ``edge-type``;
* ``inherit`` / ``inherits`` for both types and languages;
* ``set-switch`` (prose) / ``set-edge`` (grammar);
* ``fn(...)`` (Fig. 7) / ``lambd(...)`` (grammar) for function datatypes;
* dashed names (``gmc-tln``, ``br-func``), re-joined by
  :meth:`~repro.core.exprparse.TokenStream.dashed_name`;
* ``,`` and ``;`` are interchangeable statement separators, as the
  listings use both.

The parser builds the core objects as it reads, in one pass: datatypes
through :func:`~repro.core.datatypes.real`/``integer``/``lambd``,
attribute and init declarations, function arguments and statements.
``prod`` and ``cstr`` rules are read by the core rule readers
(:func:`~repro.core.production.read_production`,
:func:`~repro.core.validation.read_constraint`) — the same grammar the
Python API's rule strings go through. A datatype or rule the core
constructors reject is a :class:`~repro.errors.ParseError` at its first
token, with the constructor's message.

A ``lang`` block becomes a :class:`~repro.core.language.Language` at
its closing ``}``, declared through the same API a hand-built language
uses, so it obeys the same §4.1.1 checks: expression functions first,
then node types, edge types, ``prod`` and ``cstr`` rules and
``extern-func`` bindings, so a rule may precede the types it names. Its
parent is resolved among the caller's languages and those defined
earlier in the source. Functions are built once the whole source has
been read, since a ``func`` may precede the ``lang`` it ``uses``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core import function as F
from repro.core.attributes import AttrDecl, InitDecl
from repro.core.datatypes import Datatype, integer, lambd, real
from repro.core.exprparse import ExpressionParser, TokenStream, tokenize
from repro.core.language import Language
from repro.core.production import read_production
from repro.core.validation import read_constraint
from repro.errors import DatatypeError, LanguageError, ParseError


@dataclass
class ParsedProgram:
    """The languages and functions a textual Ark program defines."""

    languages: dict[str, Language] = field(default_factory=dict)
    functions: dict[str, F.ArkFunction] = field(default_factory=dict)


class ProgramParser:
    """Parses a whole Ark program (languages + functions).

    :param languages: already-constructed languages available for
        ``inherits`` and ``uses`` resolution.
    :param extern: Python callables for ``extern-func`` bindings.
    :param functions: expression-level functions to register in every
        language defined by the program (e.g. ``sat``, ``pulse``).
    """

    def __init__(self, source: str,
                 languages: dict[str, Language] | None = None,
                 extern: dict[str, Callable] | None = None,
                 functions: dict[str, Callable] | None = None):
        self.stream = TokenStream(tokenize(source))
        self.exprs = ExpressionParser(self.stream)
        self.known = dict(languages or {})
        self.extern = dict(extern or {})
        self.functions = dict(functions or {})

    # ------------------------------------------------------------------
    # Program
    # ------------------------------------------------------------------

    def parse_program(self) -> ParsedProgram:
        result = ParsedProgram()
        functions = []
        while not self.stream.at("eof"):
            keyword = self.stream.dashed_name()
            if keyword == "lang":
                language = self._language()
                result.languages[language.name] = language
            elif keyword == "func":
                functions.append(self._function())
            else:
                self.stream.error(
                    f"expected `lang` or `func`, found {keyword!r}")
            self.stream.skip_separators()
        for name, uses, args, statements in functions:
            if name in result.functions:
                raise LanguageError(f"function {name} is defined twice")
            language = self.known.get(uses)
            if language is None:
                raise LanguageError(
                    f"function {name} uses unknown language {uses}")
            result.functions[name] = F.ArkFunction(name, language, args,
                                                   statements)
        return result

    # ------------------------------------------------------------------
    # Language definitions
    # ------------------------------------------------------------------

    def _language(self) -> Language:
        name = self.stream.dashed_name()
        inherits = self._inherits()
        self.stream.expect("op", "{")
        node_types, edge_types, prods, cstrs, externs = [], [], [], [], []
        while not self.stream.at("op", "}"):
            keyword = self.stream.dashed_name()
            if keyword in ("ntyp", "node-type"):
                node_types.append(self._node_type())
            elif keyword in ("etyp", "edge-type"):
                edge_types.append(self._edge_type())
            elif keyword == "prod":
                prods.append(read_production(self.stream))
            elif keyword == "cstr":
                cstrs.append(read_constraint(self.stream))
            elif keyword == "extern-func":
                externs.append(self.stream.dashed_name())
            else:
                self.stream.error(
                    f"unknown language statement {keyword!r}")
            self.stream.skip_separators()
        self.stream.expect("op", "}")

        if name in self.known:
            raise LanguageError(f"language {name} is defined twice")
        parent = None
        if inherits is not None:
            parent = self.known.get(inherits)
            if parent is None:
                raise LanguageError(
                    f"language {name} inherits unknown language "
                    f"{inherits}")
        language = Language(name, parent=parent)
        for function_name, fn in self.functions.items():
            language.register_function(function_name, fn)
        for declaration in node_types:
            language.node_type(**declaration)
        for declaration in edge_types:
            language.edge_type(**declaration)
        for rule in prods:
            language.prod(rule)
        for rule in cstrs:
            language.cstr(rule)
        for extern_name in externs:
            binding = self.extern.get(extern_name)
            if binding is None:
                raise LanguageError(
                    f"language {name} binds extern-func {extern_name} "
                    "but no Python callable was provided for it")
            language.extern_check(binding, name=extern_name)
        self.known[name] = language
        return language

    def _inherits(self) -> str | None:
        """An optional ``inherit``/``inherits parent`` clause."""
        if self.stream.accept("ident", "inherit") or \
                self.stream.accept("ident", "inherits"):
            return self.stream.dashed_name()
        return None

    def _node_type(self) -> dict:
        """``(p, Reduc) name [inherit parent] {...}`` as
        :meth:`~repro.core.language.Language.node_type` arguments."""
        self.stream.expect("op", "(")
        order = self.stream.natural("node order")
        self.stream.expect("op", ",")
        reduction = self.stream.expect("ident").text
        self.stream.expect("op", ")")
        name = self.stream.dashed_name()
        inherits = self._inherits()
        attrs, inits = self._type_body(allow_init=True)
        return dict(name=name, order=order, reduction=reduction,
                    attrs=attrs, inits=inits, inherits=inherits)

    def _edge_type(self) -> dict:
        """``[fixed] name [fixed] [inherit parent] {...}`` as
        :meth:`~repro.core.language.Language.edge_type` arguments."""
        fixed = bool(self.stream.accept("ident", "fixed"))
        name = self.stream.dashed_name()
        # `edge-type fixed` may follow the name in the grammar.
        fixed = bool(self.stream.accept("ident", "fixed")) or fixed
        inherits = self._inherits()
        attrs, _inits = self._type_body(allow_init=False)
        return dict(name=name, attrs=attrs, fixed=fixed, inherits=inherits)

    def _type_body(self, allow_init: bool):
        attrs: list[AttrDecl] = []
        inits: list[InitDecl] = []
        self.stream.expect("op", "{")
        while not self.stream.at("op", "}"):
            keyword = self.stream.expect("ident").text
            if keyword == "attr":
                attr_name = self.stream.dashed_name()
                self.stream.expect("op", "=")
                datatype, const = self._sig_type()
                attrs.append(AttrDecl(attr_name, datatype, const=const))
            elif keyword == "init" and allow_init:
                self.stream.expect("op", "(")
                index = self.stream.natural("init index")
                self.stream.expect("op", ")")
                self.stream.accept("op", "=")
                datatype, const = self._sig_type()
                inits.append(InitDecl(index, datatype, const=const))
            else:
                self.stream.error(
                    f"unexpected {keyword!r} in type body")
            self.stream.skip_separators()
        self.stream.expect("op", "}")
        return attrs, inits

    def _sig_type(self) -> tuple[Datatype, bool]:
        """A datatype ``real[a,b] mm(s0,s1) ns(sigma,kind)`` /
        ``int[a,b] ...`` / ``lambd(a0,...)`` and whether a ``const``
        marker follows it."""
        first = self.stream.expect("ident")
        if first.text in ("real", "int"):
            self.stream.expect("op", "[")
            lo = self._number()
            self.stream.expect("op", ",")
            hi = self._number()
            self.stream.expect("op", "]")
            mm = None
            if self.stream.accept("ident", "mm"):
                self.stream.expect("op", "(")
                s0 = self._number()
                self.stream.expect("op", ",")
                s1 = self._number()
                self.stream.expect("op", ")")
                mm = (s0, s1)
            ns = None
            if self.stream.accept("ident", "ns"):
                # Transient-noise annotation ns(sigma[,kind]); the kind
                # defaults to absolute amplitude.
                self.stream.expect("op", "(")
                sigma = self._number()
                ns_kind = "abs"
                if self.stream.accept("op", ","):
                    ns_kind = self.stream.expect("ident").text
                self.stream.expect("op", ")")
                ns = (sigma, ns_kind)
            build = real if first.text == "real" else integer
            arguments = (lo, hi, mm, ns)
        elif first.text in ("lambd", "fn", "lambda"):
            self.stream.expect("op", "(")
            arity = 0
            if not self.stream.at("op", ")"):
                self.stream.expect("ident")
                arity = 1
                while self.stream.accept("op", ","):
                    self.stream.expect("ident")
                    arity += 1
            self.stream.expect("op", ")")
            build, arguments = lambd, (arity,)
        else:
            raise ParseError(f"unknown datatype {first.text!r}",
                             first.line, first.column)
        try:
            datatype = build(*arguments)
        except DatatypeError as err:
            raise ParseError(str(err), first.line, first.column) from None
        return datatype, bool(self.stream.accept("ident", "const"))

    def _number(self) -> float:
        sign = 1.0
        while True:
            if self.stream.accept("op", "-"):
                sign = -sign
            elif self.stream.accept("op", "+"):
                pass
            else:
                break
        if self.stream.accept("ident", "inf"):
            return sign * math.inf
        token = self.stream.expect("num")
        return sign * float(token.text)

    # ------------------------------------------------------------------
    # Function definitions
    # ------------------------------------------------------------------

    def _function(self):
        """``name (args) uses lang {...}`` as its name, the name of the
        language it uses, its arguments and its statements."""
        name = self.stream.dashed_name()
        self.stream.expect("op", "(")
        args: list[F.FuncArg] = []
        if not self.stream.at("op", ")"):
            args.append(self._func_arg())
            while self.stream.accept("op", ","):
                args.append(self._func_arg())
        self.stream.expect("op", ")")
        self.stream.expect("ident", "uses")
        uses = self.stream.dashed_name()
        self.stream.expect("op", "{")
        statements: list[F.Statement] = []
        while not self.stream.at("op", "}"):
            statements.append(self._func_stmt())
            self.stream.skip_separators()
        self.stream.expect("op", "}")
        return name, uses, args, statements

    def _func_arg(self) -> F.FuncArg:
        name = self.stream.dashed_name()
        applies_to = None
        if self.stream.accept("op", "."):
            attr = self.stream.dashed_name()
            applies_to = (name, attr)
            name = f"{name}.{attr}"
        self.stream.expect("op", ":")
        datatype, _const = self._sig_type()
        return F.FuncArg(name, datatype, applies_to)

    def _func_stmt(self) -> F.Statement:
        keyword = self.stream.dashed_name()
        if keyword == "node":
            name = self.stream.dashed_name()
            self.stream.expect("op", ":")
            return F.NodeStmt(name, self.stream.dashed_name())
        if keyword == "edge":
            self.stream.expect("op", "<")
            src = self.stream.dashed_name()
            self.stream.expect("op", ",")
            dst = self.stream.dashed_name()
            self.stream.expect("op", ">")
            name = self.stream.dashed_name()
            self.stream.expect("op", ":")
            return F.EdgeStmt(src, dst, name, self.stream.dashed_name())
        if keyword == "set-attr":
            owner = self.stream.dashed_name()
            self.stream.expect("op", ".")
            attr = self.stream.dashed_name()
            self.stream.expect("op", "=")
            return F.SetAttrStmt(owner, attr, self._func_val())
        if keyword == "set-init":
            node = self.stream.dashed_name()
            self.stream.expect("op", "(")
            index = self.stream.natural("set-init index")
            self.stream.expect("op", ")")
            self.stream.expect("op", "=")
            return F.SetInitStmt(node, index, self._func_val())
        if keyword in ("set-switch", "set-edge"):
            edge = self.stream.dashed_name()
            self.stream.expect("ident", "when")
            return F.SetSwitchStmt(edge, self.exprs.parse())
        self.stream.error(f"unknown function statement {keyword!r}")
        raise AssertionError("unreachable")

    def _func_val(self) -> F.Literal | F.ArgRef | F.LambdaVal:
        if self.stream.accept("ident", "lambd") or \
                self.stream.accept("ident", "fn"):
            self.stream.expect("op", "(")
            params: list[str] = []
            if not self.stream.at("op", ")"):
                params.append(self.stream.dashed_name())
                while self.stream.accept("op", ","):
                    params.append(self.stream.dashed_name())
            self.stream.expect("op", ")")
            self.stream.expect("op", ":")
            return F.LambdaVal(tuple(params), self.exprs.parse())
        if self.stream.at("ident"):
            return F.ArgRef(self.stream.dashed_name())
        return F.Literal(self._number())


def parse_program(source: str,
                  languages: dict[str, Language] | None = None,
                  extern: dict[str, Callable] | None = None,
                  functions: dict[str, Callable] | None = None,
                  ) -> ParsedProgram:
    """Parse a textual Ark program into core languages and functions.

    The options are those of :class:`ProgramParser`.
    """
    return ProgramParser(source, languages, extern,
                         functions).parse_program()


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
