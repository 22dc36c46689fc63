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

``prod`` and ``cstr`` rules are read by the core rule readers
(:func:`~repro.core.production.read_production`,
:func:`~repro.core.validation.read_constraint`) — the same grammar the
Python API's rule strings go through — so a language's syntax tree
holds core :class:`~repro.core.production.ProductionRule` and
:class:`~repro.core.validation.ConstraintRule` objects directly.
"""

from __future__ import annotations

import math

from repro.core.exprparse import ExpressionParser, TokenStream, tokenize
from repro.core.production import ProductionRule, read_production
from repro.core.validation import ConstraintRule, read_constraint
from repro.lang import ast


class ProgramParser:
    """Parses a whole Ark program (languages + functions)."""

    def __init__(self, source: str):
        self.stream = TokenStream(tokenize(source))
        self.exprs = ExpressionParser(self.stream)

    # ------------------------------------------------------------------
    # Program
    # ------------------------------------------------------------------

    def parse_program(self) -> ast.ProgramAst:
        languages: list[ast.LangAst] = []
        functions: list[ast.FuncAst] = []
        while not self.stream.at("eof"):
            keyword = self.stream.dashed_name()
            if keyword == "lang":
                languages.append(self._lang_body())
            elif keyword == "func":
                functions.append(self._func_body())
            else:
                self.stream.error(
                    f"expected `lang` or `func`, found {keyword!r}")
            self.stream.skip_separators()
        return ast.ProgramAst(tuple(languages), tuple(functions))

    # ------------------------------------------------------------------
    # Language definitions
    # ------------------------------------------------------------------

    def _lang_body(self) -> ast.LangAst:
        name = self.stream.dashed_name()
        inherits = self._inherits()
        self.stream.expect("op", "{")
        node_types: list[ast.NodeTypeAst] = []
        edge_types: list[ast.EdgeTypeAst] = []
        prods: list[ProductionRule] = []
        cstrs: list[ConstraintRule] = []
        externs: list[ast.ExternAst] = []
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
                externs.append(ast.ExternAst(self.stream.dashed_name()))
            else:
                self.stream.error(
                    f"unknown language statement {keyword!r}")
            self.stream.skip_separators()
        self.stream.expect("op", "}")
        return ast.LangAst(name, inherits, tuple(node_types),
                           tuple(edge_types), tuple(prods), tuple(cstrs),
                           tuple(externs))

    def _inherits(self) -> str | None:
        """An optional ``inherit``/``inherits parent`` clause."""
        if self.stream.accept("ident", "inherit") or \
                self.stream.accept("ident", "inherits"):
            return self.stream.dashed_name()
        return None

    def _node_type(self) -> ast.NodeTypeAst:
        self.stream.expect("op", "(")
        order = self.stream.natural("node order")
        self.stream.expect("op", ",")
        reduction = self.stream.expect("ident").text
        self.stream.expect("op", ")")
        name = self.stream.dashed_name()
        inherits = self._inherits()
        attrs, inits = self._type_body(allow_init=True)
        return ast.NodeTypeAst(name, order, reduction, inherits,
                               tuple(attrs), tuple(inits))

    def _edge_type(self) -> ast.EdgeTypeAst:
        fixed = False
        if self.stream.at("ident", "fixed"):
            self.stream.next()
            fixed = True
        name = self.stream.dashed_name()
        if self.stream.at("ident", "fixed"):
            # `edge-type fixed` may follow the name in the grammar.
            self.stream.next()
            fixed = True
        inherits = self._inherits()
        attrs, inits = self._type_body(allow_init=False)
        if inits:
            self.stream.error("edge types cannot declare initial values")
        return ast.EdgeTypeAst(name, fixed, inherits, tuple(attrs))

    def _type_body(self, allow_init: bool):
        attrs: list[ast.AttrAst] = []
        inits: list[ast.InitAst] = []
        self.stream.expect("op", "{")
        while not self.stream.at("op", "}"):
            keyword = self.stream.expect("ident").text
            if keyword == "attr":
                attr_name = self.stream.dashed_name()
                self.stream.expect("op", "=")
                attrs.append(ast.AttrAst(attr_name, self._sig_type()))
            elif keyword == "init" and allow_init:
                self.stream.expect("op", "(")
                index = self.stream.natural("init index")
                self.stream.expect("op", ")")
                self.stream.accept("op", "=")
                inits.append(ast.InitAst(index, self._sig_type()))
            else:
                self.stream.error(
                    f"unexpected {keyword!r} in type body")
            self.stream.skip_separators()
        self.stream.expect("op", "}")
        return attrs, inits

    def _sig_type(self) -> ast.SigTAst:
        kind = self.stream.expect("ident").text
        if kind == "real" or kind == "int":
            self.stream.expect("op", "[")
            lo = self._number()
            self.stream.expect("op", ",")
            hi = self._number()
            self.stream.expect("op", "]")
            mm = None
            if self.stream.at("ident", "mm"):
                self.stream.next()
                self.stream.expect("op", "(")
                s0 = self._number()
                self.stream.expect("op", ",")
                s1 = self._number()
                self.stream.expect("op", ")")
                mm = (s0, s1)
            ns = None
            if self.stream.at("ident", "ns"):
                # Transient-noise annotation ns(sigma[,kind]); the kind
                # defaults to absolute amplitude.
                self.stream.next()
                self.stream.expect("op", "(")
                sigma = self._number()
                ns_kind = "abs"
                if self.stream.accept("op", ","):
                    ns_kind = self.stream.expect("ident").text
                self.stream.expect("op", ")")
                ns = (sigma, ns_kind)
            const = bool(self.stream.accept("ident", "const"))
            return ast.SigTAst("real" if kind == "real" else "int",
                               lo=lo, hi=hi, mm=mm, const=const, ns=ns)
        if kind in ("lambd", "fn", "lambda"):
            self.stream.expect("op", "(")
            arity = 0
            if not self.stream.at("op", ")"):
                self.stream.expect("ident")
                arity = 1
                while self.stream.accept("op", ","):
                    self.stream.expect("ident")
                    arity += 1
            self.stream.expect("op", ")")
            const = bool(self.stream.accept("ident", "const"))
            return ast.SigTAst("lambda", arity=arity, const=const)
        self.stream.error(f"unknown datatype {kind!r}")
        raise AssertionError("unreachable")

    def _number(self) -> float:
        sign = 1.0
        while True:
            if self.stream.accept("op", "-"):
                sign = -sign
            elif self.stream.accept("op", "+"):
                pass
            else:
                break
        if self.stream.at("ident", "inf"):
            self.stream.next()
            return sign * math.inf
        token = self.stream.expect("num")
        return sign * float(token.text)

    # ------------------------------------------------------------------
    # Function definitions
    # ------------------------------------------------------------------

    def _func_body(self) -> ast.FuncAst:
        name = self.stream.dashed_name()
        self.stream.expect("op", "(")
        args: list[ast.FuncArgAst] = []
        if not self.stream.at("op", ")"):
            args.append(self._func_arg())
            while self.stream.accept("op", ","):
                args.append(self._func_arg())
        self.stream.expect("op", ")")
        self.stream.expect("ident", "uses")
        uses = self.stream.dashed_name()
        self.stream.expect("op", "{")
        statements: list[ast.FuncStmtAst] = []
        while not self.stream.at("op", "}"):
            statements.append(self._func_stmt())
            self.stream.skip_separators()
        self.stream.expect("op", "}")
        return ast.FuncAst(name, tuple(args), uses, tuple(statements))

    def _func_arg(self) -> ast.FuncArgAst:
        name = self.stream.dashed_name()
        applies_to = None
        if self.stream.accept("op", "."):
            attr = self.stream.dashed_name()
            applies_to = (name, attr)
            name = f"{name}.{attr}"
        self.stream.expect("op", ":")
        sig = self._sig_type()
        return ast.FuncArgAst(name, sig, applies_to)

    def _func_stmt(self) -> ast.FuncStmtAst:
        keyword = self.stream.dashed_name()
        if keyword == "node":
            name = self.stream.dashed_name()
            self.stream.expect("op", ":")
            return ast.NodeStmtAst(name, self.stream.dashed_name())
        if keyword == "edge":
            self.stream.expect("op", "<")
            src = self.stream.dashed_name()
            self.stream.expect("op", ",")
            dst = self.stream.dashed_name()
            self.stream.expect("op", ">")
            name = self.stream.dashed_name()
            self.stream.expect("op", ":")
            return ast.EdgeStmtAst(src, dst, name, self.stream.dashed_name())
        if keyword == "set-attr":
            owner = self.stream.dashed_name()
            self.stream.expect("op", ".")
            attr = self.stream.dashed_name()
            self.stream.expect("op", "=")
            return ast.SetAttrAst(owner, attr, self._func_val())
        if keyword == "set-init":
            node = self.stream.dashed_name()
            self.stream.expect("op", "(")
            index = self.stream.natural("set-init index")
            self.stream.expect("op", ")")
            self.stream.expect("op", "=")
            return ast.SetInitAst(node, index, self._func_val())
        if keyword in ("set-switch", "set-edge"):
            edge = self.stream.dashed_name()
            self.stream.expect("ident", "when")
            condition = self.exprs.parse()
            return ast.SetSwitchAst(edge, condition)
        self.stream.error(f"unknown function statement {keyword!r}")
        raise AssertionError("unreachable")

    def _func_val(self) -> ast.FuncValAst:
        if self.stream.at("ident", "lambd") or self.stream.at("ident",
                                                              "fn"):
            self.stream.next()
            self.stream.expect("op", "(")
            params: list[str] = []
            if not self.stream.at("op", ")"):
                params.append(self.stream.dashed_name())
                while self.stream.accept("op", ","):
                    params.append(self.stream.dashed_name())
            self.stream.expect("op", ")")
            self.stream.expect("op", ":")
            body = self.exprs.parse()
            return ast.FuncValAst(
                "lambda", ast.LambdaAst(tuple(params), body))
        if self.stream.at("ident"):
            return ast.FuncValAst("arg", self.stream.dashed_name())
        return ast.FuncValAst("literal", self._number())


def parse(source: str) -> ast.ProgramAst:
    """Parse ``source`` into a :class:`~repro.lang.ast.ProgramAst`."""
    parser = ProgramParser(source)
    return parser.parse_program()
