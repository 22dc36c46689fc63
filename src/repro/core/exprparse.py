"""Parser for Ark math and boolean expressions.

Accepts the paper's concrete syntax as it appears in the language listings:

* ``-var(t)/s.c``
* ``e.wt*(-s.g*var(t)+s.fn(time))/t.c``
* ``-1.6e9*e.k*sin(var(s)-var(t))``
* ``if b then e else e'`` conditionals
* boolean operators ``and``/``or``/``not`` (also ``&&``/``||``/``!``)

Both ``time`` and ``times`` (Fig. 14 uses the latter) resolve to the
simulation time.

The lexer and :class:`TokenStream` are the token layer of every Ark
grammar: the rule readers in :mod:`repro.core` and the program parser
of :mod:`repro.lang` read from a stream. The stream owns the paper's
dashed names (``br-func``): the lexer emits dashes as operators so that
``a-b`` subtracts, and :meth:`TokenStream.dashed_name` re-joins
*adjacent* ``ident - ident`` runs in name positions, so both front ends
accept the same names.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core import expr as E
from repro.errors import LanguageError, ParseError

_TWO_CHAR_OPS = ("<=", ">=", "==", "!=", "&&", "||", "->")
_SINGLE_CHAR = "+-*/^().,<>!:[]{};="
_KEYWORDS = {"if", "then", "else", "and", "or", "not", "time", "times",
             "true", "false", "inf"}


@dataclass(frozen=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    pos: int
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens, tracking line/column for errors."""
    tokens: list[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch.isspace():
            i += 1
            continue
        if ch == "#" or source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        column = i - line_start + 1
        if ch.isdigit() or (ch == "." and i + 1 < n and
                            source[i + 1].isdigit()):
            j = i
            seen_exp = False
            while j < n:
                c = source[j]
                if c.isdigit() or c == ".":
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < n and (
                        source[j + 1].isdigit()
                        or (source[j + 1] in "+-" and j + 2 < n
                            and source[j + 2].isdigit())):
                    seen_exp = True
                    j += 1
                    if source[j] in "+-":
                        j += 1
                else:
                    break
            tokens.append(Token("num", source[i:j], i, line, column))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            # Identifiers never contain dashes at the lexer level: `a-b`
            # must tokenize as a subtraction so expressions like
            # `s.z-var(s)` (Fig. 10a) parse correctly. Dashed names from
            # the paper (br-func, gmc-tln, node-type...) are re-joined by
            # TokenStream.dashed_name from *adjacent* tokens.
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], i, line, column))
            i = j
            continue
        matched = False
        for op in _TWO_CHAR_OPS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, i, line, column))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if ch in _SINGLE_CHAR:
            tokens.append(Token("op", ch, i, line, column))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("eof", "", n, line, n - line_start + 1))
    return tokens


class TokenStream:
    """Cursor over a token list with the usual peek/expect helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    def peek(self, ahead: int = 0) -> Token:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def next(self) -> Token:
        token = self.peek()
        if token.kind != "eof":
            self._index += 1
        return token

    def at(self, kind: str, text: str | None = None) -> bool:
        token = self.peek()
        if token.kind != kind:
            return False
        return text is None or token.text == text

    def at_ident(self, text: str) -> bool:
        return self.at("ident", text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.peek()
        if not self.at(kind, text):
            expected = text or kind
            raise ParseError(
                f"expected {expected!r}, found {token.text or token.kind!r}",
                token.line, token.column)
        return self.next()

    def error(self, message: str):
        token = self.peek()
        raise ParseError(message, token.line, token.column)

    def expect_end(self):
        """Raise unless every token has been consumed."""
        if not self.at("eof"):
            self.error(f"unexpected trailing input {self.peek().text!r}")

    def dashed_name(self) -> str:
        """An identifier possibly containing glued dashes (br-func)."""
        token = self.expect("ident")
        name = token.text
        while (self.at("op", "-") and _adjacent(token, self.peek())
               and self.peek(1).kind == "ident"
               and _adjacent(self.peek(), self.peek(1))):
            self.next()  # the dash
            token = self.next()
            name += "-" + token.text
        return name

    def skip_separators(self):
        """Skip a run of ``,``/``;`` separators (the listings use both)."""
        while self.accept("op", ";") or self.accept("op", ","):
            pass


def _adjacent(first: Token, second: Token) -> bool:
    return second.pos == first.pos + len(first.text)


class ExpressionParser:
    """Recursive-descent parser producing :mod:`repro.core.expr` trees."""

    def __init__(self, stream: TokenStream):
        self.stream = stream

    # expr := if-expr | or-expr
    def parse(self) -> E.Expr:
        if self.stream.at_ident("if"):
            return self._if_expr()
        return self._or_expr()

    def _if_expr(self) -> E.Expr:
        self.stream.expect("ident", "if")
        cond = self._or_expr()
        self.stream.expect("ident", "then")
        then = self.parse()
        self.stream.expect("ident", "else")
        orelse = self.parse()
        return E.IfThenElse(cond, then, orelse)

    def _or_expr(self) -> E.Expr:
        left = self._and_expr()
        while self.stream.at_ident("or") or self.stream.at("op", "||"):
            self.stream.next()
            left = E.BoolOp("or", left, self._and_expr())
        return left

    def _and_expr(self) -> E.Expr:
        left = self._not_expr()
        while self.stream.at_ident("and") or self.stream.at("op", "&&"):
            self.stream.next()
            left = E.BoolOp("and", left, self._not_expr())
        return left

    def _not_expr(self) -> E.Expr:
        if self.stream.at_ident("not") or self.stream.at("op", "!"):
            self.stream.next()
            return E.Not(self._not_expr())
        return self._comparison()

    def _comparison(self) -> E.Expr:
        left = self._additive()
        for op in ("<=", ">=", "==", "!=", "<", ">"):
            if self.stream.at("op", op):
                self.stream.next()
                return E.Compare(op, left, self._additive())
        return left

    def _additive(self) -> E.Expr:
        left = self._multiplicative()
        while self.stream.at("op", "+") or self.stream.at("op", "-"):
            op = self.stream.next().text
            left = E.BinOp(op, left, self._multiplicative())
        return left

    def _multiplicative(self) -> E.Expr:
        left = self._unary()
        while self.stream.at("op", "*") or self.stream.at("op", "/"):
            op = self.stream.next().text
            left = E.BinOp(op, left, self._unary())
        return left

    def _unary(self) -> E.Expr:
        if self.stream.at("op", "-"):
            self.stream.next()
            return E.UnOp("-", self._unary())
        if self.stream.at("op", "+"):
            self.stream.next()
            return self._unary()
        return self._power()

    def _power(self) -> E.Expr:
        base = self._postfix()
        if self.stream.at("op", "^"):
            self.stream.next()
            return E.BinOp("^", base, self._unary())
        return base

    def _postfix(self) -> E.Expr:
        node = self._atom()
        while True:
            if self.stream.at("op", "."):
                self.stream.next()
                attr = self.stream.expect("ident").text
                if not isinstance(node, E.NameRef):
                    self.stream.error(
                        "attribute access requires a plain element name on "
                        "the left of `.`")
                node = E.AttrRef(node.name, attr)
            elif self.stream.at("op", "("):
                node = self._call(node)
            else:
                return node

    def _call(self, callee: E.Expr) -> E.Expr:
        self.stream.expect("op", "(")
        args: list[E.Expr] = []
        if not self.stream.at("op", ")"):
            args.append(self.parse())
            while self.stream.accept("op", ","):
                args.append(self.parse())
        self.stream.expect("op", ")")
        if isinstance(callee, E.AttrRef):
            return E.LambdaCall(callee, tuple(args))
        if isinstance(callee, E.NameRef):
            if callee.name == "var":
                if len(args) != 1 or not isinstance(args[0], E.NameRef):
                    self.stream.error(
                        "var(.) takes exactly one node name")
                return E.VarOf(args[0].name)
            return E.Call(callee.name, tuple(args))
        self.stream.error("only named functions and lambda attributes can "
                          "be called")
        raise AssertionError("unreachable")

    def _atom(self) -> E.Expr:
        token = self.stream.peek()
        if token.kind == "num":
            self.stream.next()
            return E.Const(float(token.text))
        if token.kind == "ident":
            if token.text in ("time", "times"):
                self.stream.next()
                return E.Time()
            if token.text == "true":
                self.stream.next()
                return E.BoolConst(True)
            if token.text == "false":
                self.stream.next()
                return E.BoolConst(False)
            if token.text == "inf":
                self.stream.next()
                return E.Const(math.inf)
            self.stream.next()
            return E.NameRef(token.text)
        if token.kind == "op" and token.text == "(":
            self.stream.next()
            inner = self.parse()
            self.stream.expect("op", ")")
            return inner
        self.stream.error(
            f"expected an expression, found {token.text or token.kind!r}")
        raise AssertionError("unreachable")


def parse_expression(source) -> E.Expr:
    """Parse ``source`` into an expression tree.

    Accepts either a string or an already-built :class:`~repro.core.expr.Expr`
    (which is returned unchanged), so every rule-construction API can take
    both forms.
    """
    if isinstance(source, E.Expr):
        return source
    stream = TokenStream(tokenize(source))
    tree = ExpressionParser(stream).parse()
    stream.expect_end()
    return tree


def parse_text(text: str, reader, keyword: str | None = None):
    """Run ``reader`` over all of ``text`` (a Python API rule string),
    allowing a leading ``keyword`` and a trailing ``;``. Syntax errors
    become :class:`~repro.errors.LanguageError`, keeping the offending
    token's line and column."""
    try:
        stream = TokenStream(tokenize(text))
        if keyword is not None:
            stream.accept("ident", keyword)
        result = reader(stream)
        stream.accept("op", ";")
        stream.expect_end()
    except ParseError as err:
        raise LanguageError(str(err)) from None
    return result
