"""Tokenizer and recursive-descent parser for the rule language.

A specification file is a declarations section followed by named rules:

    signal speed : real
    signal surface : enum {track, offroad}

    rule speed_limit: G[0, inf] (speed < 900)

Whitespace is insignificant and `#` comments run to end of line.
Operator precedence and associativity come from the AST classes in
`formula.py` (each class's `op` and `prec`); the parser only reads them.

Each token is read once: a `(` groups a formula or the left expression of
a comparison, as in `(x + 1) < 2`, and its first token decides which. The
parser is the one place a specification is checked. Every input either
parses to a well-formed Specification (unique names, declared signals,
kind-correct predicates, legal intervals) or raises ParseError at the
source span of its first fault; no other exception escapes.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from contextlib import contextmanager

from .formula import (
    KEYWORDS,
    UNBOUNDED,
    Abs,
    Add,
    And,
    Atom,
    BoolIs,
    CmpOp,
    Compare,
    Constant,
    Deriv,
    Div,
    EnumEq,
    Eventually,
    Formula,
    Globally,
    Implies,
    Interval,
    Mul,
    Not,
    Or,
    Predicate,
    Rule,
    SignalDecl,
    SignalExpr,
    SignalKind,
    SignalRef,
    Specification,
    Sub,
    Until,
    _Record,
)


class SourceSpan(_Record):
    line: int
    column: int
    length: int = 1


class ParseError(Exception):
    def __init__(self, span: SourceSpan, message: str, expected: tuple[str, ...] = ()):
        self.span = span
        self.message = message
        self.expected = expected
        super().__init__(str(self))

    def __str__(self) -> str:
        text = f"line {self.span.line}, column {self.span.column}: {self.message}"
        if self.expected:
            text += " (expected " + " or ".join(self.expected) + ")"
        return text


class Token(_Record):
    kind: str  # "keyword" | "ident" | "number" | "op" | "eof"
    text: str
    span: SourceSpan
    value: float = 0.0


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<number>\d+(?:\.\d+)?)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|==|!=|->|&&|\|\||[<>!+\-*/()\[\]{},:])
    """,
    re.VERBOSE,
)


def tokenize(source: str) -> list[Token]:
    """Split source text into tokens; raises ParseError on a bad character."""
    line_starts = [0]
    for i, ch in enumerate(source):
        if ch == "\n":
            line_starts.append(i + 1)

    def span_at(pos: int, length: int = 1) -> SourceSpan:
        line = bisect_right(line_starts, pos)
        return SourceSpan(line, pos - line_starts[line - 1] + 1, max(length, 1))

    tokens: list[Token] = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(span_at(pos), f"unrecognized character {source[pos]!r}")
        if m.lastgroup == "number":
            value = float(m.group())
            if value == float("inf"):  # literal too large for a finite double
                raise ParseError(span_at(pos, len(m.group())), "numeric literal too large")
            tokens.append(Token("number", m.group(), span_at(pos, len(m.group())), value))
        elif m.lastgroup == "ident":
            kind = "keyword" if m.group() in KEYWORDS else "ident"
            tokens.append(Token(kind, m.group(), span_at(pos, len(m.group()))))
        elif m.lastgroup == "op":
            tokens.append(Token("op", m.group(), span_at(pos, len(m.group()))))
        pos = m.end()
    tokens.append(Token("eof", "", span_at(n)))
    return tokens


# Bound on recursive-descent depth: each `(`, prefix operator and `->` is
# one level, and a rule's formula, operand and expression take three, so
# 117 nested groups parse. Keeps the parser far from the interpreter stack
# limit; real rules nest a handful of levels deep.
MAX_NESTING = 120

# Operator tokens, read from the classes that own them.
_BINARY = {cls.op: cls for cls in (Implies, Or, And, Until)}
_UNARY = {cls.op: cls for cls in (Not, Globally, Eventually)}
_ARITH = {cls.op: cls for cls in (Add, Sub, Mul, Div)}
_COMPARE = {op.value: op for op in CmpOp}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.decls: dict[str, SignalDecl] = {}
        self.nesting = 0

    @contextmanager
    def _nested(self):
        # Every level counted is given back, a refused one too.
        self.nesting += 1
        try:
            if self.nesting > MAX_NESTING:
                raise ParseError(self.peek().span, "formula nests too deeply")
            yield
        finally:
            self.nesting -= 1

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        if not self.at(kind, text):
            tok = self.peek()
            wanted = what or (repr(text) if text else kind)
            raise ParseError(tok.span, f"unexpected {_describe(tok)}", (wanted,))
        return self.advance()

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        return ParseError(self.peek().span, message, expected)

    # -- grammar -----------------------------------------------------------

    def specification(self) -> Specification:
        while self.at("keyword", "signal"):
            self.declaration()
        rules: list[Rule] = []
        names: set[str] = set()
        while self.at("keyword", "rule"):
            self.advance()
            name_tok = self.expect("ident", what="rule name")
            if name_tok.text in names:
                raise ParseError(name_tok.span, f"duplicate rule '{name_tok.text}'")
            names.add(name_tok.text)
            self.expect("op", ":")
            rules.append(Rule(name_tok.text, self.formula()))
        if not self.at("eof"):
            raise self.error(
                f"unexpected {_describe(self.peek())}", ("'signal'", "'rule'", "end of input")
            )
        return Specification(tuple(self.decls.values()), tuple(rules))

    def declaration(self) -> None:
        self.expect("keyword", "signal")
        name_tok = self.expect("ident", what="signal name")
        if name_tok.text in self.decls:
            raise ParseError(name_tok.span, f"duplicate signal '{name_tok.text}'")
        self.expect("op", ":")
        tok = self.peek()
        if self.at("keyword", "real"):
            self.advance()
            decl = SignalDecl(name_tok.text, SignalKind.REAL)
        elif self.at("keyword", "bool"):
            self.advance()
            decl = SignalDecl(name_tok.text, SignalKind.BOOL)
        elif self.at("keyword", "enum"):
            self.advance()
            self.expect("op", "{")
            variants = [self.expect("ident", what="variant name")]
            while self.at("op", ","):
                self.advance()
                variants.append(self.expect("ident", what="variant name"))
            self.expect("op", "}")
            seen: set[str] = set()
            for v in variants:
                if v.text in seen:
                    raise ParseError(v.span, f"duplicate variant '{v.text}'")
                seen.add(v.text)
            decl = SignalDecl(name_tok.text, SignalKind.ENUM, tuple(v.text for v in variants))
        else:
            raise ParseError(tok.span, f"unexpected {_describe(tok)}", ("'real'", "'bool'", "'enum'"))
        self.decls[name_tok.text] = decl

    def formula(self) -> Formula:
        with self._nested():
            return self._binary(Implies.prec)

    def _binary(self, prec: int, first: Formula | None = None) -> Formula:
        """Precedence climbing: an operand, then each operator binding at `prec` or tighter."""
        f = self.unary() if first is None else first
        while (cls := _BINARY.get(self.peek().text)) is not None and cls.prec >= prec:
            op_tok = self.advance()
            if cls is Implies:  # right-associative
                f = Implies(f, self.formula())
            elif cls is Until:
                if not self.at("op", "["):
                    raise ParseError(op_tok.span, "U requires an explicit interval", ("'['",))
                f = Until(self.interval(), f, self._binary(cls.prec + 1))
            else:
                f = cls(f, self._binary(cls.prec + 1))
        return f

    def unary(self) -> Formula:
        with self._nested():
            cls = _UNARY.get(self.peek().text)
            if cls is None:
                return self.primary()
            self.advance()
            if cls is Not:
                return Not(self.unary())
            iv = self.interval() if self.at("op", "[") else Interval(0.0, UNBOUNDED)
            return cls(iv, self.unary())

    def interval(self) -> Interval:
        self.expect("op", "[")
        lo = self.expect("number", what="number").value
        self.expect("op", ",")
        hi_tok = self.peek()
        if self.at("keyword", "inf"):
            self.advance()
            hi = UNBOUNDED
        else:
            hi = self.expect("number", what="number or 'inf'").value
        self.expect("op", "]")
        try:
            return Interval(lo, hi)
        except ValueError as exc:  # the grammar admits only hi < lo
            raise ParseError(hi_tok.span, str(exc)) from None

    def primary(self) -> Formula:
        group = self._group() if self.at("op", "(") else None
        return group if isinstance(group, Formula) else Atom(self.predicate(group))

    def _group(self) -> Formula | SignalExpr:
        """Read `( ... )` once: a grouped formula, or the left expression of a
        comparison, as in `(x + 1) < 2`, returned with the arithmetic after `)`."""
        with self._nested():
            self.advance()
            tok = self.peek()
            decl = self.decls.get(tok.text)
            first = None  # `!`, `G`, `F` and bool or enum signals start a formula
            if tok.text not in _UNARY and (decl is None or decl.kind is SignalKind.REAL):
                first = self._group() if self.at("op", "(") else self.expr()
                if isinstance(first, SignalExpr):
                    if self.peek().text not in _COMPARE:
                        self.expect("op", ")")
                        return self.expr(1, first)
                    first = Atom(self.predicate(first))
            inner = self._binary(Implies.prec, first)
            self.expect("op", ")")
            return inner

    def predicate(self, lhs: SignalExpr | None = None) -> Predicate:
        tok = self.peek()
        if tok.kind == "ident" and lhs is None:
            decl = self.decls.get(tok.text)
            if decl is not None and decl.kind is SignalKind.ENUM:
                return self.enum_predicate(decl)
            if decl is not None and decl.kind is SignalKind.BOOL:
                return self.bool_predicate(decl)
        lhs = self.expr() if lhs is None else lhs
        op_tok = self.peek()
        if op_tok.text in _COMPARE:
            self.advance()
            return Compare(lhs, _COMPARE[op_tok.text], self.expr())
        if op_tok.kind == "op" and op_tok.text in ("==", "!="):
            raise ParseError(op_tok.span, "'==' and '!=' apply only to enum or bool signals")
        raise ParseError(op_tok.span, f"unexpected {_describe(op_tok)}", ("comparison operator",))

    def enum_predicate(self, decl: SignalDecl) -> Predicate:
        self.advance()
        op_tok = self.peek()
        if not (self.at("op", "==") or self.at("op", "!=")):
            raise ParseError(
                op_tok.span, f"enum signal '{decl.name}' needs '==' or '!='", ("'=='", "'!='")
            )
        negated = self.advance().text == "!="
        var_tok = self.expect("ident", what="variant name")
        if var_tok.text not in decl.enum_variants:
            raise ParseError(
                var_tok.span, f"undeclared variant '{var_tok.text}' for '{decl.name}'"
            )
        return EnumEq(decl.name, var_tok.text, negated)

    def bool_predicate(self, decl: SignalDecl) -> Predicate:
        self.advance()
        if self.at("op", "==") or self.at("op", "!="):
            negated = self.advance().text == "!="
            val_tok = self.peek()
            if self.at("keyword", "true") or self.at("keyword", "false"):
                expected = self.advance().text == "true"
                return BoolIs(decl.name, expected != negated)
            raise ParseError(val_tok.span, f"unexpected {_describe(val_tok)}", ("'true'", "'false'"))
        return BoolIs(decl.name, True)  # bare boolean signal sugar

    # -- signal expressions -------------------------------------------------

    def expr(self, prec: int = 1, first: SignalExpr | None = None) -> SignalExpr:
        """Precedence climbing over `+ - * /`, all left-associative."""
        e = self.factor() if first is None else first
        while (cls := _ARITH.get(self.peek().text)) is not None and cls.prec >= prec:
            self.advance()
            e = cls(e, self.expr(cls.prec + 1))
        return e

    def factor(self) -> SignalExpr:
        with self._nested():
            tok = self.peek()
            if self.at("op", "-"):
                minus = self.advance()
                if self.at("number"):
                    return Constant(-self.advance().value)
                raise ParseError(minus.span, "'-' is only allowed before a numeric literal")
            if self.at("number"):
                return Constant(self.advance().value)
            if self.at("op", "("):
                self.advance()
                e = self.expr()
                self.expect("op", ")")
                return e
            if tok.kind == "ident":
                if self.peek(1).kind == "op" and self.peek(1).text == "(":
                    return self.call()
                self.advance()
                decl = self.decls.get(tok.text)
                if decl is None:
                    raise ParseError(tok.span, f"unknown signal '{tok.text}'")
                if decl.kind is not SignalKind.REAL:
                    raise ParseError(tok.span, f"signal '{tok.text}' is not real-valued")
                return SignalRef(tok.text)
            raise ParseError(tok.span, f"unexpected {_describe(tok)}", ("signal expression",))

    def call(self) -> SignalExpr:
        name_tok = self.advance()
        self.expect("op", "(")
        if name_tok.text == "abs":
            inner = self.expr()
            self.expect("op", ")")
            return Abs(inner)
        if name_tok.text == "deriv":
            sig_tok = self.expect("ident", what="signal name")
            decl = self.decls.get(sig_tok.text)
            if decl is None:
                raise ParseError(sig_tok.span, f"unknown signal '{sig_tok.text}'")
            if decl.kind is not SignalKind.REAL:
                raise ParseError(sig_tok.span, f"deriv of non-real signal '{sig_tok.text}'")
            self.expect("op", ")")
            return Deriv(sig_tok.text)
        raise ParseError(name_tok.span, f"unknown function '{name_tok.text}'", ("'abs'", "'deriv'"))


def _describe(tok: Token) -> str:
    return "end of input" if tok.kind == "eof" else f"{tok.kind} {tok.text!r}"


def parse_spec(source: str) -> Specification:
    """Parse a specification source text into a well-formed Specification.

    Raises ParseError (and nothing else) on any malformed input.
    """
    return _Parser(tokenize(source)).specification()
