"""Formula AST for the rule language: signal declarations, signal
expressions, predicates, temporal formulas and printing.

All nodes are immutable (frozen dataclasses) and compare structurally,
so formulas can be shared freely across concurrent evaluators and used
as dict keys. A parsed specification has been checked by the parser;
the only check the AST makes itself is that every `Interval` is legal,
so a hand-built formula cannot reach the evaluator with a window that
starts before the sample or ends before it begins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from enum import Enum
from typing import Optional

UNBOUNDED = math.inf

# Reserved words of the concrete syntax; signal and rule names must avoid
# them or the printed form would not re-parse.
KEYWORDS = frozenset(
    {"signal", "rule", "real", "bool", "enum", "G", "F", "U", "inf", "true", "false"}
)

def format_number(value: float) -> str:
    """Shortest decimal form that parses back to the same float.

    Integral values drop the fraction (900.0 -> "900"); everything else
    uses repr, expanded to positional notation because the grammar has
    no scientific literals.
    """
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot format non-finite number {value!r}")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(float(value))
    if "e" in text or "E" in text:
        text = format(Decimal(text), "f")
    return text


class SignalKind(Enum):
    REAL = "real"
    BOOL = "bool"
    ENUM = "enum"


@dataclass(frozen=True)
class SignalDecl:
    name: str
    kind: SignalKind
    enum_variants: tuple[str, ...] = ()


@dataclass(frozen=True)
class Interval:
    """Time window [lo, hi] in the trace's time unit; hi may be UNBOUNDED."""

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bound is NaN")
        if self.lo < 0:
            raise ValueError("interval lo < 0")
        if math.isinf(self.lo):
            raise ValueError("interval lo is not finite")
        if self.hi < self.lo:
            raise ValueError("interval hi < lo")

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.hi)

    def __str__(self) -> str:
        hi = "inf" if self.unbounded else format_number(self.hi)
        return f"[{format_number(self.lo)}, {hi}]"


# ---------------------------------------------------------------------------
# Signal expressions (the arithmetic layer inside comparison predicates)
# ---------------------------------------------------------------------------

class SignalExpr:
    def children(self) -> tuple["SignalExpr", ...]:
        return ()


@dataclass(frozen=True)
class SignalRef(SignalExpr):
    name: str


@dataclass(frozen=True)
class Constant(SignalExpr):
    value: float


@dataclass(frozen=True)
class Abs(SignalExpr):
    child: SignalExpr

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class Deriv(SignalExpr):
    """Backward-difference rate of change of a real signal."""

    name: str


@dataclass(frozen=True)
class _BinaryExpr(SignalExpr):
    lhs: SignalExpr
    rhs: SignalExpr

    def children(self):
        return (self.lhs, self.rhs)


class Add(_BinaryExpr):
    op = "+"


class Sub(_BinaryExpr):
    op = "-"


class Mul(_BinaryExpr):
    op = "*"


class Div(_BinaryExpr):
    op = "/"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

class CmpOp(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


class Predicate:
    pass


@dataclass(frozen=True)
class Compare(Predicate):
    lhs: SignalExpr
    op: CmpOp
    rhs: SignalExpr


@dataclass(frozen=True)
class EnumEq(Predicate):
    signal: str
    variant: str
    negated: bool = False


@dataclass(frozen=True)
class BoolIs(Predicate):
    signal: str
    expected: bool = True


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

class Formula:
    def children(self) -> tuple["Formula", ...]:
        return ()


@dataclass(frozen=True)
class Atom(Formula):
    predicate: Predicate


@dataclass(frozen=True)
class Not(Formula):
    child: Formula

    def children(self):
        return (self.child,)


@dataclass(frozen=True)
class _BinaryFormula(Formula):
    lhs: Formula
    rhs: Formula

    def children(self):
        return (self.lhs, self.rhs)


class And(_BinaryFormula):
    op = "&&"


class Or(_BinaryFormula):
    op = "||"


class Implies(_BinaryFormula):
    op = "->"


@dataclass(frozen=True)
class _TemporalUnary(Formula):
    interval: Interval
    child: Formula

    def children(self):
        return (self.child,)


class Globally(_TemporalUnary):
    op = "G"


class Eventually(_TemporalUnary):
    op = "F"


@dataclass(frozen=True)
class Until(Formula):
    interval: Interval
    lhs: Formula
    rhs: Formula

    def children(self):
        return (self.lhs, self.rhs)


def node_count(f: Formula) -> int:
    return 1 + sum(node_count(c) for c in f.children())


def depth(f: Formula) -> int:
    kids = f.children()
    return 1 + (max(depth(c) for c in kids) if kids else 0)


# ---------------------------------------------------------------------------
# Specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rule:
    name: str
    formula: Formula


@dataclass(frozen=True)
class Specification:
    declarations: tuple[SignalDecl, ...]
    rules: tuple[Rule, ...]

    def signal(self, name: str) -> Optional[SignalDecl]:
        for decl in self.declarations:
            if decl.name == name:
                return decl
        return None


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

# Formula precedence, loosest first. Atoms rank above everything and are
# always parenthesized as operands, which matches the canonical layout
# the parser round-trips.
_PREC_IMPLIES, _PREC_OR, _PREC_AND, _PREC_UNTIL, _PREC_UNARY, _PREC_ATOM = range(6)


def _formula_prec(f: Formula) -> int:
    if isinstance(f, Atom):
        return _PREC_ATOM
    if isinstance(f, (Not, Globally, Eventually)):
        return _PREC_UNARY
    if isinstance(f, Until):
        return _PREC_UNTIL
    if isinstance(f, And):
        return _PREC_AND
    if isinstance(f, Or):
        return _PREC_OR
    return _PREC_IMPLIES


def _print_expr(e: SignalExpr, min_prec: int = 0) -> str:
    if isinstance(e, SignalRef):
        return e.name
    if isinstance(e, Constant):
        return format_number(e.value)
    if isinstance(e, Abs):
        return f"abs({_print_expr(e.child)})"
    if isinstance(e, Deriv):
        return f"deriv({e.name})"
    if isinstance(e, _BinaryExpr):
        prec = 1 if isinstance(e, (Add, Sub)) else 2
        text = f"{_print_expr(e.lhs, prec)} {e.op} {_print_expr(e.rhs, prec + 1)}"
        return f"({text})" if prec < min_prec else text
    raise TypeError(f"not a signal expression: {e!r}")


def _print_predicate(p: Predicate) -> str:
    if isinstance(p, Compare):
        return f"{_print_expr(p.lhs)} {p.op.value} {_print_expr(p.rhs)}"
    if isinstance(p, EnumEq):
        op = "!=" if p.negated else "=="
        return f"{p.signal} {op} {p.variant}"
    if isinstance(p, BoolIs):
        return p.signal if p.expected else f"{p.signal} == false"
    raise TypeError(f"not a predicate: {p!r}")


def _operand(f: Formula, min_prec: int) -> str:
    text = _print_formula(f)
    if isinstance(f, Atom) or _formula_prec(f) < min_prec:
        return f"({text})"
    return text


def _print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return _print_predicate(f.predicate)
    if isinstance(f, Not):
        return f"!({_print_formula(f.child)})"
    if isinstance(f, (Globally, Eventually)):
        return f"{f.op}{f.interval} ({_print_formula(f.child)})"
    if isinstance(f, Until):
        return f"{_operand(f.lhs, _PREC_UNTIL)} U{f.interval} {_operand(f.rhs, _PREC_UNTIL + 1)}"
    if isinstance(f, And):
        return f"{_operand(f.lhs, _PREC_AND)} && {_operand(f.rhs, _PREC_AND + 1)}"
    if isinstance(f, Or):
        return f"{_operand(f.lhs, _PREC_OR)} || {_operand(f.rhs, _PREC_OR + 1)}"
    if isinstance(f, Implies):
        return f"{_operand(f.lhs, _PREC_IMPLIES + 1)} -> {_operand(f.rhs, _PREC_IMPLIES)}"
    raise TypeError(f"not a formula: {f!r}")


def pretty_print(f: Formula) -> str:
    """Render a formula in the canonical concrete syntax.

    The output re-parses (inside a rule) to a structurally identical tree.
    """
    return _print_formula(f)


def pretty_print_spec(spec: Specification) -> str:
    """Render a whole specification as declarations followed by rules."""
    lines = []
    for decl in spec.declarations:
        if decl.kind is SignalKind.ENUM:
            variants = ", ".join(decl.enum_variants)
            lines.append(f"signal {decl.name} : enum {{{variants}}}")
        else:
            lines.append(f"signal {decl.name} : {decl.kind.value}")
    if spec.declarations and spec.rules:
        lines.append("")
    for rule in spec.rules:
        lines.append(f"rule {rule.name}: {pretty_print(rule.formula)}")
    return "\n".join(lines) + "\n"
