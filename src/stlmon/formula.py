"""Formula AST for the rule language: signal declarations, signal
expressions, predicates, temporal formulas, validation and printing.

All nodes are immutable (frozen dataclasses) and compare structurally,
so formulas can be shared freely across concurrent evaluators and used
as dict keys.
"""

from __future__ import annotations

import math
import re
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

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def is_identifier(name: str) -> bool:
    return bool(_IDENT_RE.match(name)) and name not in KEYWORDS


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


@dataclass(frozen=True)
class Diagnostic:
    """A single well-formedness violation: where it is and what is wrong."""

    rule: Optional[str]
    path: str
    message: str

    def __str__(self) -> str:
        where = f"rule '{self.rule}': " if self.rule else ""
        return f"{where}{self.path}: {self.message}"


def validate(spec: Specification) -> list[Diagnostic]:
    """Check a specification for structural well-formedness.

    Returns an empty list iff every rule references only declared signals
    with kind-correct predicates and legal intervals. Diagnostics are
    emitted in a deterministic pre-order, one per violation.
    """
    out: list[Diagnostic] = []
    seen_decls: set[str] = set()
    for i, decl in enumerate(spec.declarations):
        path = f"declarations[{i}]"
        if not is_identifier(decl.name):
            out.append(Diagnostic(None, path, f"invalid signal name {decl.name!r}"))
        if decl.name in seen_decls:
            out.append(Diagnostic(None, path, f"duplicate signal '{decl.name}'"))
        seen_decls.add(decl.name)
        if decl.kind is SignalKind.ENUM:
            if not decl.enum_variants:
                out.append(Diagnostic(None, path, "enum with no variants"))
            if len(set(decl.enum_variants)) != len(decl.enum_variants):
                out.append(Diagnostic(None, path, "duplicate enum variants"))
            for v in decl.enum_variants:
                if not is_identifier(v):
                    out.append(Diagnostic(None, path, f"invalid variant name {v!r}"))
        elif decl.enum_variants:
            out.append(Diagnostic(None, path, "variants on non-enum signal"))

    seen_rules: set[str] = set()
    for i, rule in enumerate(spec.rules):
        if not is_identifier(rule.name):
            out.append(Diagnostic(rule.name, f"rules[{i}]", f"invalid rule name {rule.name!r}"))
        if rule.name in seen_rules:
            out.append(Diagnostic(rule.name, f"rules[{i}]", f"duplicate rule '{rule.name}'"))
        seen_rules.add(rule.name)
        _check_formula(spec, rule.name, rule.formula, "formula", out)
    return out


def _check_interval(spec, rule, iv: Interval, path, out) -> None:
    if math.isnan(iv.lo) or math.isnan(iv.hi):
        out.append(Diagnostic(rule, path, "interval bound is NaN"))
        return
    if iv.lo < 0:
        out.append(Diagnostic(rule, path, "interval lo < 0"))
    if not iv.unbounded and iv.hi < iv.lo:
        out.append(Diagnostic(rule, path, "interval hi < lo"))
    if math.isinf(iv.lo):
        out.append(Diagnostic(rule, path, "interval lo is not finite"))


def _check_expr(spec, rule, expr: SignalExpr, path, out) -> None:
    if isinstance(expr, SignalRef):
        decl = spec.signal(expr.name)
        if decl is None:
            out.append(Diagnostic(rule, path, f"unknown signal '{expr.name}'"))
        elif decl.kind is not SignalKind.REAL:
            out.append(Diagnostic(rule, path, f"signal '{expr.name}' is not real-valued"))
    elif isinstance(expr, Constant):
        if math.isnan(expr.value) or math.isinf(expr.value):
            out.append(Diagnostic(rule, path, "non-finite constant"))
    elif isinstance(expr, Deriv):
        decl = spec.signal(expr.name)
        if decl is None:
            out.append(Diagnostic(rule, path, f"unknown signal '{expr.name}'"))
        elif decl.kind is not SignalKind.REAL:
            out.append(Diagnostic(rule, path, f"deriv of non-real signal '{expr.name}'"))
    elif isinstance(expr, Abs):
        _check_expr(spec, rule, expr.child, path + ".child", out)
    elif isinstance(expr, _BinaryExpr):
        _check_expr(spec, rule, expr.lhs, path + ".lhs", out)
        _check_expr(spec, rule, expr.rhs, path + ".rhs", out)
    else:
        out.append(Diagnostic(rule, path, f"unknown expression node {type(expr).__name__}"))


def _check_predicate(spec, rule, pred: Predicate, path, out) -> None:
    if isinstance(pred, Compare):
        _check_expr(spec, rule, pred.lhs, path + ".lhs", out)
        _check_expr(spec, rule, pred.rhs, path + ".rhs", out)
    elif isinstance(pred, EnumEq):
        decl = spec.signal(pred.signal)
        if decl is None:
            out.append(Diagnostic(rule, path, f"unknown signal '{pred.signal}'"))
        elif decl.kind is not SignalKind.ENUM:
            out.append(Diagnostic(rule, path, f"signal '{pred.signal}' is not an enum"))
        elif pred.variant not in decl.enum_variants:
            out.append(
                Diagnostic(rule, path, f"undeclared variant '{pred.variant}' for '{pred.signal}'")
            )
    elif isinstance(pred, BoolIs):
        decl = spec.signal(pred.signal)
        if decl is None:
            out.append(Diagnostic(rule, path, f"unknown signal '{pred.signal}'"))
        elif decl.kind is not SignalKind.BOOL:
            out.append(Diagnostic(rule, path, f"signal '{pred.signal}' is not boolean"))
    else:
        out.append(Diagnostic(rule, path, f"unknown predicate node {type(pred).__name__}"))


def _check_formula(spec, rule, f: Formula, path, out) -> None:
    if isinstance(f, Atom):
        _check_predicate(spec, rule, f.predicate, path, out)
    elif isinstance(f, Not):
        _check_formula(spec, rule, f.child, path + ".child", out)
    elif isinstance(f, _BinaryFormula):
        _check_formula(spec, rule, f.lhs, path + ".lhs", out)
        _check_formula(spec, rule, f.rhs, path + ".rhs", out)
    elif isinstance(f, _TemporalUnary):
        _check_interval(spec, rule, f.interval, path + ".interval", out)
        _check_formula(spec, rule, f.child, path + ".child", out)
    elif isinstance(f, Until):
        _check_interval(spec, rule, f.interval, path + ".interval", out)
        _check_formula(spec, rule, f.lhs, path + ".lhs", out)
        _check_formula(spec, rule, f.rhs, path + ".rhs", out)
    else:
        out.append(Diagnostic(rule, path, f"unknown formula node {type(f).__name__}"))


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
