"""Formula AST for the rule language: signal declarations, signal
expressions, predicates, temporal formulas and printing.

All nodes are immutable records (`_Record`) and compare structurally,
so formulas can be shared freely across concurrent evaluators and used
as dict keys. A parsed specification has been checked by the parser;
the only check the AST makes itself is that every `Interval` is legal,
so a hand-built formula cannot reach the evaluator with a window that
starts before the sample or ends before it begins.
"""

from __future__ import annotations

import inspect
import math
from decimal import Decimal
from enum import Enum
from operator import attrgetter
from typing import Optional

UNBOUNDED = math.inf

# Reserved words of the concrete syntax; signal and rule names must avoid
# them or the printed form would not re-parse.
KEYWORDS = frozenset(
    {"signal", "rule", "real", "bool", "enum", "G", "F", "U", "inf", "true", "false"}
)


def _comparison(fields: tuple[str, ...]):
    """`__eq__` and `__hash__` over a record's fields, compared as a tuple
    (so a field equals itself even when it is NaN)."""
    # attrgetter returns a tuple for two or more names, so a lone field
    # is read twice.
    names = fields * 2 if len(fields) == 1 else fields
    key = attrgetter(*names) if names else lambda record: ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__


_set_field = object.__setattr__  # bypasses the records' own, which refuses
_REQUIRED = object()  # the default of a field that has none


class _Record:
    """Base of the package's immutable value classes.

    A subclass's fields are its own annotated names, in order, after its
    bases' fields; a class attribute of the same name is the field's
    default. Records are built positionally or by keyword, run
    `__post_init__` if the class defines one, print as
    `Name(field=value, ...)`, refuse assignment and pickle by their
    fields. Equal records are of the same class with equal fields, and
    hash alike. A class declared with `eq=False` keeps the equality it
    inherits: identity for a direct subclass of `_Record`.

    The methods are written once here; `@dataclass` would generate and
    compile them from source for every class at every import.
    """

    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()  # per field: its default, or _REQUIRED

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = inspect.get_annotations(cls)  # this class's own, not its bases'
        cls._fields = fields = cls._fields + tuple(n for n in own if n not in cls._fields)
        cls._defaults = defaults = tuple(getattr(cls, name, _REQUIRED) for name in fields)
        # a positional call needs at least the fields up to the last required one
        cls._required = max((i + 1 for i, d in enumerate(defaults) if d is _REQUIRED), default=0)
        cls._has_post_init = hasattr(cls, "__post_init__")
        cls.__match_args__ = fields
        if eq:
            cls.__eq__, cls.__hash__ = _comparison(fields)

    def __init__(self, *args, **kwargs):
        if kwargs or not self._required <= len(args) <= len(self._fields):
            args = self._bind(args, kwargs)
        else:
            args += self._defaults[len(args):]
        for name, value in zip(self._fields, args):
            _set_field(self, name, value)
        if self._has_post_init:
            self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values, in order, of a call that leaves out fields or
        names them."""
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, not {len(args)}")
        values = [*args, *cls._defaults[len(args):]]
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            i = fields.index(key)
            if i < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[i] = value
        for field, value in zip(fields, values):
            if value is _REQUIRED:
                raise TypeError(f"{name}() missing required argument {field!r}")
        return values

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class SignalDecl(_Record):
    name: str
    kind: SignalKind
    enum_variants: tuple[str, ...] = ()


class Interval(_Record):
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

class SignalExpr(_Record):
    pass


class SignalRef(SignalExpr):
    name: str


class Constant(SignalExpr):
    value: float


class Abs(SignalExpr):
    child: SignalExpr


class Deriv(SignalExpr):
    """Backward-difference rate of change of a real signal."""

    name: str


class _BinaryExpr(SignalExpr):
    lhs: SignalExpr
    rhs: SignalExpr


class Add(_BinaryExpr):
    op, prec = "+", 1


class Sub(_BinaryExpr):
    op, prec = "-", 1


class Mul(_BinaryExpr):
    op, prec = "*", 2


class Div(_BinaryExpr):
    op, prec = "/", 2


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

class CmpOp(Enum):
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="


class Predicate(_Record):
    pass


class Compare(Predicate):
    lhs: SignalExpr
    op: CmpOp
    rhs: SignalExpr


class EnumEq(Predicate):
    signal: str
    variant: str
    negated: bool = False


class BoolIs(Predicate):
    signal: str
    expected: bool = True


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------
#
# Each operator class owns its concrete syntax: `op` is its token and `prec`
# how tightly it binds (loosest 0). The parser and the printer read both
# from here. Binary operators associate left, except `->` (the loosest).

class Formula(_Record):
    pass


class Atom(Formula):
    prec = 5

    predicate: Predicate


class Not(Formula):
    op, prec = "!", 4

    child: Formula


class _BinaryFormula(Formula):
    lhs: Formula
    rhs: Formula


class And(_BinaryFormula):
    op, prec = "&&", 2


class Or(_BinaryFormula):
    op, prec = "||", 1


class Implies(_BinaryFormula):
    op, prec = "->", 0


class _TemporalUnary(Formula):
    prec = 4

    interval: Interval
    child: Formula


class Globally(_TemporalUnary):
    op = "G"


class Eventually(_TemporalUnary):
    op = "F"


class Until(Formula):
    op, prec = "U", 3

    interval: Interval
    lhs: Formula
    rhs: Formula


# ---------------------------------------------------------------------------
# Specification
# ---------------------------------------------------------------------------

class Rule(_Record):
    name: str
    formula: Formula


class Specification(_Record):
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
        text = f"{_print_expr(e.lhs, e.prec)} {e.op} {_print_expr(e.rhs, e.prec + 1)}"
        return f"({text})" if e.prec < min_prec else text
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
    # An atom is always parenthesized as an operand: the canonical layout.
    text = pretty_print(f)
    return f"({text})" if isinstance(f, Atom) or f.prec < min_prec else text


def pretty_print(f: Formula) -> str:
    """Render a formula in the canonical concrete syntax.

    The output re-parses (inside a rule) to a structurally identical tree.
    """
    if isinstance(f, Atom):
        return _print_predicate(f.predicate)
    if isinstance(f, Not):
        return f"!({pretty_print(f.child)})"
    if isinstance(f, _TemporalUnary):
        return f"{f.op}{f.interval} ({pretty_print(f.child)})"
    if isinstance(f, (_BinaryFormula, Until)):
        op = f"{f.op}{f.interval}" if isinstance(f, Until) else f.op
        lhs, rhs = (f.prec + 1, f.prec) if isinstance(f, Implies) else (f.prec, f.prec + 1)
        return f"{_operand(f.lhs, lhs)} {op} {_operand(f.rhs, rhs)}"
    raise TypeError(f"not a formula: {f!r}")


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
