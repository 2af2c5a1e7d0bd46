"""The evaluator: signal expressions, quantitative robustness and
boolean monitoring of formulas over traces.

Robustness follows the usual min/max quantitative semantics: comparison
atoms score their signed margin, enum/bool atoms score +-1, negation
flips sign, `and`/`or` take min/max, and the temporal operators take the
window extremum of their child series.

Truncation: windows are clipped to the end of the trace, and a window
that starts past the end degenerates to the final sample. Every operand
and every comparison margin must be finite, or evaluation fails with
`non-finite result at sample k`; so every robustness value is finite.

G/F and `U` are computed in O(n) total per node: bounded G/F via
`windowed_extremum`, unbounded G/F by one suffix sweep, and `U` by a
backward recurrence plus window extrema.
Evaluation is pure per (formula, trace) pair; traces and formulas are
immutable, so many evaluations may run concurrently.

Signals are resolved against the trace in one place, `traces.channel`,
as evaluation reaches each atom; no operator short-circuits, so every
atom is reached. `_root` fills one table with every node's series; the
quantitative, boolean and profile read-outs all read that table. Every
evaluation error it raises names its rule, reporting the first fault in
evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .formula import (
    Abs,
    Add,
    And,
    Atom,
    BoolIs,
    CmpOp,
    Compare,
    Constant,
    Deriv,
    EnumEq,
    Formula,
    Globally,
    Interval,
    Mul,
    Not,
    Or,
    Predicate,
    SignalExpr,
    SignalRef,
    Specification,
    Sub,
    Until,
    _BinaryExpr,
    _BinaryFormula,
    _TemporalUnary,
)
from .traces import EvalError, SignalKind, Trace, channel

# An interval bound must land on a sample index to within this tolerance
# (in index units); anything else is rejected rather than silently rounded.
INDEX_TOL = 1e-6


class Verdict(Enum):
    SATISFIED = "Satisfied"
    EXACTLY_SATISFIED = "ExactlySatisfied"
    VIOLATED = "Violated"

    @staticmethod
    def from_rho(rho: float) -> "Verdict":
        if rho > 0:
            return Verdict.SATISFIED
        if rho < 0:
            return Verdict.VIOLATED
        return Verdict.EXACTLY_SATISFIED


@dataclass(frozen=True)
class RobustnessResult:
    rule_name: str
    rho: float
    verdict: Verdict


@dataclass(frozen=True, eq=False)
class RobustnessProfile:
    """Per-node robustness series keyed by path from the root formula.

    The root is "root"; children append ".child", ".lhs" or ".rhs". The
    root series at index 0 is the published per-trace robustness.
    """

    series: dict[str, np.ndarray]

    @property
    def root(self) -> np.ndarray:
        return self.series["root"]


def windowed_extremum(series, width: int, mode: str) -> np.ndarray:
    """Forward-looking sliding extremum: out[t] = extremum of
    series[t .. min(t+width, n-1)].

    O(n) total via the two-pass block prefix/suffix sweep (each element
    is touched a constant number of times). Selection only, so results
    are bit-identical to a naive scan.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    s = np.asarray(series, dtype=np.float64)
    n = len(s)
    if n == 0:
        raise ValueError("series is empty")
    if width < 0:
        raise ValueError("width must be >= 0")
    w = min(int(width), n - 1)
    if w == 0:
        return s.copy()
    op = np.minimum if mode == "min" else np.maximum
    fill = np.inf if mode == "min" else -np.inf
    block = w + 1
    # Pad so every window end index t+w exists and the array splits into
    # whole blocks; the fill value never wins an extremum because every
    # window contains at least one real sample.
    pad = (-(n + w) % block) + w
    padded = np.concatenate([s, np.full(pad, fill)])
    tiles = padded.reshape(-1, block)
    prefix = op.accumulate(tiles, axis=1).ravel()
    suffix = op.accumulate(tiles[:, ::-1], axis=1)[:, ::-1].ravel()
    return op(suffix[:n], prefix[np.arange(w, n + w)])


def _bound_to_index(bound: float, dt: float) -> float:
    exact = bound / dt
    if math.isinf(exact):  # past the end of any trace
        return exact
    index = round(exact)
    if abs(index - exact) > INDEX_TOL:
        raise EvalError(
            f"interval bound {bound} is not a whole number of samples at dt={dt}"
        )
    return index


def _offsets(interval: Interval, trace: Trace) -> tuple[int, int | None]:
    """Sample offsets of the bounds, clamped to the trace length: under
    truncation every offset past the end reads the final sample."""
    n = len(trace)
    lo = min(_bound_to_index(interval.lo, trace.dt), n)
    hi = None if interval.unbounded else min(_bound_to_index(interval.hi, trace.dt), n)
    return lo, hi


def _shifted_window(child: np.ndarray, lo: int, hi: int | None, mode: str) -> np.ndarray:
    n = len(child)
    if hi is None:  # the window runs to the end: one suffix sweep
        op = np.minimum if mode == "min" else np.maximum
        base = op.accumulate(child[::-1])[::-1]
    else:
        base = windowed_extremum(child, hi - lo, mode)
    idx = np.minimum(np.arange(n) + lo, n - 1)
    return base[idx]


def _until_unbounded(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """u[t] = max over s >= t of min(rhs[s], min(lhs[t..s])), in O(n).

    This is the backward recurrence u[t] = min(lhs[t], max(rhs[t], u[t+1]))
    with u[n] = -inf. Step t is the clamp x -> clip(x, min(lhs[t], rhs[t]),
    lhs[t]), and clamps compose into clamps. So the series is cut into
    blocks of about sqrt(n) samples: one vectorised backward sweep composes
    the clamps from each sample to the end of its block, a scalar pass
    carries the value entering each block from the right, and one last
    clip applies it. Selection only, so the result is bit-identical to
    running the recurrence sample by sample.
    """
    n = len(lhs)
    width = math.isqrt(n)
    pad = -n % width
    # bounds[0] holds the clamp floors, bounds[1] the ceilings, one block
    # per row; padding is the identity clamp.
    bounds = np.full((2, n + pad), [[-np.inf], [np.inf]])
    np.minimum(lhs, rhs, out=bounds[0, :n])
    bounds[1, :n] = lhs
    bounds = bounds.reshape(2, -1, width)
    for j in range(width - 2, -1, -1):
        bounds[:, :, j] = np.clip(bounds[:, :, j + 1], bounds[0, :, j], bounds[1, :, j])
    floors, ceils = bounds[:, :, 0].tolist()
    entering = [-math.inf] * len(floors)
    for k in range(len(floors) - 1, 0, -1):
        entering[k - 1] = min(ceils[k], max(floors[k], entering[k]))
    return np.clip(np.array(entering)[:, None], bounds[0], bounds[1]).ravel()[:n]


def _until_series(lhs: np.ndarray, rhs: np.ndarray, lo: int, hi: int | None) -> np.ndarray:
    """out[t] = max over s in [start, end] of min(rhs[s], min(lhs[t..s])),
    with start = min(t+lo, n-1) and end = min(t+hi, n-1) (n-1 if unbounded).

    Equal to u[start] with u the unbounded until from `_until_unbounded`,
    capped by min(lhs[t..start]) when lo > 0 (lhs must hold up to
    `start`) and by max(rhs[start..end]) when bounded: a maximiser of u
    past `end` is capped both by the lhs prefix up to `end` and by the
    best rhs inside the window. O(n) per node.
    """
    n = len(lhs)
    start = np.minimum(np.arange(n) + lo, n - 1)
    out = _until_unbounded(lhs, rhs)[start]
    if lo > 0:
        out = np.minimum(out, windowed_extremum(lhs, lo, "min"))
    if hi is not None:
        out = np.minimum(out, windowed_extremum(rhs, hi - lo, "max")[start])
    return out


def _finite(values: np.ndarray) -> np.ndarray:
    if not np.isfinite(values).all():
        bad = int(np.argmin(np.isfinite(values)))
        raise EvalError(f"non-finite result at sample {bad}")
    return values


def _eval(expr: SignalExpr, trace: Trace) -> np.ndarray:
    n = len(trace)
    if isinstance(expr, SignalRef):
        return channel(trace, expr.name, SignalKind.REAL).values.astype(np.float64, copy=True)
    if isinstance(expr, Constant):
        return np.full(n, float(expr.value))
    if isinstance(expr, Abs):
        return np.abs(_eval(expr.child, trace))
    if isinstance(expr, Deriv):
        v = channel(trace, expr.name, SignalKind.REAL).values
        out = np.zeros(n)
        out[1:] = (v[1:] - v[:-1]) / trace.dt
        return out
    if isinstance(expr, _BinaryExpr):
        lhs = _eval(expr.lhs, trace)
        rhs = _eval(expr.rhs, trace)
        if isinstance(expr, Add):
            return lhs + rhs
        if isinstance(expr, Sub):
            return lhs - rhs
        if isinstance(expr, Mul):
            return lhs * rhs
        zeros = np.nonzero(rhs == 0.0)[0]
        if zeros.size:
            raise EvalError(f"division by zero at sample {int(zeros[0])}")
        return lhs / rhs
    raise EvalError(f"unknown expression node {type(expr).__name__}")


def eval_expr(expr: SignalExpr, trace: Trace) -> np.ndarray:
    """Evaluate a real-valued signal expression to one finite value per sample.

    Deriv(s)[i] = (s[i] - s[i-1]) / dt for i >= 1, and 0 at i = 0
    (backward difference, causal and defined at every sample). A result
    that overflows raises `non-finite result at sample k`.
    """
    return _finite(_eval(expr, trace))


def _atom_series(pred: Predicate, trace: Trace, boolean: bool) -> np.ndarray:
    if isinstance(pred, Compare):
        lhs = eval_expr(pred.lhs, trace)
        rhs = eval_expr(pred.rhs, trace)
        margin = _finite(rhs - lhs if pred.op in (CmpOp.LT, CmpOp.LE) else lhs - rhs)
        if not boolean:
            return margin
        # Exact: a difference of finite floats is zero only for equal
        # operands (gradual underflow).
        hold = margin > 0 if pred.op in (CmpOp.LT, CmpOp.GT) else margin >= 0
    elif isinstance(pred, EnumEq):
        series = channel(trace, pred.signal, SignalKind.ENUM)
        if pred.variant not in series.variants:
            raise EvalError(f"variant '{pred.variant}' not in trace channel '{pred.signal}'")
        hold = series.values == series.variants.index(pred.variant)
        if pred.negated:
            hold = ~hold
    elif isinstance(pred, BoolIs):
        series = channel(trace, pred.signal, SignalKind.BOOL)
        hold = series.values if pred.expected else ~series.values
    else:
        raise EvalError(f"unknown predicate node {type(pred).__name__}")
    return np.where(hold, 1.0, -1.0)


def _series(
    f: Formula, trace: Trace, boolean: bool, table: dict[str, np.ndarray], path: str
) -> np.ndarray:
    if isinstance(f, Atom):
        out = _atom_series(f.predicate, trace, boolean)
    elif isinstance(f, Not):
        out = -_series(f.child, trace, boolean, table, path + ".child")
    elif isinstance(f, _BinaryFormula):
        lhs = _series(f.lhs, trace, boolean, table, path + ".lhs")
        rhs = _series(f.rhs, trace, boolean, table, path + ".rhs")
        if isinstance(f, And):
            out = np.minimum(lhs, rhs)
        elif isinstance(f, Or):
            out = np.maximum(lhs, rhs)
        else:
            out = np.maximum(-lhs, rhs)
    elif isinstance(f, _TemporalUnary):
        child = _series(f.child, trace, boolean, table, path + ".child")
        lo, hi = _offsets(f.interval, trace)
        mode = "min" if isinstance(f, Globally) else "max"
        out = _shifted_window(child, lo, hi, mode)
    elif isinstance(f, Until):
        lhs = _series(f.lhs, trace, boolean, table, path + ".lhs")
        rhs = _series(f.rhs, trace, boolean, table, path + ".rhs")
        lo, hi = _offsets(f.interval, trace)
        out = _until_series(lhs, rhs, lo, hi)
    else:
        raise EvalError(f"unknown formula node {type(f).__name__}")
    table[path] = out
    return out


def _root(f: Formula, trace: Trace, rule_name: str, boolean: bool = False) -> dict[str, np.ndarray]:
    """Every node's series of `f`, keyed by path ("root" is the formula itself).

    Overflow is caught by the finiteness checks, so numpy's own warnings
    are off; any evaluation error is re-raised naming the rule.
    """
    table: dict[str, np.ndarray] = {}
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            _series(f, trace, boolean, table, "root")
    except EvalError as exc:
        raise EvalError(f"rule '{rule_name}': {exc}") from None
    return table


def robustness(f: Formula, trace: Trace, rule_name: str = "rule") -> RobustnessResult:
    """Robustness of the formula at t=0, with the sign-based verdict."""
    rho = float(_root(f, trace, rule_name)["root"][0]) + 0.0  # publish -0.0 as 0.0
    return RobustnessResult(rule_name, rho, Verdict.from_rho(rho))


def robustness_profile(f: Formula, trace: Trace, rule_name: str = "rule") -> RobustnessProfile:
    """Like `robustness` but retains every node's full robustness series."""
    table = _root(f, trace, rule_name)
    for arr in table.values():
        arr.flags.writeable = False
    return RobustnessProfile(table)


def boolean_monitor(f: Formula, trace: Trace, rule_name: str = "rule") -> bool:
    """Classical boolean semantics at t=0 under the same truncation rule.

    Atoms test the sign of their margin, strictly for `<`/`>`, so strict
    vs non-strict bounds are respected even where the margin is zero.
    """
    return bool(_root(f, trace, rule_name, boolean=True)["root"][0] > 0)


def evaluate_specification(spec: Specification, trace: Trace) -> list[RobustnessResult]:
    """Evaluate every rule of a specification against one trace."""
    return [robustness(rule.formula, trace, rule.name) for rule in spec.rules]
