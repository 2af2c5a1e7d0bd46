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

One core evaluates everything. A `_Plan` compiles formulas into a DAG
of unique formula and expression nodes in evaluation order, so a subterm
such as `abs(deriv(phi))` that occurs twice is computed once; every call
builds its own plan, in microseconds. The plan runs over a `_Block`:
traces of one `dt`, held as the rows of a 2-D (trace, sample) array
padded to the longest row. Every node's series
holds, past each row's last live sample, that row's value at `n-1`:
signals are padded that way, pointwise operators keep it, `deriv`
refills it, and the window kernels keep it because a clipped window
always contains `n-1`. So padding changes no live value, and a check
over a whole row reads only live values. `_read` runs a plan over blocks
of traces grouped by `dt` and length class, and hands each (trace, rule)
row to a reader: `_rho` reads the root at sample 0, `_profile` also the
live samples of every node. `evaluate_specification` and
`profile_specification` read a spec's rules over traces in chunks the
caller sizes; `robustness`, `robustness_profile` and `boolean_monitor`
are the one-row case, and `eval_expr` reads one expression's row.

G/F and `U` are computed in O(n) total per node: bounded G/F via
`windowed_extremum`, unbounded G/F by one suffix sweep, and `U` by a
backward recurrence plus window extrema.
Evaluation is pure per (formula, trace) pair; traces and formulas are
immutable, so many evaluations may run concurrently.

Signals are resolved against the trace in one place, `traces.channel`,
as evaluation reaches each atom; no operator short-circuits, so every
atom is reached. Every evaluation error names its rule, reporting the
first fault in evaluation order. When a spec's evaluation faults, its
traces are evaluated again one row at a time, and the first faulty
trace's error is raised as `trace '<id>': rule '<r>': ...`, the same
message as when that trace is evaluated alone.
"""

from __future__ import annotations

import math
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
    Implies,
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
    _Record,
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


class RobustnessResult(_Record):
    rule_name: str
    rho: float
    verdict: Verdict


class RobustnessProfile(RobustnessResult, eq=False):
    """A rule's result with its per-node robustness series, keyed by path
    from the root formula.

    The root is "root"; children append ".child", ".lhs" or ".rhs". The
    root series at index 0 is the published `rho`. Paths to equal
    subformulas share one read-only array. A profile compares and hashes
    as its published result.
    """

    series: dict[str, np.ndarray]

    @property
    def root(self) -> np.ndarray:
        return self.series["root"]


# ---------------------------------------------------------------------------
# Kernels: each works along the last axis, on one series or on a block
# ---------------------------------------------------------------------------

def windowed_extremum(series, width: int, mode: str) -> np.ndarray:
    """Forward-looking sliding extremum: out[t] = extremum of
    series[t .. min(t+width, n-1)], along the last axis.

    O(n) total via the two-pass block prefix/suffix sweep (each element
    is touched a constant number of times). Selection only, so results
    are bit-identical to a naive scan.
    """
    if mode not in ("min", "max"):
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    s = np.asarray(series, dtype=np.float64)
    n = s.shape[-1]
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
    padded = np.concatenate([s, np.full(s.shape[:-1] + (pad,), fill)], axis=-1)
    tiles = padded.reshape(s.shape[:-1] + (-1, block))
    prefix = op.accumulate(tiles, axis=-1).reshape(padded.shape)
    suffix = op.accumulate(tiles[..., ::-1], axis=-1)[..., ::-1].reshape(padded.shape)
    return op(suffix[..., :n], prefix[..., w:n + w])


def _bound_to_index(bound: float, dt: float) -> float:
    """A bound's sample offset at step dt; inf lies past the end of any trace."""
    exact = bound / dt
    if math.isinf(exact):  # past the end of any trace
        return exact
    index = round(exact)
    if abs(index - exact) > INDEX_TOL:
        raise EvalError(
            f"interval bound {bound} is not a whole number of samples at dt={dt}"
        )
    return index


def _ahead(series: np.ndarray, lo: int) -> np.ndarray:
    """series[..., min(t+lo, n-1)]: read lo samples ahead, holding the last."""
    if lo == 0:
        return series
    n = series.shape[-1]
    lo = min(lo, n - 1)
    out = np.empty_like(series)
    out[..., :n - lo] = series[..., lo:]
    out[..., n - lo:] = series[..., -1:]
    return out


def _shifted_window(child: np.ndarray, lo: int, hi: int | None, mode: str) -> np.ndarray:
    if hi is None:  # the window runs to the end: one suffix sweep
        op = np.minimum if mode == "min" else np.maximum
        base = op.accumulate(child[..., ::-1], axis=-1)[..., ::-1]
    else:
        base = windowed_extremum(child, hi - lo, mode)
    return _ahead(base, lo)


def _clamp_chain(floor: np.ndarray, ceil: np.ndarray) -> np.ndarray:
    """v[t] = clip(v[t+1], floor[t], ceil[t]) with v[n] = -inf, along the
    last axis, for floor <= ceil; in O(n).

    Clamps compose into clamps. So the series is cut into blocks of about
    n ** (1/3) samples: one vectorised backward sweep composes the clamps
    from each sample to the end of its block, the same chain over the
    blocks' composed clamps gives the value entering each block from the
    right, and one last clip applies it. Selection only, so the result is
    bit-identical to running the chain sample by sample.
    """
    lead, n = floor.shape[:-1], floor.shape[-1]
    if n < 8:  # short enough to run sample by sample
        out = np.empty_like(floor)
        carry = np.full(lead, -np.inf)
        for t in range(n - 1, -1, -1):
            carry = out[..., t] = np.minimum(np.maximum(carry, floor[..., t]), ceil[..., t])
        return out
    width = round(n ** (1 / 3))
    pad = -n % width
    # bounds[0] holds the clamp floors, bounds[1] the ceilings, one block
    # per row of the last two axes; padding is the identity clamp.
    bounds = np.empty((2, *lead, n + pad))
    bounds[0, ..., :n], bounds[0, ..., n:] = floor, -np.inf
    bounds[1, ..., :n], bounds[1, ..., n:] = ceil, np.inf
    bounds = bounds.reshape(2, *lead, -1, width)
    steps = np.moveaxis(bounds, -1, 0)  # steps[j]: the clamps at offset j of every block
    for j in range(width - 2, -1, -1):
        np.minimum(np.maximum(steps[j + 1], steps[j, 0]), steps[j, 1], out=steps[j])
    starts = _clamp_chain(steps[0, 0], steps[0, 1])
    entering = np.full(starts.shape, -np.inf)
    entering[..., :-1] = starts[..., 1:]
    return np.clip(entering[..., None], bounds[0], bounds[1]).reshape(*lead, -1)[..., :n]


def _until_series(lhs: np.ndarray, rhs: np.ndarray, lo: int, hi: int | None) -> np.ndarray:
    """out[t] = max over s in [start, end] of min(rhs[s], min(lhs[t..s])),
    with start = min(t+lo, n-1) and end = min(t+hi, n-1) (n-1 if unbounded).

    Equal to u[start] with u the unbounded until: the backward recurrence
    u[t] = min(lhs[t], max(rhs[t], u[t+1])), u[n] = -inf, whose step t is
    the clamp x -> clip(x, min(lhs[t], rhs[t]), lhs[t]). It is capped by
    min(lhs[t..start]) when lo > 0 (lhs must hold up to `start`) and by
    max(rhs[start..end]) when bounded: a maximiser of u past `end` is
    capped both by the lhs prefix up to `end` and by the best rhs inside
    the window. O(n) per node.
    """
    out = _ahead(_clamp_chain(np.minimum(lhs, rhs), lhs), lo)
    if lo > 0:
        out = np.minimum(out, windowed_extremum(lhs, lo, "min"))
    if hi is not None:
        out = np.minimum(out, _ahead(windowed_extremum(rhs, hi - lo, "max"), lo))
    return out


# ---------------------------------------------------------------------------
# Blocks and the compiled plan
# ---------------------------------------------------------------------------

class _Block:
    """Traces of one dt as the rows of a (trace, sample) block."""

    def __init__(self, traces: list[Trace]):
        self.traces = traces
        self.dt = traces[0].dt
        self.lengths = [len(t) for t in traces]
        self.width = max(self.lengths)
        self.ragged = min(self.lengths) < self.width

    def signal(self, name: str, kind: SignalKind, dtype) -> np.ndarray:
        rows = [channel(t, name, kind).values for t in self.traces]
        out = np.empty((len(rows), self.width), dtype)
        for row, values in zip(out, rows):
            row[:len(values)] = values
        return self.refill(out)

    def refill(self, block: np.ndarray) -> np.ndarray:
        """Hold each row's value at n-1 over its tail, in place."""
        if self.ragged:
            for row, n in zip(block, self.lengths):
                row[n:] = row[n - 1]
        return block

    def offsets(self, interval: Interval) -> tuple[int, int | None]:
        """Sample offsets of the bounds, clamped to the block width: under
        truncation every offset past the end reads the final sample."""
        lo = min(_bound_to_index(interval.lo, self.dt), self.width)
        if interval.unbounded:
            return lo, None
        return lo, min(_bound_to_index(interval.hi, self.dt), self.width)


def _first_fault(message: str, ok: np.ndarray) -> None:
    """Raise `message` naming the first sample, in row order, where ok is false."""
    if not ok.all():
        raise EvalError(message.format(int(np.argmin(ok.ravel())) % ok.shape[-1]))


# Node kernels: kernel(block, parameter, *argument series) -> series, each
# series a 2-D array with one row per trace of the block.

def _ref(block, name):
    return block.signal(name, SignalKind.REAL, np.float64)


def _const(block, value):
    return np.full((len(block.traces), block.width), value)


def _deriv(block, _, values):
    out = np.zeros_like(values)
    out[:, 1:] = (values[:, 1:] - values[:, :-1]) / block.dt
    return block.refill(out)


def _ufunc(block, op, lhs, rhs=None):
    return op(lhs) if rhs is None else op(lhs, rhs)


def _div(block, _, lhs, rhs):
    _first_fault("division by zero at sample {}", rhs != 0.0)
    return lhs / rhs


def _finite(block, _, values):
    _first_fault("non-finite result at sample {}", np.isfinite(values))
    return values


def _margin(block, op, lhs, rhs):
    return _finite(block, None, rhs - lhs if op in (CmpOp.LT, CmpOp.LE) else lhs - rhs)


def _holds(block, op, margin):
    # Exact: a difference of finite floats is zero only for equal
    # operands (gradual underflow).
    return np.where(margin > 0 if op in (CmpOp.LT, CmpOp.GT) else margin >= 0, 1.0, -1.0)


def _enum_eq(block, pred):
    variants = []
    for trace in block.traces:
        series = channel(trace, pred.signal, SignalKind.ENUM)
        if pred.variant not in series.variants:
            raise EvalError(f"variant '{pred.variant}' not in trace channel '{pred.signal}'")
        variants.append(series.variants.index(pred.variant))
    hold = block.signal(pred.signal, SignalKind.ENUM, np.int64) == np.array(variants)[:, None]
    return np.where(hold != pred.negated, 1.0, -1.0)


def _bool_is(block, pred):
    hold = block.signal(pred.signal, SignalKind.BOOL, np.bool_)
    return np.where(hold, 1.0, -1.0) if pred.expected else np.where(hold, -1.0, 1.0)


def _window(block, param, child):
    interval, mode = param
    return _shifted_window(child, *block.offsets(interval), mode)


def _until(block, interval, lhs, rhs):
    return _until_series(lhs, rhs, *block.offsets(interval))


def _unknown(block, message):
    raise EvalError(message)


_ARITHMETIC = {Add: np.add, Sub: np.subtract, Mul: np.multiply}


class _Plan:
    """Formulas compiled into one DAG of unique nodes in evaluation order.

    Each step is (kernel, argument steps, parameter) and each unique
    (kernel, arguments, parameter) gets one step, so equal subterms are
    evaluated once; a constant's key is its repr, which tells 0.0 from
    -0.0. Steps are added in post-order, formula by formula, so the
    first faulting step is the first fault in evaluation order, and
    `rule[i]` is the formula that first reached step i. With `holds`,
    comparison atoms score the sign of their margin (`boolean_monitor`).
    """

    def __init__(self, formulas=(), holds: bool = False):
        self.steps: list[tuple] = []
        self.rule: list[int | None] = []
        self.paths: list[dict[str, int]] = []  # per formula: profile path -> step
        self._keys: dict[tuple, int] = {}
        self._holds = holds
        self._formula_index = None
        for k, f in enumerate(formulas):
            self._formula_index = k
            self.paths.append({})
            self._formula(f, "root")

    def _add(self, kernel, args=(), param=None, key=None) -> int:
        node = (kernel, args, param if key is None else key)
        step = self._keys.get(node)
        if step is None:
            step = self._keys[node] = len(self.steps)
            self.steps.append((kernel, args, param))
            self.rule.append(self._formula_index)
        return step

    def _expr(self, e: SignalExpr) -> int:
        if isinstance(e, SignalRef):
            return self._add(_ref, (), e.name)
        if isinstance(e, Constant):
            value = float(e.value)
            return self._add(_const, (), value, repr(value))
        if isinstance(e, Abs):
            return self._add(_ufunc, (self._expr(e.child),), np.abs)
        if isinstance(e, Deriv):
            return self._add(_deriv, (self._expr(SignalRef(e.name)),))
        if isinstance(e, _BinaryExpr):
            args = (self._expr(e.lhs), self._expr(e.rhs))
            op = _ARITHMETIC.get(type(e))
            return self._add(_ufunc, args, op) if op else self._add(_div, args)
        return self._add(_unknown, (), f"unknown expression node {type(e).__name__}")

    def operand(self, e: SignalExpr) -> int:
        """The step of an expression checked to be finite, as `eval_expr` returns it."""
        return self._add(_finite, (self._expr(e),))

    def _atom(self, pred: Predicate) -> int:
        if isinstance(pred, Compare):
            margin = self._add(_margin, (self.operand(pred.lhs), self.operand(pred.rhs)), pred.op)
            return self._add(_holds, (margin,), pred.op) if self._holds else margin
        if isinstance(pred, EnumEq):
            return self._add(_enum_eq, (), pred)
        if isinstance(pred, BoolIs):
            return self._add(_bool_is, (), pred)
        return self._add(_unknown, (), f"unknown predicate node {type(pred).__name__}")

    def _formula(self, f: Formula, path: str) -> int:
        if isinstance(f, Atom):
            step = self._atom(f.predicate)
        elif isinstance(f, Not):
            step = self._add(_ufunc, (self._formula(f.child, path + ".child"),), np.negative)
        elif isinstance(f, (And, Or, Implies)):
            lhs = self._formula(f.lhs, path + ".lhs")
            rhs = self._formula(f.rhs, path + ".rhs")
            if isinstance(f, Implies):  # a -> b is !a || b
                lhs = self._add(_ufunc, (lhs,), np.negative)
            step = self._add(_ufunc, (lhs, rhs), np.minimum if isinstance(f, And) else np.maximum)
        elif isinstance(f, _TemporalUnary):
            mode = "min" if isinstance(f, Globally) else "max"
            step = self._add(_window, (self._formula(f.child, path + ".child"),), (f.interval, mode))
        elif isinstance(f, Until):
            args = (self._formula(f.lhs, path + ".lhs"), self._formula(f.rhs, path + ".rhs"))
            step = self._add(_until, args, f.interval)
        else:
            step = self._add(_unknown, (), f"unknown formula node {type(f).__name__}")
        self.paths[-1][path] = step
        return step

    def run(self, traces: list[Trace], names=()) -> list[np.ndarray]:
        """Every step's (trace, sample) block over traces of one dt.

        Overflow is caught by the finiteness checks, so numpy's own
        warnings are off. An evaluation error is re-raised naming the
        rule `names[k]` of the formula that first reached the step.
        """
        block = _Block(traces)
        values: list[np.ndarray] = []
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for kernel, args, param in self.steps:
                    values.append(kernel(block, param, *[values[a] for a in args]))
        except EvalError as exc:
            if not names:
                raise
            raise EvalError(f"rule '{names[self.rule[len(values)]]}': {exc}") from None
        return values


def _blocks(traces) -> list[list[int]]:
    """Trace indices grouped by dt and length class (`n.bit_length()`), so
    padding at most doubles a block."""
    groups: dict[tuple[float, int], list[int]] = {}
    for i, trace in enumerate(traces):
        groups.setdefault((trace.dt, len(trace).bit_length()), []).append(i)
    return list(groups.values())


# ---------------------------------------------------------------------------
# Read-outs
# ---------------------------------------------------------------------------

def _read(plan: _Plan, names, traces, read) -> list:
    """`read(name, paths, values, row, n)` of every (trace, rule) pair, flat
    in (trace, rule) order, running the plan a `_blocks` group at a time."""
    rows: list = [None] * len(traces)
    for group in _blocks(traces):
        values = plan.run([traces[i] for i in group], names)
        for r, i in enumerate(group):
            n = len(traces[i])
            rows[i] = [read(name, paths, values, r, n) for name, paths in zip(names, plan.paths)]
    return [out for row in rows for out in row]


def _rho(name: str, paths, values, r: int, n: int) -> RobustnessResult:
    """The published result: the root at sample 0."""
    rho = float(values[paths["root"]][r, 0]) + 0.0  # publish -0.0 as 0.0
    return RobustnessResult(name, rho, Verdict.from_rho(rho))


def _profile(name: str, paths, values, r: int, n: int) -> RobustnessProfile:
    """The published result and the n live samples of every node."""
    rows = {step: values[step][r, :n] for step in paths.values()}
    for row in rows.values():
        row.flags.writeable = False
    series = {path: rows[step] for path, step in paths.items()}
    return RobustnessProfile(**vars(_rho(name, paths, values, r, n)), series=series)


def _specification(spec: Specification, traces, read) -> list:
    """`_read` of every rule of the spec, naming the first faulty trace."""
    plan = _Plan([rule.formula for rule in spec.rules])
    names = [rule.name for rule in spec.rules]
    try:
        return _read(plan, names, traces, read)
    except EvalError:
        for trace in traces:  # one row at a time, in order, to the first fault
            try:
                plan.run([trace], names)
            except EvalError as exc:
                raise EvalError(f"trace '{trace.id}': {exc}") from None
        raise


def eval_expr(expr: SignalExpr, trace: Trace) -> np.ndarray:
    """Evaluate a real-valued signal expression to one finite value per sample.

    Deriv(s)[i] = (s[i] - s[i-1]) / dt for i >= 1, and 0 at i = 0
    (backward difference, causal and defined at every sample). A result
    that overflows raises `non-finite result at sample k`.
    """
    plan = _Plan()
    step = plan.operand(expr)
    return plan.run([trace])[step][0].copy()


def robustness(f: Formula, trace: Trace, rule_name: str = "rule") -> RobustnessResult:
    """Robustness of the formula at t=0, with the sign-based verdict."""
    return _read(_Plan((f,)), (rule_name,), [trace], _rho)[0]


def robustness_profile(f: Formula, trace: Trace, rule_name: str = "rule") -> RobustnessProfile:
    """Like `robustness` but retains every node's full robustness series."""
    return _read(_Plan((f,)), (rule_name,), [trace], _profile)[0]


def boolean_monitor(f: Formula, trace: Trace, rule_name: str = "rule") -> bool:
    """Classical boolean semantics at t=0 under the same truncation rule.

    Atoms test the sign of their margin, strictly for `<`/`>`, so strict
    vs non-strict bounds are respected even where the margin is zero.
    """
    return _read(_Plan((f,), holds=True), (rule_name,), [trace], _rho)[0].rho > 0


def evaluate_specification(spec: Specification, *traces: Trace) -> list[RobustnessResult]:
    """Evaluate every rule of a specification against each trace.

    The results are flat in (trace, rule) order. On a fault, the first
    faulty trace raises its error prefixed with `trace '<id>': `.
    """
    return _specification(spec, traces, _rho)


def profile_specification(spec: Specification, *traces: Trace) -> list[RobustnessProfile]:
    """Like `evaluate_specification`, but each result is the rule's
    `RobustnessProfile`: every node's series over the trace's samples."""
    return _specification(spec, traces, _profile)
