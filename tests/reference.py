"""Independent reference implementations and random generators for tests.

Everything here is deliberately naive (plain Python loops, direct
transcription of definitions) and shares no code path with the engine,
so agreement is meaningful evidence of correctness.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from collections import deque

import numpy as np

from stlmon import (
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
    Globally,
    Implies,
    Interval,
    Mul,
    Not,
    Or,
    Series,
    SignalDecl,
    SignalKind,
    SignalRef,
    Specification,
    Sub,
    Trace,
    TraceError,
    UNBOUNDED,
    Until,
    format_number,
)
from stlmon.traces import UNIFORMITY_TOL

# Shared signal palette for random formulas/traces.
PALETTE = (
    SignalDecl("x", SignalKind.REAL),
    SignalDecl("y", SignalKind.REAL),
    SignalDecl("b", SignalKind.BOOL),
    SignalDecl("m", SignalKind.ENUM, ("alpha", "beta", "gamma")),
)
PALETTE_SPEC = Specification(PALETTE, ())


# ---------------------------------------------------------------------------
# Naive windowed extremum (two independent algorithms) and until kernel
# ---------------------------------------------------------------------------

def naive_windowed(series, width, mode):
    n = len(series)
    pick = min if mode == "min" else max
    return [pick(series[t : min(t + width, n - 1) + 1]) for t in range(n)]


def deque_windowed(series, width, mode):
    """Monotonic double-ended queue sweep, back to front."""
    n = len(series)
    out = [0.0] * n
    keep = (lambda a, b: a >= b) if mode == "min" else (lambda a, b: a <= b)
    dq: deque[int] = deque()
    for t in range(n - 1, -1, -1):
        while dq and keep(series[dq[-1]], series[t]):
            dq.pop()
        dq.append(t)
        while dq[0] > t + width:
            dq.popleft()
        out[t] = series[dq[0]]
    return out


def naive_until(lhs, rhs, lo, hi):
    """Until kernel on two robustness series, straight from the definition:
    out[t] = max over s in [t+lo, t+hi] of min(rhs[s], min(lhs[t..s])),
    under the clip-to-end truncation rule (hi None means unbounded)."""
    n = len(lhs)
    out = []
    for t in range(n):
        start = min(t + lo, n - 1)
        end = n - 1 if hi is None else min(t + hi, n - 1)
        out.append(max(min(rhs[s], min(lhs[t : s + 1])) for s in range(start, end + 1)))
    return out


# ---------------------------------------------------------------------------
# Per-cell trace CSV writer, csv.reader CSV decoder and per-value JSON decoder
# ---------------------------------------------------------------------------

def percell_csv(trace: Trace) -> str:
    """Trace CSV written one cell at a time, row by row."""
    names = list(trace.channels)
    lines = [",".join(["time"] + names)]
    for i in range(len(trace)):
        cells = [format_number(float(trace.times[i]))]
        for name in names:
            series = trace.channels[name]
            if series.kind is SignalKind.REAL:
                cells.append(format_number(float(series.values[i])))
            elif series.kind is SignalKind.BOOL:
                cells.append("true" if series.values[i] else "false")
            else:
                cells.append(series.variants[int(series.values[i])])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def csvreader_csv(text: str, spec: Specification) -> dict[str, np.ndarray]:
    """The columns of a trace CSV, `time` first, read with `csv.reader` and
    checked one cell at a time in row-major order, then checked for uniform
    sampling; raises the loader's TraceError for the first fault.

    `csv.reader` unquotes a quoted cell and takes a bare CR inside a line
    as an error. `float` reads `_` separators and non-ASCII digits, but
    not a number next to \x1c-\x1f, which `str.isspace` calls whitespace.
    The loader differs in each, so inputs holding `"`, a bare CR, `_`, a
    non-ASCII digit or \x1c-\x1f are outside the comparison."""
    rows = list(csv.reader(io.StringIO(text)))
    while rows and not rows[-1]:
        rows.pop()
    for i, row in enumerate(rows, start=1):
        if not row:
            raise TraceError("blank line inside data", row=i)
    if not rows:
        raise TraceError("empty file")
    header = rows[0]
    if header[0] != "time":
        raise TraceError("first column must be 'time'", row=1, column=1)
    decls = []
    for j, name in enumerate(header[1:], start=2):
        decl = spec.signal(name)
        if decl is None:
            raise TraceError(f"unknown column '{name}'", row=1, column=j)
        if any(d.name == name for d in decls):
            raise TraceError(f"duplicate column '{name}'", row=1, column=j)
        decls.append(decl)
    if len(rows) < 3:
        raise TraceError("fewer than 2 rows")

    columns = [[] for _ in header]
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TraceError(f"malformed row: expected {len(header)} cells, got {len(row)}", row=i)
        for j, (decl, cell) in enumerate(zip([None, *decls], row)):
            if decl is None or decl.kind is SignalKind.REAL:
                try:
                    v = float(cell)
                except ValueError:
                    what = "time" if decl is None else "real"
                    raise TraceError(f"bad {what} value {cell!r}", row=i, column=j + 1) from None
                if not math.isfinite(v):
                    raise TraceError(f"non-finite value {cell!r}", row=i, column=j + 1)
            elif decl.kind is SignalKind.BOOL:
                if cell not in ("true", "1", "false", "0"):
                    raise TraceError(f"bad bool value {cell!r}", row=i, column=j + 1)
                v = cell in ("true", "1")
            else:
                if cell not in decl.enum_variants:
                    raise TraceError(f"undeclared variant {cell!r}", row=i, column=j + 1)
                v = decl.enum_variants.index(cell)
            columns[j].append(v)

    times = columns[0]
    dt = times[1] - times[0]
    if dt <= 0:
        raise TraceError("times not strictly increasing", row=3)
    if not math.isfinite(dt):
        raise TraceError("non-finite dt")
    gaps = [b - a for a, b in zip(times, times[1:])]  # gap k ends at file row k + 3
    for k, gap in enumerate(gaps):
        if gap <= 0:
            raise TraceError("times not strictly increasing", row=k + 3)
    for k, gap in enumerate(gaps):
        if abs(gap - dt) / dt > UNIFORMITY_TOL:
            raise TraceError("non-uniform sampling", row=k + 3)
    dtypes = {SignalKind.REAL: np.float64, SignalKind.BOOL: np.bool_, SignalKind.ENUM: np.int64}
    out = {"time": np.array(times, dtype=np.float64)}
    for decl, values in zip(decls, columns[1:]):
        out[decl.name] = np.array(values, dtype=dtypes[decl.kind])
    return out


def pervalue_json(text: str, spec: Specification) -> dict[str, np.ndarray]:
    """The signal arrays of a JSON trace, checked and converted one value at
    a time in object order; raises the loader's TraceError for the first
    fault. The `id` and `dt` fields are taken as valid."""
    dtypes = {SignalKind.REAL: np.float64, SignalKind.BOOL: np.bool_, SignalKind.ENUM: np.int64}
    n = None
    channels = {}
    for name, values in json.loads(text)["signals"].items():
        decl = spec.signal(name)
        if n is None:
            n = len(values)
        elif len(values) != n:
            raise TraceError("ragged signals")
        parsed = []
        for i, v in enumerate(values, start=1):
            if decl.kind is SignalKind.REAL:
                try:
                    ok = isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                except OverflowError:
                    ok = False
                if not ok:
                    raise TraceError(f"bad real value {v!r} in '{name}'", row=i)
                parsed.append(float(v))
            elif decl.kind is SignalKind.BOOL:
                if not (isinstance(v, bool) or v in (0, 1)):
                    raise TraceError(f"bad bool value {v!r} in '{name}'", row=i)
                parsed.append(bool(v))
            else:
                if not isinstance(v, str) or v not in decl.enum_variants:
                    raise TraceError(f"undeclared variant {v!r} in '{name}'", row=i)
                parsed.append(decl.enum_variants.index(v))
        channels[name] = np.array(parsed, dtype=dtypes[decl.kind])
    if n is None or n < 2:
        raise TraceError("fewer than 2 samples")
    return channels


# ---------------------------------------------------------------------------
# Naive robustness / boolean semantics (direct definition, memoized)
# ---------------------------------------------------------------------------

def _offset(bound, dt):
    exact = bound / dt
    k = round(exact)
    assert abs(k - exact) <= 1e-6, "test generator produced a non-sample-aligned bound"
    return int(k)


def _window_indices(interval, dt, t, n):
    a = _offset(interval.lo, dt)
    lo = min(t + a, n - 1)
    if interval.unbounded:
        hi = n - 1
    else:
        hi = min(t + _offset(interval.hi, dt), n - 1)
    return lo, hi


def expr_at(expr, trace, i):
    if isinstance(expr, SignalRef):
        return float(trace.channels[expr.name].values[i])
    if isinstance(expr, Constant):
        return float(expr.value)
    if isinstance(expr, Abs):
        return abs(expr_at(expr.child, trace, i))
    if isinstance(expr, Deriv):
        if i == 0:
            return 0.0
        v = trace.channels[expr.name].values
        return (float(v[i]) - float(v[i - 1])) / trace.dt
    lhs = expr_at(expr.lhs, trace, i)
    rhs = expr_at(expr.rhs, trace, i)
    if isinstance(expr, Add):
        return lhs + rhs
    if isinstance(expr, Sub):
        return lhs - rhs
    if isinstance(expr, Mul):
        return lhs * rhs
    assert isinstance(expr, Div)
    return lhs / rhs


def _atom_rho(pred, trace, i):
    if isinstance(pred, Compare):
        lhs = expr_at(pred.lhs, trace, i)
        rhs = expr_at(pred.rhs, trace, i)
        if pred.op in (CmpOp.LT, CmpOp.LE):
            return rhs - lhs
        return lhs - rhs
    if isinstance(pred, EnumEq):
        series = trace.channels[pred.signal]
        hold = series.values[i] == series.variants.index(pred.variant)
        if pred.negated:
            hold = not hold
        return 1.0 if hold else -1.0
    assert isinstance(pred, BoolIs)
    hold = bool(trace.channels[pred.signal].values[i]) == pred.expected
    return 1.0 if hold else -1.0


def naive_rho(f, trace, t=0, memo=None):
    """Direct-definition quantitative robustness at sample t."""
    if memo is None:
        memo = {}
    key = (id(f), t)
    if key in memo:
        return memo[key]
    n = len(trace)
    if isinstance(f, Atom):
        out = _atom_rho(f.predicate, trace, t)
    elif isinstance(f, Not):
        out = -naive_rho(f.child, trace, t, memo)
    elif isinstance(f, And):
        out = min(naive_rho(f.lhs, trace, t, memo), naive_rho(f.rhs, trace, t, memo))
    elif isinstance(f, Or):
        out = max(naive_rho(f.lhs, trace, t, memo), naive_rho(f.rhs, trace, t, memo))
    elif isinstance(f, Implies):
        out = max(-naive_rho(f.lhs, trace, t, memo), naive_rho(f.rhs, trace, t, memo))
    elif isinstance(f, (Globally, Eventually)):
        lo, hi = _window_indices(f.interval, trace.dt, t, n)
        vals = [naive_rho(f.child, trace, u, memo) for u in range(lo, hi + 1)]
        out = min(vals) if isinstance(f, Globally) else max(vals)
    else:
        assert isinstance(f, Until)
        lo, hi = _window_indices(f.interval, trace.dt, t, n)
        best = -math.inf
        for u in range(lo, hi + 1):
            held = min(naive_rho(f.lhs, trace, k, memo) for k in range(t, u + 1))
            best = max(best, min(naive_rho(f.rhs, trace, u, memo), held))
        out = best
    memo[key] = out
    return out


def _atom_bool(pred, trace, i):
    if isinstance(pred, Compare):
        lhs = expr_at(pred.lhs, trace, i)
        rhs = expr_at(pred.rhs, trace, i)
        return {
            CmpOp.LT: lhs < rhs,
            CmpOp.LE: lhs <= rhs,
            CmpOp.GT: lhs > rhs,
            CmpOp.GE: lhs >= rhs,
        }[pred.op]
    return _atom_rho(pred, trace, i) > 0  # enum/bool atoms have no boundary case


def naive_bool(f, trace, t=0, memo=None):
    """Classical boolean semantics under the same truncation rule."""
    if memo is None:
        memo = {}
    key = (id(f), t)
    if key in memo:
        return memo[key]
    n = len(trace)
    if isinstance(f, Atom):
        out = _atom_bool(f.predicate, trace, t)
    elif isinstance(f, Not):
        out = not naive_bool(f.child, trace, t, memo)
    elif isinstance(f, And):
        out = naive_bool(f.lhs, trace, t, memo) and naive_bool(f.rhs, trace, t, memo)
    elif isinstance(f, Or):
        out = naive_bool(f.lhs, trace, t, memo) or naive_bool(f.rhs, trace, t, memo)
    elif isinstance(f, Implies):
        out = (not naive_bool(f.lhs, trace, t, memo)) or naive_bool(f.rhs, trace, t, memo)
    elif isinstance(f, (Globally, Eventually)):
        lo, hi = _window_indices(f.interval, trace.dt, t, n)
        vals = (naive_bool(f.child, trace, u, memo) for u in range(lo, hi + 1))
        out = all(vals) if isinstance(f, Globally) else any(vals)
    else:
        assert isinstance(f, Until)
        lo, hi = _window_indices(f.interval, trace.dt, t, n)
        out = any(
            naive_bool(f.rhs, trace, u, memo)
            and all(naive_bool(f.lhs, trace, k, memo) for k in range(t, u + 1))
            for u in range(lo, hi + 1)
        )
    memo[key] = out
    return out


# ---------------------------------------------------------------------------
# Random generators
# ---------------------------------------------------------------------------

def random_expr(rng: random.Random, max_depth: int, safe_div: bool = True):
    if max_depth <= 0 or rng.random() < 0.4:
        pick = rng.random()
        if pick < 0.45:
            return SignalRef(rng.choice(("x", "y")))
        if pick < 0.8:
            return Constant(round(rng.uniform(-10, 10), 3))
        return Deriv(rng.choice(("x", "y")))
    kind = rng.randrange(5)
    if kind == 0:
        return Abs(random_expr(rng, max_depth - 1, safe_div))
    lhs = random_expr(rng, max_depth - 1, safe_div)
    if kind == 1:
        return Add(lhs, random_expr(rng, max_depth - 1, safe_div))
    if kind == 2:
        return Sub(lhs, random_expr(rng, max_depth - 1, safe_div))
    if kind == 3:
        return Mul(lhs, random_expr(rng, max_depth - 1, safe_div))
    if safe_div:
        c = round(rng.uniform(0.5, 4.0), 3) * rng.choice((-1, 1))
        return Div(lhs, Constant(c))
    return Div(lhs, random_expr(rng, max_depth - 1, safe_div))


def random_predicate(rng: random.Random, safe_div: bool = True):
    pick = rng.random()
    if pick < 0.6:
        ops = (CmpOp.LT, CmpOp.LE, CmpOp.GT, CmpOp.GE)
        return Compare(random_expr(rng, 2, safe_div), rng.choice(ops), random_expr(rng, 2, safe_div))
    if pick < 0.8:
        return EnumEq("m", rng.choice(("alpha", "beta", "gamma")), rng.random() < 0.5)
    return BoolIs("b", rng.random() < 0.5)


def random_interval(rng: random.Random, dt: float, allow_unbounded: bool = True) -> Interval:
    lo = rng.randrange(0, 5)
    if allow_unbounded and rng.random() < 0.3:
        return Interval(lo * dt, UNBOUNDED)
    return Interval(lo * dt, (lo + rng.randrange(0, 8)) * dt)


def random_formula(rng: random.Random, max_depth: int, dt: float = 1.0, safe_div: bool = True):
    """Depth-bounded random formula over PALETTE, valid for traces of step dt."""
    if max_depth <= 0 or rng.random() < 0.25:
        return Atom(random_predicate(rng, safe_div))
    kind = rng.randrange(7)
    if kind == 0:
        return Not(random_formula(rng, max_depth - 1, dt, safe_div))
    if kind == 1:
        return And(random_formula(rng, max_depth - 1, dt, safe_div),
                   random_formula(rng, max_depth - 1, dt, safe_div))
    if kind == 2:
        return Or(random_formula(rng, max_depth - 1, dt, safe_div),
                  random_formula(rng, max_depth - 1, dt, safe_div))
    if kind == 3:
        return Implies(random_formula(rng, max_depth - 1, dt, safe_div),
                       random_formula(rng, max_depth - 1, dt, safe_div))
    if kind == 4:
        return Globally(random_interval(rng, dt), random_formula(rng, max_depth - 1, dt, safe_div))
    if kind == 5:
        return Eventually(random_interval(rng, dt), random_formula(rng, max_depth - 1, dt, safe_div))
    return Until(
        random_interval(rng, dt, allow_unbounded=False),
        random_formula(rng, max_depth - 1, dt, safe_div),
        random_formula(rng, max_depth - 1, dt, safe_div),
    )


def random_trace(rng: random.Random, dt: float = 1.0, min_len: int = 2, max_len: int = 50) -> Trace:
    n = rng.randrange(min_len, max_len + 1)
    channels = {
        "x": Series(SignalKind.REAL, np.array([rng.uniform(-10, 10) for _ in range(n)])),
        "y": Series(SignalKind.REAL, np.array([rng.uniform(-10, 10) for _ in range(n)])),
        "b": Series(SignalKind.BOOL, np.array([rng.random() < 0.5 for _ in range(n)])),
        "m": Series(
            SignalKind.ENUM,
            np.array([rng.randrange(3) for _ in range(n)], dtype=np.int64),
            ("alpha", "beta", "gamma"),
        ),
    }
    times = np.arange(n, dtype=np.float64) * dt
    return Trace("random", dt, times, channels)


def random_pair(rng: random.Random, max_depth: int = 4, max_len: int = 50):
    dt = rng.choice((1.0, 0.5, 0.25))
    return random_formula(rng, max_depth, dt), random_trace(rng, dt, max_len=max_len)


# ---------------------------------------------------------------------------
# Brute-force Mann-Whitney
# ---------------------------------------------------------------------------

def brute_force_mwu_p(sample_a, sample_b) -> float:
    """Two-sided exact p by enumerating all labelings of the pooled data.

    Valid only without ties (values must be distinct).
    """
    pooled = list(sample_a) + list(sample_b)
    assert len(set(pooled)) == len(pooled), "brute force requires tie-free samples"
    n_a = len(sample_a)

    def u_of(group_a):
        group_b = [v for v in pooled if v not in group_a]
        return sum(1 for a in group_a for b in group_b if a > b)

    u_obs_a = u_of(list(sample_a))
    u_big = max(u_obs_a, n_a * (len(pooled) - n_a) - u_obs_a)
    total = 0
    extreme = 0
    for combo in itertools.combinations(pooled, n_a):
        total += 1
        if u_of(list(combo)) >= u_big:
            extreme += 1
    return min(1.0, 2.0 * extreme / total)
