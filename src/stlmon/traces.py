"""Rollout traces: loading, validation, serialization, resolution of
signal names to channels (`channel`), and evaluation of signal
expressions into sample-aligned real series.

A trace is a uniformly sampled record of named channels over one episode.
Loaders validate shape and typing eagerly so the engine can assume clean
data; loaded arrays are frozen (read-only) and safe to share.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .formula import (
    Abs,
    Add,
    Constant,
    Deriv,
    Mul,
    SignalExpr,
    SignalKind,
    SignalRef,
    Specification,
    Sub,
    _BinaryExpr,
    format_number,
)

# Successive sample gaps may deviate from dt by at most this relative amount.
UNIFORMITY_TOL = 1e-6


class TraceError(Exception):
    """Malformed trace data; carries a 1-based row/column when known."""

    def __init__(self, message: str, row: int | None = None, column: int | None = None):
        self.message = message
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f"row {row}" + (f", column {column}" if column is not None else "") + ": "
        super().__init__(where + message)


class EvalError(Exception):
    pass


@dataclass(frozen=True, eq=False)
class Series:
    kind: SignalKind
    values: np.ndarray  # float64 (real), bool_ (bool), or int64 variant indices (enum)
    variants: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True, eq=False)
class Trace:
    id: str
    dt: float
    times: np.ndarray
    channels: dict[str, Series]

    def __post_init__(self):
        if len(self.times) < 2:
            raise TraceError("trace must have at least 2 samples")
        if self.dt <= 0:
            raise TraceError("nonpositive dt")
        gaps = np.diff(self.times)
        if np.any(gaps <= 0):
            bad = int(np.argmax(gaps <= 0))
            raise TraceError("times not strictly increasing", row=bad + 2)
        rel = np.abs(gaps - self.dt) / self.dt
        if np.any(rel > UNIFORMITY_TOL):
            bad = int(np.argmax(rel > UNIFORMITY_TOL))
            raise TraceError("non-uniform sampling", row=bad + 2)
        for name, series in self.channels.items():
            if len(series) != len(self.times):
                raise TraceError(f"channel '{name}' length does not match times")
        self.times.flags.writeable = False
        for series in self.channels.values():
            series.values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True, eq=False)
class EvaluatedSignal:
    """A signal expression evaluated to one finite real per sample."""

    values: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


_BOOL_CELLS = {"true": True, "1": True, "false": False, "0": False}


def _decode(data: Union[bytes, str]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8-sig")  # tolerate a leading BOM
        except UnicodeDecodeError as exc:
            raise TraceError(f"not valid UTF-8: {exc}") from None
    return data


def _parse_cell(cell: str, decl, row: int, column: int):
    if decl.kind is SignalKind.REAL:
        try:
            value = float(cell)
        except ValueError:
            raise TraceError(f"bad real value {cell!r}", row=row, column=column) from None
        if not math.isfinite(value):
            raise TraceError(f"non-finite value {cell!r}", row=row, column=column)
        return value
    if decl.kind is SignalKind.BOOL:
        if cell not in _BOOL_CELLS:
            raise TraceError(f"bad bool value {cell!r}", row=row, column=column)
        return _BOOL_CELLS[cell]
    if cell not in decl.enum_variants:
        raise TraceError(f"undeclared variant {cell!r}", row=row, column=column)
    return decl.enum_variants.index(cell)


def _make_series(decl, column_values) -> Series:
    if decl.kind is SignalKind.REAL:
        return Series(decl.kind, np.asarray(column_values, dtype=np.float64))
    if decl.kind is SignalKind.BOOL:
        return Series(decl.kind, np.asarray(column_values, dtype=np.bool_))
    return Series(decl.kind, np.asarray(column_values, dtype=np.int64), decl.enum_variants)


def load_trace_csv(data: Union[bytes, str], spec: Specification, trace_id: str = "trace") -> Trace:
    """Load a trace from CSV text with header `time,<signal>...`.

    dt is inferred from the first gap; every later gap must match it to
    within UNIFORMITY_TOL (relative).
    """
    rows = list(csv.reader(io.StringIO(_decode(data))))
    while rows and not rows[-1]:  # trailing blank lines
        rows.pop()
    for i, row in enumerate(rows, start=1):
        if not row:
            raise TraceError("blank line inside data", row=i)
    if not rows:
        raise TraceError("empty file")
    header = rows[0]
    if not header or header[0] != "time":
        raise TraceError("first column must be 'time'", row=1, column=1)
    decls = []
    for j, name in enumerate(header[1:], start=2):
        decl = spec.signal(name)
        if decl is None:
            raise TraceError(f"unknown column '{name}'", row=1, column=j)
        if name in (d.name for d in decls):
            raise TraceError(f"duplicate column '{name}'", row=1, column=j)
        decls.append(decl)

    if len(rows) - 1 < 2:
        raise TraceError("fewer than 2 rows")
    times: list[float] = []
    columns: list[list] = [[] for _ in decls]
    for i, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise TraceError(
                f"malformed row: expected {len(header)} cells, got {len(row)}", row=i
            )
        try:
            t = float(row[0])
        except ValueError:
            raise TraceError(f"bad time value {row[0]!r}", row=i, column=1) from None
        times.append(t)
        for j, (decl, cell) in enumerate(zip(decls, row[1:])):
            columns[j].append(_parse_cell(cell, decl, i, j + 2))

    dt = times[1] - times[0]
    if dt <= 0:
        raise TraceError("times not strictly increasing", row=3)
    channels = {decl.name: _make_series(decl, col) for decl, col in zip(decls, columns)}
    try:
        return Trace(trace_id, dt, np.asarray(times, dtype=np.float64), channels)
    except TraceError as exc:
        # Trace numbers its samples from 1; below the header, sample k is file row k + 1.
        raise TraceError(exc.message, row=exc.row + 1) from None


def load_trace_json(data: Union[bytes, str], spec: Specification) -> Trace:
    """Load a trace from the JSON format {id, dt, signals: {name: [...]}}."""
    try:
        obj = json.loads(_decode(data))
    except json.JSONDecodeError as exc:
        raise TraceError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise TraceError("top-level JSON value must be an object")
    for key in ("id", "dt", "signals"):
        if key not in obj:
            raise TraceError(f"missing field '{key}'")
    if not isinstance(obj["id"], str):
        raise TraceError("field 'id' must be a string")
    if not isinstance(obj["dt"], (int, float)) or isinstance(obj["dt"], bool):
        raise TraceError("field 'dt' must be a number")
    dt = float(obj["dt"])
    if dt <= 0:
        raise TraceError("nonpositive dt")
    signals = obj["signals"]
    if not isinstance(signals, dict) or not signals:
        raise TraceError("field 'signals' must be a non-empty object")

    n = None
    channels: dict[str, Series] = {}
    for name, values in signals.items():
        decl = spec.signal(name)
        if decl is None:
            raise TraceError(f"unknown signal '{name}'")
        if not isinstance(values, list):
            raise TraceError(f"signal '{name}' must be an array")
        if n is None:
            n = len(values)
        elif len(values) != n:
            raise TraceError("ragged signals")
        parsed = []
        for i, v in enumerate(values):
            if decl.kind is SignalKind.REAL:
                if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
                    raise TraceError(f"bad real value {v!r} in '{name}'", row=i + 1)
                parsed.append(float(v))
            elif decl.kind is SignalKind.BOOL:
                if isinstance(v, bool):
                    parsed.append(v)
                elif v in (0, 1):
                    parsed.append(bool(v))
                else:
                    raise TraceError(f"bad bool value {v!r} in '{name}'", row=i + 1)
            else:
                if not isinstance(v, str) or v not in decl.enum_variants:
                    raise TraceError(f"undeclared variant {v!r} in '{name}'", row=i + 1)
                parsed.append(decl.enum_variants.index(v))
        channels[name] = _make_series(decl, parsed)

    if n is None or n < 2:
        raise TraceError("fewer than 2 samples")
    times = np.arange(n, dtype=np.float64) * dt
    return Trace(obj["id"], dt, times, channels)


def write_trace_csv(trace: Trace) -> str:
    """Serialize a trace to CSV; reals use shortest round-trip decimals."""
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


def write_trace_json(trace: Trace) -> str:
    """Serialize a trace to the JSON format accepted by load_trace_json."""
    signals = {}
    for name, series in trace.channels.items():
        if series.kind is SignalKind.REAL:
            signals[name] = [float(v) for v in series.values]
        elif series.kind is SignalKind.BOOL:
            signals[name] = [bool(v) for v in series.values]
        else:
            signals[name] = [series.variants[int(v)] for v in series.values]
    return json.dumps({"id": trace.id, "dt": trace.dt, "signals": signals}) + "\n"


def eval_expr(expr: SignalExpr, trace: Trace) -> EvaluatedSignal:
    """Evaluate a real-valued signal expression over every trace sample.

    Deriv(s)[i] = (s[i] - s[i-1]) / dt for i >= 1, and 0 at i = 0
    (backward difference, causal and defined at every sample).
    """
    values = _eval(expr, trace)
    if not np.all(np.isfinite(values)):
        bad = int(np.argmin(np.isfinite(values)))
        raise EvalError(f"non-finite result at sample {bad}")
    return EvaluatedSignal(values)


def channel(trace: Trace, name: str, kind: SignalKind) -> Series:
    """The trace's channel `name`, which must hold `kind` values."""
    series = trace.channels.get(name)
    if series is None:
        raise EvalError(f"signal '{name}' missing from trace '{trace.id}'")
    if series.kind is not kind:
        raise EvalError(f"signal '{name}' is {series.kind.value}-valued, not {kind.value}-valued")
    return series


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
