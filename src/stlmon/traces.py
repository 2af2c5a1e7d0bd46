"""Rollout traces: loading, validation, serialization, and resolution of
signal names to channels (`channel`). Evaluating expressions and
formulas over a trace is `robustness.py`'s job.

A trace is a uniformly sampled record of named channels over one episode.
Loaders validate shape and typing eagerly so the engine can assume clean
data; loaded arrays are frozen (read-only) and safe to share.

Both codecs decode in bulk. The CSV loader has two halves:
`split_trace_csv` decodes one file's text, checks its header and row
count and returns its body lines, and `load_csv_bodies` parses the bodies
of one or more files under one header with one `np.loadtxt` call (numpy's
C text reader). The table it reads has a double field for time and each
real column and a text field for each bool and enum column, so no cell
goes through Python. `_field_values` then checks and converts each
column once: bool and enum cells are looked up among the column's valid
cells. Each trace's columns are slices of the table's columns.
`load_trace_csv` is the one-file case of the two; the CLI parses a run of
files with one call. The JSON loader decodes each signal's array in one
pass through `_decode_column`; the writer formats each column from one
`tolist()`. Each loader has one fault walk: when the bulk decode fails,
the walk visits the values in order and raises the first bad one with
its row (`_raise_first_fault` over one CSV body, in row-major order and
with the column; `_check_value` over the failed signal for JSON). When
the table of several CSV bodies fails, they are loaded one at a time,
so the first faulty body raises after the traces of those before it. A
CSV file that holds a NUL always takes the walk, in `split_trace_csv`:
numpy drops a text cell's trailing NULs. A walk builds no trace.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterator, Sequence
from itertools import chain
from typing import Union

import numpy as np

from .formula import SignalKind, Specification, _Record, format_number

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


class Series(_Record, eq=False):
    kind: SignalKind
    values: np.ndarray  # float64 (real), bool_ (bool), or int64 variant indices (enum)
    variants: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.values)


class Trace(_Record, eq=False):
    id: str
    dt: float
    times: np.ndarray
    channels: dict[str, Series]

    def __post_init__(self):
        if len(self.times) < 2:
            raise TraceError("trace must have at least 2 samples")
        if not math.isfinite(self.dt):
            raise TraceError("non-finite dt")
        if self.dt <= 0:
            raise TraceError("nonpositive dt")
        # An overflow is an infinite gap and inf - inf a NaN one, both caught below.
        with np.errstate(over="ignore", invalid="ignore"):
            gaps = np.diff(self.times)
            rel = np.abs(gaps - self.dt) / self.dt
        # Gaps within the tolerance of dt are positive and not NaN, so one
        # test passes a valid trace; the checks in order name a fault.
        if not (rel <= UNIFORMITY_TOL).all():
            if np.any(gaps <= 0):
                bad = int(np.argmax(gaps <= 0))
                raise TraceError("times not strictly increasing", row=bad + 2)
            if np.any(rel > UNIFORMITY_TOL):
                bad = int(np.argmax(rel > UNIFORMITY_TOL))
                raise TraceError("non-uniform sampling", row=bad + 2)
            # Gaps that pass both checks are finite unless a time is NaN or two
            # neighbours are the same infinity: their gap is NaN, which fails neither.
            bad = int(np.argmin(np.isfinite(self.times)))
            raise TraceError("non-finite time", row=bad + 1)
        for name, series in self.channels.items():
            if len(series) != len(self.times):
                raise TraceError(f"channel '{name}' length does not match times")
        self.times.flags.writeable = False
        for series in self.channels.values():
            series.values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.times)


_BOOL_CELLS = {"true": True, "1": True, "false": False, "0": False}
# JSON true/false, or any number equal to 0 or 1 (0.0, -0.0, 1.0): numbers
# that compare equal hash equal, across bool, int and float.
_BOOL_VALUES = {0: False, 1: True}


def _decode(data: Union[bytes, str]) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("utf-8-sig")  # tolerate a leading BOM
        except UnicodeDecodeError as exc:
            raise TraceError(f"not valid UTF-8: {exc}") from None
    return data


def _check_cell(cell: str, decl, row: int, column: int) -> None:
    """Raise the TraceError for a bad cell; `decl` is None for the time column."""
    if decl is None or decl.kind is SignalKind.REAL:
        # What numpy's reader parses: float() of the stripped text, less the
        # `_` separators and non-ASCII digits that float() alone accepts.
        text = cell.strip()
        try:
            if not text.isascii() or "_" in text:
                raise ValueError(text)
            value = float(text)
        except ValueError:
            what = "time" if decl is None else "real"
            raise TraceError(f"bad {what} value {cell!r}", row=row, column=column) from None
        if not math.isfinite(value):
            raise TraceError(f"non-finite value {cell!r}", row=row, column=column)
    elif decl.kind is SignalKind.BOOL:
        if cell not in _BOOL_CELLS:
            raise TraceError(f"bad bool value {cell!r}", row=row, column=column)
    elif cell not in decl.enum_variants:
        raise TraceError(f"undeclared variant {cell!r}", row=row, column=column)


def _variant_indices(decl) -> dict[str, int]:
    return {v: decl.enum_variants.index(v) for v in decl.enum_variants}


def _cell_lookup(decl) -> tuple[np.ndarray, np.ndarray]:
    """A bool or enum column's valid cells, sorted and in the column's
    field format, and each one's value: the bool, or the variant's index
    in declaration order."""
    if decl.kind is SignalKind.BOOL:
        values, dtype = _BOOL_CELLS, np.bool_
    else:
        values, dtype = _variant_indices(decl), np.int64
    cells = sorted(values)
    return np.array(cells, _field_format(decl)), np.array([values[c] for c in cells], dtype)


def _field_format(decl) -> str:
    """The field of the parsed CSV table that holds a column: a double for
    time and reals, else text one character wider than the longest valid
    cell, so that numpy, which cuts a longer cell to the field's width,
    never cuts one down to a valid cell."""
    if decl is None or decl.kind is SignalKind.REAL:
        return "f8"
    cells = _BOOL_CELLS if decl.kind is SignalKind.BOOL else decl.enum_variants
    return f"U{max(map(len, cells)) + 1}"


def _field_values(decl, cells: np.ndarray) -> np.ndarray:
    """One field of the parsed CSV table as a contiguous array of values
    (`decl` is None for time); raises ValueError on a non-finite number or
    a bool or enum cell that is not valid."""
    if decl is None or decl.kind is SignalKind.REAL:
        values = np.ascontiguousarray(cells)
        if not np.isfinite(values).all():
            raise ValueError("non-finite value")
        return values
    valid, codes = _cell_lookup(decl)
    at = np.searchsorted(valid, cells)
    np.minimum(at, len(valid) - 1, out=at)  # past the last valid cell
    if not (valid[at] == cells).all():
        raise ValueError("bad cell")
    return codes[at]


def _decode_column(decl, values: list) -> Series:
    """One JSON signal as a Series; raises ValueError, KeyError, TypeError
    or OverflowError on any bad value."""
    if decl.kind is SignalKind.REAL:
        if not set(map(type, values)) <= {int, float}:  # bool is neither
            raise TypeError("not a number")
        # an integer past the double range raises OverflowError, as float() does
        reals = np.array(values, dtype=np.float64)
        if not np.isfinite(reals).all():
            raise ValueError("non-finite value")
        return Series(decl.kind, reals)
    if decl.kind is SignalKind.BOOL:
        return Series(decl.kind, np.array(list(map(_BOOL_VALUES.__getitem__, values)), dtype=np.bool_))
    indices = np.array(list(map(_variant_indices(decl).__getitem__, values)), dtype=np.int64)
    return Series(decl.kind, indices, decl.enum_variants)


def _raise_first_fault(body: list[str], decls, width: int) -> None:
    """Raise the TraceError of one CSV body's first bad row or cell, in
    row-major order."""
    for i, line in enumerate(body, start=2):
        row = line.split(",")
        if len(row) != width:
            raise TraceError(f"malformed row: expected {width} cells, got {len(row)}", row=i)
        for j, (decl, cell) in enumerate(zip([None, *decls], row), start=1):
            _check_cell(cell, decl, i, j)


def split_trace_csv(data: Union[bytes, str], spec: Specification) -> tuple[tuple, list[str]]:
    """The per-file half of `load_trace_csv`: decode the text, split its
    lines and check the header, blank lines and row count. Returns the
    header's signal declarations and the body lines, one per sample."""
    text = _decode(data)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    while lines and not lines[-1]:  # trailing blank lines
        lines.pop()
    if "" in lines:
        raise TraceError("blank line inside data", row=lines.index("") + 1)
    if not lines:
        raise TraceError("empty file")
    header = lines[0].split(",")
    if header[0] != "time":
        raise TraceError("first column must be 'time'", row=1, column=1)
    decls = []
    for j, name in enumerate(header[1:], start=2):
        decl = spec.signal(name)
        if decl is None:
            raise TraceError(f"unknown column '{name}'", row=1, column=j)
        if name in header[1:j - 1]:
            raise TraceError(f"duplicate column '{name}'", row=1, column=j)
        decls.append(decl)
    del lines[0]
    if len(lines) < 2:
        raise TraceError("fewer than 2 rows")
    if "\0" in text:
        # numpy drops a text cell's trailing NULs, so `true\0` would parse as
        # `true`. No cell may hold a NUL: the walk raises the first fault.
        _raise_first_fault(lines, decls, len(header))
    return tuple(decls), lines


def load_csv_bodies(decls: tuple, bodies: Sequence[list[str]], ids: list[str]) -> Iterator[Trace]:
    """The table half of `load_trace_csv`: yield the traces of CSV bodies
    under one header, split by `split_trace_csv`, in body order, parsed
    with one `np.loadtxt` call. A faulty body raises the TraceError it
    raises when loaded alone, after the traces of the bodies before it:
    if the table fails, the bodies are loaded one at a time."""
    fields = [None, *decls]  # None is the time column
    dtype = [(f"f{j}", _field_format(d)) for j, d in enumerate(fields)]
    try:
        table = np.loadtxt(chain.from_iterable(bodies), dtype=dtype, delimiter=",",
                           comments=None, ndmin=1)
        if table.shape != (sum(map(len, bodies)),):  # numpy skips empty lines
            raise ValueError("bad table")
        columns = [_field_values(d, table[name]) for d, (name, _) in zip(fields, dtype)]
    except ValueError:
        if len(bodies) > 1:
            for body, trace_id in zip(bodies, ids):
                yield from load_csv_bodies(decls, [body], [trace_id])
        else:
            _raise_first_fault(bodies[0], decls, len(fields))
        raise  # the walk found no fault: the decoder and the walk disagree
    start = 0
    for body, trace_id in zip(bodies, ids):
        times, *values = (c[start:start + len(body)] for c in columns)
        start += len(body)
        channels = {d.name: Series(d.kind, v, d.enum_variants) for d, v in zip(decls, values)}
        dt = float(times[1]) - float(times[0])
        if dt <= 0:
            raise TraceError("times not strictly increasing", row=3)
        try:
            trace = Trace(trace_id, dt, times, channels)
        except TraceError as exc:
            # Trace numbers its samples from 1; below the header, sample k is file row k + 1.
            raise TraceError(exc.message, row=None if exc.row is None else exc.row + 1) from None
        yield trace


def load_trace_csv(data: Union[bytes, str], spec: Specification, trace_id: str = "trace") -> Trace:
    """Load a trace from CSV text with header `time,<signal>...`.

    Lines end with LF, CRLF or a bare CR. Cells are not quoted.
    dt is inferred from the first gap; every later gap must match it to
    within UNIFORMITY_TOL (relative).
    """
    decls, body = split_trace_csv(data, spec)
    [trace] = load_csv_bodies(decls, [body], [trace_id])
    return trace


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key given twice is an error, where
    `json` alone would keep the last value without a word."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise TraceError(f"duplicate key '{key}'")
            seen.add(key)
    return obj


def _check_value(v, decl, name: str, row: int) -> None:
    """Raise the TraceError for a bad value `v` of JSON signal `name`."""
    if decl.kind is SignalKind.REAL:
        try:
            good = type(v) in (int, float) and math.isfinite(v)
        except OverflowError:  # an integer beyond the double range
            good = False
        if not good:
            raise TraceError(f"bad real value {v!r} in '{name}'", row=row)
    elif decl.kind is SignalKind.BOOL:
        if v not in (0, 1):  # true and false are 1 and 0
            raise TraceError(f"bad bool value {v!r} in '{name}'", row=row)
    elif v not in decl.enum_variants:
        raise TraceError(f"undeclared variant {v!r} in '{name}'", row=row)


def load_trace_json(data: Union[bytes, str], spec: Specification) -> Trace:
    """Load a trace from the JSON format {id, dt, signals: {name: [...]}}."""
    try:
        obj = json.loads(_decode(data), object_pairs_hook=_unique_keys)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
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
    try:
        dt = float(obj["dt"])
    except OverflowError:  # an integer beyond the double range
        dt = math.inf
    if not math.isfinite(dt):
        raise TraceError("field 'dt' must be a finite number")
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
        try:
            channels[name] = _decode_column(decl, values)
        except (ValueError, KeyError, TypeError, OverflowError):
            for row, v in enumerate(values, start=1):
                _check_value(v, decl, name, row)
            raise  # the walk found no fault: the decoder and the walk disagree

    if n is None or n < 2:
        raise TraceError("fewer than 2 samples")
    with np.errstate(over="ignore"):  # past the largest double, Trace finds the gap
        times = np.arange(n, dtype=np.float64) * dt
    return Trace(obj["id"], dt, times, channels)


def _real_cells(values: np.ndarray) -> list[str]:
    """`format_number` of each value, a column at a time: `repr` is already
    that form except for integral values under 1e16, written as integers,
    and values whose repr is in scientific notation (under 1e-4 or at
    least 1e16), which alone go through `format_number`."""
    finite = np.isfinite(values)
    if not finite.all():
        format_number(float(values[np.argmin(finite)]))  # raises for the first non-finite value
    magnitude = np.abs(values)
    integral = (values == np.trunc(values)) & (magnitude < 1e16)
    integers = map(str, values[integral].astype(np.int64).tolist())
    if integral.all():  # a time column
        return list(integers)
    floats = values.tolist()
    cells = list(map(repr, floats))
    for i, text in zip(np.flatnonzero(integral).tolist(), integers):
        cells[i] = text
    scientific = ~integral & ((magnitude < 1e-4) | (magnitude >= 1e16))
    for i in np.flatnonzero(scientific).tolist():
        cells[i] = format_number(floats[i])
    return cells


def _format_cells(series: Series) -> list[str]:
    if series.kind is SignalKind.REAL:
        return _real_cells(series.values)
    values = series.values.tolist()
    if series.kind is SignalKind.BOOL:
        return ["true" if v else "false" for v in values]
    return list(map(series.variants.__getitem__, values))


def write_columns_csv(times: np.ndarray, channels: dict[str, Series]) -> str:
    """CSV text with header `time,<name>...`; reals use shortest round-trip decimals."""
    return columns_csv_writer(times)(channels)


def columns_csv_writer(times: np.ndarray) -> Callable[[dict[str, Series]], str]:
    """`write_columns_csv` on one time column, formatted once for every call."""
    time_cells = _format_cells(Series(SignalKind.REAL, times))

    def write(channels: dict[str, Series]) -> str:
        columns = [time_cells, *map(_format_cells, channels.values())]
        lines = [",".join(["time", *channels]), *map(",".join, zip(*columns))]
        return "\n".join(lines) + "\n"

    return write


def write_trace_csv(trace: Trace) -> str:
    """Serialize a trace to CSV in the form load_trace_csv reads."""
    return write_columns_csv(trace.times, trace.channels)


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


def channel(trace: Trace, name: str, kind: SignalKind) -> Series:
    """The trace's channel `name`, which must hold `kind` values."""
    series = trace.channels.get(name)
    if series is None:
        raise EvalError(f"signal '{name}' missing from trace '{trace.id}'")
    if series.kind is not kind:
        raise EvalError(f"signal '{name}' is {series.kind.value}-valued, not {kind.value}-valued")
    return series
