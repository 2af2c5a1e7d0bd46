"""Trace loading, serialization round-trip, and expression evaluation."""

import json
import math
import random
import re
from collections import Counter

import numpy as np
import pytest

from stlmon import (
    Abs,
    Constant,
    Deriv,
    Div,
    EvalError,
    Series,
    SignalKind,
    SignalRef,
    Trace,
    TraceError,
    eval_expr,
    format_number,
    load_trace_csv,
    load_trace_json,
    parse_spec,
    write_trace_csv,
    write_trace_json,
)
from stlmon.cli import CliError, _chunks, _load_spec, run
from stlmon.traces import load_csv_bodies, split_trace_csv, write_columns_csv
from reference import (
    PALETTE_SPEC,
    csvreader_csv,
    expr_at,
    percell_csv,
    pervalue_json,
    random_expr,
    random_trace,
)

SPEC = parse_spec(
    """
signal speed : real
signal surface : enum {track, offroad}
signal done : bool
signal phi : real
signal x : real
signal y : real
"""
)

HUGE = "9" * 400  # a JSON integer too large for a double


class TestCsvLoader:
    def test_basic_load(self):
        trace = load_trace_csv("time,speed\n0,850\n1,870\n2,860\n", SPEC)
        assert len(trace) == 3
        assert trace.dt == 1.0
        assert list(trace.channels["speed"].values) == [850.0, 870.0, 860.0]

    def test_enum_and_bool_cells(self):
        trace = load_trace_csv(
            "time,surface,done\n0,track,false\n1,offroad,1\n2,track,true\n3,offroad,0\n", SPEC
        )
        assert list(trace.channels["surface"].values) == [0, 1, 0, 1]
        assert list(trace.channels["done"].values) == [False, True, True, False]

    def test_undeclared_variant(self):
        with pytest.raises(TraceError, match="undeclared variant 'grass'") as err:
            load_trace_csv("time,surface\n0,track\n1,grass\n", SPEC)
        assert err.value.row == 3

    def test_unknown_column(self):
        with pytest.raises(TraceError, match="unknown column 'velocity'"):
            load_trace_csv("time,velocity\n0,1\n1,2\n", SPEC)

    def test_non_uniform_sampling(self):
        with pytest.raises(TraceError, match="non-uniform sampling") as err:
            load_trace_csv("time,speed\n0,1\n1,2\n5,3\n", SPEC)
        assert err.value.row == 4

    @pytest.mark.parametrize("times, row", [("0,0,1", 3), ("0,1,1", 4)])
    def test_times_not_increasing_names_file_row(self, times, row):
        text = "time,speed\n" + "".join(f"{t},1\n" for t in times.split(","))
        with pytest.raises(TraceError, match=f"^row {row}: times not strictly increasing$"):
            load_trace_csv(text, SPEC)

    def test_fewer_than_two_rows(self):
        with pytest.raises(TraceError, match="fewer than 2 rows"):
            load_trace_csv("time,speed\n0,850\n", SPEC)

    def test_malformed_row(self):
        with pytest.raises(TraceError, match="malformed row") as err:
            load_trace_csv("time,speed\n0,850\n1\n", SPEC)
        assert err.value.row == 3

    def test_time_must_be_first(self):
        with pytest.raises(TraceError, match="first column must be 'time'"):
            load_trace_csv("speed,time\n850,0\n870,1\n", SPEC)

    def test_crlf_accepted(self):
        trace = load_trace_csv(b"time,speed\r\n0,850\r\n1,870\r\n", SPEC)
        assert len(trace) == 2

    def test_cr_only_line_endings_load(self):
        text = "time,speed,done\n0,850,true\n1,870,0\n"
        trace = load_trace_csv(text.replace("\n", "\r"), SPEC)
        want = load_trace_csv(text, SPEC)
        assert trace.times.tobytes() == want.times.tobytes()
        for name, series in want.channels.items():
            assert trace.channels[name].values.tobytes() == series.values.tobytes()

    def test_bad_bool_cell(self):
        with pytest.raises(TraceError, match="bad bool value"):
            load_trace_csv("time,done\n0,yes\n1,no\n", SPEC)

    @pytest.mark.parametrize(
        "times, row", [("0,1,nan,3", 4), ("nan,1,2,3", 2), ("0,1,inf,3", 4), ("0,-inf,2,3", 3)]
    )
    def test_non_finite_time_rejected(self, times, row):
        text = "time,x\n" + "".join(f"{t},{i}\n" for i, t in enumerate(times.split(",")))
        with pytest.raises(TraceError) as err:
            load_trace_csv(text, SPEC)
        cell = times.split(",")[row - 2]
        assert str(err.value) == f"row {row}, column 1: non-finite value {cell!r}"

    @pytest.mark.parametrize(
        "text, message, row, column",
        [
            ("time,speed\n0,1\n1,abc\n", "bad real value 'abc'", 3, 2),
            ("time,speed\n0,1\n1,\n", "bad real value ''", 3, 2),
            ("time,speed\n0,1\n1,inf\n", "non-finite value 'inf'", 3, 2),
            ("time,speed\n0,1\n1,nan\n", "non-finite value 'nan'", 3, 2),
            ("time,speed\n0,1\n1,-Infinity\n", "non-finite value '-Infinity'", 3, 2),
            ("time,speed\n0,1\nx,2\n", "bad time value 'x'", 3, 1),
            ("time,speed\n0,1\n,2\n", "bad time value ''", 3, 1),
            ("time,done\n0,yes\n1,no\n", "bad bool value 'yes'", 2, 2),
            ("time,done\n0,true\n1,True\n", "bad bool value 'True'", 3, 2),
            ("time,surface\n0,track\n1,grass\n", "undeclared variant 'grass'", 3, 2),
            ("time,surface\n0,track\n1,Track\n", "undeclared variant 'Track'", 3, 2),
            ("time,speed\n0,850\n1\n", "malformed row: expected 2 cells, got 1", 3, None),
            ("time,speed\n0,850\n1,2,3\n", "malformed row: expected 2 cells, got 3", 3, None),
            # two faults: the first in row-major order wins
            ("time,speed,x\n0,1,2\n1,2,bad\n2,3\n", "bad real value 'bad'", 3, 3),
            ("time,speed,x\n0,1,2\n1,2\n2,3,bad\n", "malformed row: expected 3 cells, got 2", 3, None),
            (
                "time,speed,x,surface\n0,1,2,grass\n1,oops,3,track\n",
                "undeclared variant 'grass'",
                2,
                4,
            ),
            ("time,speed,x\n0,1,2\nbad,2,inf\n", "bad time value 'bad'", 3, 1),
            ("time,speed,x\n0,1,2\n1,nan,bad\n", "non-finite value 'nan'", 3, 2),
            # real cells are ASCII numbers without `_` separators, and unquoted
            ("time,speed\n0,1\n1,1_0\n", "bad real value '1_0'", 3, 2),
            ("time,speed\n0,1\n1,\u0661\u0662\n", "bad real value '\u0661\u0662'", 3, 2),
            ("time,speed\n0,1\n\u0661,2\n", "bad time value '\u0661'", 3, 1),
            ('time,speed\n0,"1"\n1,2\n', "bad real value '\"1\"'", 2, 2),
            ('time,done\n0,"true"\n1,false\n', "bad bool value '\"true\"'", 2, 2),
        ],
    )
    def test_first_fault_named_exactly(self, text, message, row, column):
        with pytest.raises(TraceError) as err:
            load_trace_csv(text, SPEC)
        assert (err.value.message, err.value.row, err.value.column) == (message, row, column)


    @pytest.mark.parametrize(
        "data, message",
        [
            ("", "empty file"),
            ("\n\n", "empty file"),
            ("time,speed\n0,1\n\n1,2\n", "row 3: blank line inside data"),
            ("time,speed,speed\n0,1,1\n1,2,2\n", "row 1, column 3: duplicate column 'speed'"),
            (b"time,speed\n0,\xff\n1,2\n", "not valid UTF-8: 'utf-8' codec can't decode "
             "byte 0xff in position 13: invalid start byte"),
        ],
    )
    def test_file_faults_named_exactly(self, data, message):
        with pytest.raises(TraceError) as err:
            load_trace_csv(data, SPEC)
        assert str(err.value) == message

class TestJsonLoader:
    def test_basic_load(self):
        trace = load_trace_json('{"id":"t1","dt":0.1,"signals":{"x":[0,0.1,0.2]}}', SPEC)
        assert trace.id == "t1"
        assert len(trace) == 3
        assert trace.dt == 0.1

    def test_ragged_signals(self):
        data = '{"id":"t","dt":1,"signals":{"x":[0,1],"y":[0,1,2]}}'
        with pytest.raises(TraceError, match="ragged signals"):
            load_trace_json(data, SPEC)

    def test_nonpositive_dt(self):
        with pytest.raises(TraceError, match="nonpositive dt"):
            load_trace_json('{"id":"t","dt":0,"signals":{"x":[0,1]}}', SPEC)

    @pytest.mark.parametrize(
        "dt", ["NaN", "Infinity", "-Infinity", pytest.param(HUGE, id="huge_integer")]
    )
    def test_non_finite_dt(self, dt):
        with pytest.raises(TraceError, match="^field 'dt' must be a finite number$"):
            load_trace_json('{"id":"t","dt":%s,"signals":{"x":[0,1,2]}}' % dt, SPEC)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_trace_rejects_non_finite_dt(self, dt):
        x = Series(SignalKind.REAL, np.zeros(3))
        with pytest.raises(TraceError, match="^non-finite dt$"):
            Trace("t", dt, np.arange(3.0), {"x": x})

    def test_enum_and_bool_values(self):
        data = json.dumps(
            {
                "id": "t",
                "dt": 1,
                "signals": {"surface": ["track", "offroad"], "done": [0, True]},
            }
        )
        trace = load_trace_json(data, SPEC)
        assert list(trace.channels["surface"].values) == [0, 1]
        assert list(trace.channels["done"].values) == [False, True]

    def test_unknown_signal(self):
        with pytest.raises(TraceError, match="unknown signal"):
            load_trace_json('{"id":"t","dt":1,"signals":{"vel":[0,1]}}', SPEC)

    def test_invalid_json(self):
        with pytest.raises(TraceError, match="invalid JSON"):
            load_trace_json("{nope", SPEC)

    def test_huge_integer_value_is_a_bad_real(self):
        data = '{"id":"t","dt":1,"signals":{"x":[0,%s,2]}}' % HUGE
        with pytest.raises(TraceError) as err:
            load_trace_json(data, SPEC)
        assert str(err.value) == f"row 2: bad real value {int(HUGE)!r} in 'x'"

    def test_integer_past_digit_limit_is_invalid_json(self):
        data = '{"id":"t","dt":1,"signals":{"x":[0,%s,2]}}' % ("9" * 5000)
        with pytest.raises(TraceError, match="^invalid JSON: Exceeds the limit"):
            load_trace_json(data, SPEC)

    @pytest.mark.parametrize(
        "data, message",
        [
            ('[1, 2]', "top-level JSON value must be an object"),
            ('{"dt":1,"signals":{"x":[0,1]}}', "missing field 'id'"),
            ('{"id":"t","signals":{"x":[0,1]}}', "missing field 'dt'"),
            ('{"id":"t","dt":1}', "missing field 'signals'"),
            ('{"id":7,"dt":1,"signals":{"x":[0,1]}}', "field 'id' must be a string"),
            ('{"id":"t","dt":"1","signals":{"x":[0,1]}}', "field 'dt' must be a number"),
            ('{"id":"t","dt":true,"signals":{"x":[0,1]}}', "field 'dt' must be a number"),
            ('{"id":"t","dt":1,"signals":{}}', "field 'signals' must be a non-empty object"),
            ('{"id":"t","dt":1,"signals":[[0,1]]}', "field 'signals' must be a non-empty object"),
            ('{"id":"t","dt":1,"signals":{"x":"0,1"}}', "signal 'x' must be an array"),
        ],
    )
    def test_document_faults_named_exactly(self, data, message):
        with pytest.raises(TraceError) as err:
            load_trace_json(data, SPEC)
        assert str(err.value) == message

    def test_check_exits_two_on_huge_integer(self, tmp_path, capsys):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: x > 0\n")
        trace = tmp_path / "huge.json"
        trace.write_text('{"id":"t","dt":1,"signals":{"x":[1,%s]}}' % HUGE)
        assert run(["check", str(spec), str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {trace}: row 2: bad real value {int(HUGE)!r} in 'x'\n"

    @pytest.mark.parametrize(
        "data, key",
        [
            ('{"id":"d","dt":1,"signals":{"x":[-1,-1],"x":[1,2]}}', "x"),
            ('{"id":"d","dt":1,"id":"e","signals":{"x":[1,2]}}', "id"),
        ],
        ids=["signal", "field"],
    )
    def test_duplicate_key_rejected(self, data, key):
        with pytest.raises(TraceError) as err:
            load_trace_json(data, SPEC)
        assert str(err.value) == f"duplicate key '{key}'"

    @pytest.mark.parametrize(
        "signals, message",
        [
            ('"x":[1,%d]' % 10**309, f"row 2: bad real value {10**309!r} in 'x'"),
            ('"x":[-1,-1],"x":[1,2]', "duplicate key 'x'"),
        ],
        ids=["overflowing_integer", "duplicate_signal"],
    )
    def test_check_exits_two_on_bad_json(self, tmp_path, capsys, signals, message):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: G[0, inf] (x > 0)\n")
        trace = tmp_path / "d.json"
        trace.write_text('{"id":"d","dt":1,"signals":{%s}}' % signals)
        assert run(["check", str(spec), str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {trace}: {message}\n"


class TestSamplingOverflow:
    """Sampling that overflows a double is named like any other bad
    sampling, without a numpy warning first (warnings are errors here)."""

    CSV = "time,x\n0,1\n1e308,2\n-1e308,3\n"
    JSON = '{"id":"t","dt":1e308,"signals":{"x":[0,1,2]}}'

    def test_csv_times_overflow(self):
        with pytest.raises(TraceError) as err:
            load_trace_csv(self.CSV, SPEC)
        assert str(err.value) == "row 4: times not strictly increasing"

    def test_json_times_overflow(self):
        with pytest.raises(TraceError) as err:
            load_trace_json(self.JSON, SPEC)
        assert str(err.value) == "row 3: non-uniform sampling"

    def test_trace_gaps_overflow(self):
        x = Series(SignalKind.REAL, np.zeros(3))
        with pytest.raises(TraceError, match="^row 3: times not strictly increasing$"):
            Trace("t", 1.0, np.array([0.0, 1e308, -1e308]), {"x": x})
        with pytest.raises(TraceError, match="^row 2: non-uniform sampling$"):
            Trace("t", 5e-324, np.array([0.0, 1.0, 2.0]), {"x": x})

    @pytest.mark.parametrize(
        "name, data, message",
        [
            ("t.csv", CSV, "row 4: times not strictly increasing"),
            ("t.json", JSON, "row 3: non-uniform sampling"),
        ],
        ids=["csv", "json"],
    )
    def test_check_prints_one_line(self, tmp_path, capsys, name, data, message):
        spec = tmp_path / "r.stl"
        spec.write_text("signal x : real\nrule r: x > 0\n")
        trace = tmp_path / name
        trace.write_text(data)
        assert run(["check", str(spec), str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {trace}: {message}\n"


class TestNonFiniteTimes:
    """A NaN time, or two neighbouring times at the same infinity, make a
    NaN gap, which is neither nonpositive nor off dt: the trace is refused
    at the first non-finite time, before anything can write it."""

    @pytest.mark.parametrize(
        "times, row",
        [
            ([0.0, math.nan, 2.0], 2),
            ([math.nan, 1.0, 2.0], 1),
            ([0.0, 1.0, 2.0, math.nan], 4),
            ([math.inf, math.inf], 1),
            ([-math.inf, -math.inf], 1),
        ],
    )
    def test_trace_refuses_the_time(self, times, row):
        x = Series(SignalKind.REAL, np.zeros(len(times)))
        with pytest.raises(TraceError) as err:
            Trace("t", 1.0, np.array(times), {"x": x})
        assert str(err.value) == f"row {row}: non-finite time"


class TestSamplingFaultOrder:
    """When the times fail, the first nonpositive gap is named before any
    non-uniform gap, and the first non-uniform gap before a non-finite
    time, wherever each lies."""

    @pytest.mark.parametrize(
        "times, message",
        [
            ([0.0, 1.0, 3.0, 2.0], "row 4: times not strictly increasing"),
            ([0.0, 1.0, 1.5, 2.5, 2.5], "row 5: times not strictly increasing"),
            ([0.0, 1.0, 3.0, math.nan], "row 3: non-uniform sampling"),
            ([0.0, 1.0, 3.0, 4.0, math.nan], "row 3: non-uniform sampling"),
            ([0.0, 1.0, 3.0, math.inf, math.inf], "row 3: non-uniform sampling"),
            ([0.0, 1.0, math.nan, 0.0], "row 3: non-finite time"),
        ],
    )
    def test_first_check_in_order_names_the_fault(self, times, message):
        x = Series(SignalKind.REAL, np.zeros(len(times)))
        with pytest.raises(TraceError) as err:
            Trace("t", 1.0, np.array(times), {"x": x})
        assert str(err.value) == message

    def test_csv_file_rows(self):
        with pytest.raises(TraceError) as err:
            load_trace_csv("time,x\n0,1\n1,1\n3,1\n2,1\n", SPEC)
        assert str(err.value) == "row 5: times not strictly increasing"


def _signals_json(signals: str) -> str:
    return '{"id":"t","dt":1,"signals":{%s}}' % signals


# values of every JSON type for each signal kind, the awkward ones included
_REALS = [0, -1, 0.25, -0.0, 5e-324, 1.7976931348623157e308, 2**53 + 1, 2**63, -(2**63) - 1,
          2**64 + 1, 10**309, math.nan, math.inf, -math.inf, True, False, None, "1", [1], {"a": 1}]
_BOOLS = [True, False, 0, 1, 1.0, -0.0, 0.0, 2, -1, 0.5, 10**309, math.nan, "true", None, [0], {"b": 1}]
_ENUMS = ["alpha", "beta", "gamma", "delta", "", 0, True, None, ["alpha"], {"alpha": 0}]


def _random_signals(rng: random.Random) -> str:
    n = rng.randrange(1, 7)
    bad = rng.choice((0.0, 0.0, 0.1, 0.4))
    parts = []
    for name in rng.sample("xybm", rng.randrange(1, 5)):
        length = n + (rng.random() < 0.1)
        values = []
        for _ in range(length):
            if name == "b":
                v = rng.choice(_BOOLS) if rng.random() < bad else rng.random() < 0.5
            elif name == "m":
                v = rng.choice(_ENUMS) if rng.random() < bad else rng.choice(("alpha", "beta", "gamma"))
            else:
                v = rng.choice(_REALS) if rng.random() < bad else rng.uniform(-10, 10)
            values.append(json.dumps(v))  # NaN and Infinity too
        parts.append('"%s":[%s]' % (name, ",".join(values)))
    return ",".join(parts)


class TestJsonColumnPass:
    """The column pass and its fault walk give exactly what the per-value
    loop in `reference.pervalue_json` gives: the same arrays, dtype and
    bytes, or the same first fault."""

    def assert_matches_reference(self, signals: str):
        text = _signals_json(signals)
        try:
            want = pervalue_json(text, PALETTE_SPEC)
        except TraceError as expected:
            with pytest.raises(TraceError) as got:
                load_trace_json(text, PALETTE_SPEC)
            assert str(got.value) == str(expected)
            return
        channels = load_trace_json(text, PALETTE_SPEC).channels
        assert list(channels) == list(want)
        for name, values in want.items():
            got = channels[name].values
            assert (got.dtype, got.tobytes()) == (values.dtype, values.tobytes())

    @pytest.mark.parametrize(
        "signals",
        [
            '"x":[9007199254740993,9223372036854775808,-9223372036854775809,18446744073709551617]',
            '"x":[0,%d]' % 10**309,
            '"x":[0,%s]' % HUGE,
            '"x":[-0.0,5e-324,-5e-324,0]',
            '"x":[0,NaN]',
            '"x":[Infinity,0]',
            '"x":[0,-Infinity]',
            '"b":[true,1,1.0,-0.0]',
            '"b":[true,1,1.0,-0.0,2]',
            '"b":[true,"true"]',
            '"b":[false,null]',
            '"m":["alpha",1]',
            '"m":["beta",["alpha"]]',
            '"x":[0,[1]]',
            '"x":[0,{"a":1}]',
            '"x":[0,true]',
            '"x":[0,"bad"],"y":[0,1,2]',
            '"x":[0,1],"y":[0,"bad",2]',
        ],
    )
    def test_pinned_payload(self, signals):
        self.assert_matches_reference(signals)

    def test_random_payloads(self):
        rng = random.Random(12)
        faulty = 0
        for _ in range(600):
            signals = _random_signals(rng)
            try:
                pervalue_json(_signals_json(signals), PALETTE_SPEC)
            except TraceError:
                faulty += 1
            self.assert_matches_reference(signals)
        assert 100 < faulty < 500  # both outcomes are exercised


# What a mutation of a trace CSV inserts, puts in place of a cell, or puts
# around a cell. They leave out `"`, a bare CR, `_`, non-ASCII digits and
# the separators \x1c-\x1f, which the loader reads differently from
# `csv.reader` and `float` (see `reference.csvreader_csv`).
_CSV_INSERTS = [",", "\n", " ", "\t", "\xa0", "\u2003", "\u3000", "\x0b", "\x0c", "\x85",
                "#", "'", "e", "E", ".", "-", "+", "0", "7", "x", "\xb2"]
_CSV_CELLS = ["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400",
              "+1.5e3", "-2E-3", ".5", "5.", "-0", "+0", "0x10", "", "1e", "--1", "1 2",
              "true", "false", "1", "0", "True", "alpha", "beta", "gamma", "delta", "Alpha"]
_CSV_SPACES = [" ", "\t", "\xa0", "\u2003", "\u3000", "\x0b", "\x0c", "\x85"]


def _mutated_csv(rng: random.Random, names: list[str] | None = None,
                 inserts: list[str] = _CSV_INSERTS, replacements: list[str] = _CSV_CELLS) -> str:
    """A random trace of the palette's signals `names` (by default some of
    them, drawn at random), written by `write_columns_csv`, then mutated up
    to three times: `inserts` go anywhere and `replacements` in place of a
    cell."""
    trace = random_trace(rng, dt=rng.choice((1.0, 0.5, 0.25)), max_len=12)
    if names is None:
        names = rng.sample(list(trace.channels), rng.randrange(5))
    text = write_columns_csv(trace.times, {name: trace.channels[name] for name in names})
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        op = rng.randrange(6)
        if op == 0:  # insert a character or token anywhere
            at = rng.randrange(len(text) + 1)
            text = text[:at] + rng.choice(inserts) + text[at:]
            continue
        lines = text.split("\n")
        i = rng.randrange(len(lines))
        cells = lines[i].split(",")
        k = rng.randrange(len(cells))
        if op == 1:
            cells[k] = rng.choice(replacements)
        elif op == 2:  # surrounding whitespace
            cells[k] = rng.choice(_CSV_SPACES) + cells[k] + rng.choice(_CSV_SPACES)
        elif op == 3:  # a sign
            cells[k] = rng.choice("+-") + cells[k]
        elif op == 4:
            cells.append("")  # a trailing comma
        lines[i] = ",".join(cells)
        if op == 5:  # a blank, whitespace-only or repeated line
            lines.insert(i, rng.choice(["", " ", "\xa0", lines[i]]))
        text = "\n".join(lines)
    return text.replace("\n", "\r\n") if rng.random() < 0.25 else text


class TestCsvAgainstCsvReader:
    """The loader gives what `reference.csvreader_csv`, a `csv.reader`
    loader that checks one cell at a time, gives: the same arrays, dtype
    and bytes, or the same first fault."""

    def assert_matches_reference(self, text: str):
        try:
            want = csvreader_csv(text, PALETTE_SPEC)
        except TraceError as expected:
            with pytest.raises(TraceError) as got:
                load_trace_csv(text, PALETTE_SPEC)
            assert str(got.value) == str(expected), text
            return
        trace = load_trace_csv(text, PALETTE_SPEC)
        got = {"time": trace.times, **{name: s.values for name, s in trace.channels.items()}}
        assert list(got) == list(want), text
        for name, values in want.items():
            assert (got[name].dtype, got[name].tobytes()) == (values.dtype, values.tobytes()), text

    @pytest.mark.parametrize(
        "text",
        [
            "time,x,b,m\r\n0,1.5,true,beta\r\n1,-2,0,gamma\r\n",
            "time,x\n0,1\n1,2\n\n\n",
            "time,x\n0,1\n\n1,2\n",
            "time,x\n0,1\n \n1,2\n",
            "time\n0\n\t\n1\n",
            "time,x\n0,1,\n1,2,\n",
            "time,x,\n0,1\n1,2\n",
            "time,x\n+0,-1\n+1,+2\n",
            "time,x\n0,1.5e-3\n1E0,-2.5E+3\n",
            "time,x\n0,-0\n1,1e-400\n",
            "time,x\n0,1\n1,1e400\n",
            "time,x\n0,-nan\n1,2\n",
            "time,x\n0,1\n1,-Infinity\n",
            "time,x,y\n 0 ,\t1\t\n1\xa0,\u20032\u3000\n",
            "time,x\n\xa00 ,1\n1,x\n",  # the walk passes the padded cell
            "time,x\n\x0b0\x0c,\x851\n1,2\n",
            "time,b\n0, true\n1,false\n",
            "time,m\n0,alpha \n1,beta\n",
            "time,x\n0,1\xa02\n1,2\n",
            "time,x\n0,1 2\n1,2\n",
        ],
    )
    def test_pinned_payload(self, text):
        self.assert_matches_reference(text)

    def test_random_payloads(self):
        rng = random.Random(17)
        faulty = 0
        for _ in range(2000):
            text = _mutated_csv(rng)
            try:
                csvreader_csv(text, PALETTE_SPEC)
            except TraceError:
                faulty += 1
            self.assert_matches_reference(text)
        assert 500 < faulty < 1500  # both outcomes are exercised


class TestChunkDecoder:
    """`cli._chunks` parses the CSV files of a chunk together, and gives
    what `load_trace_csv` gives file by file: the same arrays, dtype and
    bytes, or the same traces before the same first faulty file and the
    same error."""

    @staticmethod
    def assert_matches_per_file_loads(spec, paths) -> str:
        """Compare the two, and name the outcome: "clean", "first" (the
        first file is faulty) or "later"."""
        want, error = [], None
        for path in paths:
            try:
                data = path.read_bytes()
                if path.suffix == ".json":
                    want.append(load_trace_json(data, spec))
                else:
                    want.append(load_trace_csv(data, spec, trace_id=path.stem))
            except TraceError as exc:
                error = f"{path}: {exc}"
                break
        got = []
        try:
            for chunk in _chunks(spec, paths):
                got += chunk
        except CliError as exc:
            assert str(exc) == error
        else:
            assert error is None
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g.id, g.dt, list(g.channels)) == (w.id, w.dt, list(w.channels))
            pairs = [(g.times, w.times)] + [
                (g.channels[name].values, s.values) for name, s in w.channels.items()
            ]
            for a, b in pairs:
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())
            for name, s in w.channels.items():
                assert (g.channels[name].kind, g.channels[name].variants) == (s.kind, s.variants)
        return "clean" if error is None else "later" if want else "first"

    @pytest.mark.parametrize("policy", ["pre", "post"])
    def test_preset_fleets(self, tmp_path, policy):
        out = tmp_path / policy
        assert run(["simulate", "--preset", "--policy", policy, "--n", "200", "--seed", "7",
                    "--out", str(out)]) == 0
        paths = sorted(out.glob("*.csv"))
        assert len(paths) == 200
        self.assert_matches_per_file_loads(_load_spec("builtin:turtlebot"), paths)

    def test_random_groups(self, tmp_path):
        rng = random.Random(22)
        outcomes = Counter()
        for g in range(500):
            group = tmp_path / f"g{g:03d}"
            group.mkdir()
            shared = rng.sample("xybm", rng.randrange(5))  # a header several files share
            for i in range(rng.randrange(1, 7)):
                if rng.random() < 0.1:
                    trace = random_trace(rng, max_len=12)
                    (group / f"{i}.json").write_text(write_trace_json(trace))
                    continue
                text = _mutated_csv(rng, shared if rng.random() < 0.6 else None)
                if rng.random() < 0.15:  # bare CR line endings
                    text = text.replace("\r\n", "\n").replace("\n", "\r")
                data = text.encode()
                if rng.random() < 0.15:
                    data = b"\xef\xbb\xbf" + data
                (group / f"{i}.csv").write_bytes(data)
            paths = sorted(group.iterdir())
            outcomes[self.assert_matches_per_file_loads(PALETTE_SPEC, paths)] += 1
        # clean groups, a fault in the first file, and a fault after good files
        assert min(outcomes.values()) > 50, outcomes


class TestCsvBodies:
    """`load_csv_bodies` yields its traces in body order, and a faulty body
    raises what it raises alone, after the traces of the bodies before it."""

    def test_sampling_fault_before_a_bad_cell(self):
        files = ["time,x\n0,1\n1,2\n2,3\n",  # clean
                 "time,x\n0,1\n1,2\n3,3\n",  # non-uniform times
                 "time,x\n0,1\n1,zz\n2,3\n"]  # a bad real cell
        split = [split_trace_csv(text, SPEC) for text in files]
        decls = split[0][0]
        assert all(d == decls for d, _ in split)
        bodies, ids = [body for _, body in split], ["a", "b", "c"]
        with pytest.raises(TraceError) as alone:
            load_trace_csv(files[1], SPEC, trace_id="b")
        assert str(alone.value) == "row 4: non-uniform sampling"
        with pytest.raises(TraceError) as err:
            list(load_csv_bodies(decls, bodies, ids))
        assert str(err.value) == str(alone.value)
        traces = load_csv_bodies(decls, bodies, ids)
        first = next(traces)
        assert first.id == "a"
        assert first.channels["x"].values.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(TraceError) as err:
            next(traces)
        assert str(err.value) == str(alone.value)


# An enum declared out of sorted order, with variants that are prefixes of others.
GEARS = parse_spec("signal gear : enum {reverse, park, drive, d, dr}\n")


def _csvreader_with_nul(text: str) -> dict[str, np.ndarray]:
    """`reference.csvreader_csv` of a text that may hold NULs. `csv.reader`
    refuses a NUL before Python 3.11, so \\x01, which is just as much an
    ordinary, non-space character to every reader, stands in for it."""
    try:
        return csvreader_csv(text.replace("\x00", "\x01"), PALETTE_SPEC)
    except TraceError as exc:
        message = exc.message.replace("\\x01", "\\x00").replace("\x01", "\x00")
        raise TraceError(message, exc.row, exc.column) from None


class TestTextCells:
    """Bool and enum cells are parsed as text fields, which numpy cuts to
    the field's width and strips of trailing NULs. A cell is still valid
    only if it is exactly one of the column's valid cells."""

    @pytest.mark.parametrize(
        "column, cell, message",
        [
            ("done", "true\x00", "bad bool value 'true\\x00'"),
            ("done", "\x00", "bad bool value '\\x00'"),
            ("done", "falsey", "bad bool value 'falsey'"),
            ("done", "offroadx", "bad bool value 'offroadx'"),
            ("done", " true", "bad bool value ' true'"),
            ("done", "true ", "bad bool value 'true '"),
            ("done", "TRUE", "bad bool value 'TRUE'"),
            ("done", "1.0", "bad bool value '1.0'"),
            ("done", "", "bad bool value ''"),
            ("done", "track", "bad bool value 'track'"),
            ("surface", "track\x00", "undeclared variant 'track\\x00'"),
            ("surface", "offroadx", "undeclared variant 'offroadx'"),
            ("surface", "falsey", "undeclared variant 'falsey'"),
            ("surface", " track", "undeclared variant ' track'"),
            ("surface", "track ", "undeclared variant 'track '"),
            ("surface", "TRACK", "undeclared variant 'TRACK'"),
            ("surface", "1.0", "undeclared variant '1.0'"),
            ("surface", "", "undeclared variant ''"),
            ("surface", "true", "undeclared variant 'true'"),
            ("surface", "0", "undeclared variant '0'"),
        ],
    )
    @pytest.mark.parametrize("row", [2, 3])
    def test_bad_cell_named_exactly(self, column, cell, message, row):
        good = {"done": ["false", "1"], "surface": ["track", "offroad"]}[column]
        good[row - 2] = cell
        text = f"time,speed,{column}\n0,1,{good[0]}\n1,2,{good[1]}\n"
        with pytest.raises(TraceError) as err:
            load_trace_csv(text, SPEC)
        assert str(err.value) == f"row {row}, column 3: {message}"

    @pytest.mark.parametrize(
        "cell, message",
        [
            ("driv", "undeclared variant 'driv'"),
            ("drivex", "undeclared variant 'drivex'"),
            ("dri\x00", "undeclared variant 'dri\\x00'"),
            ("d\x00", "undeclared variant 'd\\x00'"),
            ("reversex", "undeclared variant 'reversex'"),
            ("r", "undeclared variant 'r'"),
            ("drivedrive", "undeclared variant 'drivedrive'"),
        ],
    )
    def test_bad_variant_beside_its_prefixes(self, cell, message):
        with pytest.raises(TraceError) as err:
            load_trace_csv(f"time,gear\n0,d\n1,{cell}\n", GEARS)
        assert str(err.value) == f"row 3, column 2: {message}"

    def test_variants_take_their_declaration_index(self):
        cells = ["d", "dr", "drive", "park", "reverse", "drive", "d"]
        text = "time,gear\n" + "".join(f"{i},{c}\n" for i, c in enumerate(cells))
        series = load_trace_csv(text, GEARS).channels["gear"]
        assert series.values.dtype == np.int64
        assert series.values.tolist() == [3, 4, 2, 1, 0, 2, 3]
        assert series.variants == ("reverse", "park", "drive", "d", "dr")

    def test_nul_in_a_later_file_of_a_chunk(self, tmp_path):
        paths = []
        for i, cell in enumerate(["track", "offroad", "track\x00"]):
            paths.append(tmp_path / f"{i}.csv")
            paths[-1].write_text(f"time,surface\n0,track\n1,{cell}\n")
        got = []
        with pytest.raises(CliError) as err:
            for chunk in _chunks(SPEC, paths):
                got += chunk
        assert str(err.value) == f"{paths[2]}: row 3, column 2: undeclared variant 'track\\x00'"
        assert [trace.id for trace in got] == ["0", "1"]

    def test_random_chunks_with_nul(self, tmp_path):
        """Groups of `_mutated_csv` files, NULs among the mutations, give
        through `cli._chunks` what `reference.csvreader_csv` gives file by
        file: the same arrays, or the same traces before the same first
        faulty file and the same error."""
        rng = random.Random(23)
        inserts = [*_CSV_INSERTS, "\x00"]
        replacements = [*_CSV_CELLS, *(cell + "\x00" for cell in _CSV_CELLS)]
        outcomes = Counter()
        for g in range(400):
            group = tmp_path / f"g{g:03d}"
            group.mkdir()
            shared = rng.sample("xybm", rng.randrange(5))
            want, error = [], None
            for i in range(rng.randrange(1, 7)):
                text = _mutated_csv(rng, shared if rng.random() < 0.6 else None,
                                    inserts, replacements)
                path = group / f"{i}.csv"
                path.write_bytes(text.encode())
                if error is None:
                    try:
                        want.append((path.stem, _csvreader_with_nul(text)))
                    except TraceError as exc:
                        error = f"{path}: {exc}"
            got = []
            try:
                for chunk in _chunks(PALETTE_SPEC, sorted(group.iterdir())):
                    got += chunk
            except CliError as exc:
                assert str(exc) == error
            else:
                assert error is None
            assert [trace.id for trace in got] == [trace_id for trace_id, _ in want]
            for trace, (_, columns) in zip(got, want):
                arrays = {"time": trace.times, **{n: s.values for n, s in trace.channels.items()}}
                assert list(arrays) == list(columns)
                for name, values in columns.items():
                    assert (arrays[name].dtype, arrays[name].tobytes()) == (values.dtype, values.tobytes())
            if error is None:
                outcomes["clean"] += 1
            else:
                outcomes["later" if want else "first"] += 1
                # a bool or enum cell that holds a NUL
                outcomes["nul"] += re.search(r"(bool value|variant) '.*\\x00", error) is not None
        # clean groups, faults in the first and in later files, and NUL text cells
        assert min(outcomes["clean"], outcomes["first"], outcomes["later"]) > 30, outcomes
        assert outcomes["nul"] > 5, outcomes


class TestCsvRoundTrip:
    def test_loader_round_trip_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            trace = random_trace(rng, dt=rng.choice((1.0, 0.5)), max_len=20)
            text = write_trace_csv(trace)
            assert text == percell_csv(trace)
            reloaded = load_trace_csv(text, PALETTE_SPEC, trace_id=trace.id)
            assert write_trace_csv(reloaded) == text
            for name in trace.channels:
                np.testing.assert_array_equal(
                    reloaded.channels[name].values, trace.channels[name].values
                )

    def test_every_number_form_matches_percell_writer(self):
        # one sample per format_number branch: negative zero, a repr that
        # needs positional expansion, the largest integral value printed
        # as an int, the first printed through Decimal, and plain integers
        x = np.array([-0.0, 1e-07, 9999999999999998.0, 1e16, 900.0, -3.0, 0.1])
        n = len(x)
        trace = Trace(
            "t",
            0.1,
            np.arange(n) * 0.1,
            {
                "x": Series(SignalKind.REAL, x),
                "b": Series(SignalKind.BOOL, np.array([True, False] * 3 + [True])),
                "m": Series(
                    SignalKind.ENUM,
                    np.array([0, 1, 2, 2, 1, 0, 1], dtype=np.int64),
                    ("alpha", "beta", "gamma"),
                ),
            },
        )
        text = write_trace_csv(trace)
        assert text == percell_csv(trace)
        assert [line.split(",")[1] for line in text.splitlines()[1:]] == [
            "0",
            "0.0000001",
            "9999999999999998",
            "10000000000000000",
            "900",
            "-3",
            "0.1",
        ]
        assert text.splitlines()[1:3] == ["0,0,true,alpha", "0.1,0.0000001,false,beta"]
        reloaded = load_trace_csv(text, PALETTE_SPEC)
        assert reloaded.times.tobytes() == trace.times.tobytes()
        # the written "0" reads back as +0.0; every other value is bit-identical
        assert reloaded.channels["x"].values.tobytes() == (x + 0.0).tobytes()
        for name in ("b", "m"):
            got, want = reloaded.channels[name].values, trace.channels[name].values
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert write_trace_csv(reloaded) == text

    def test_column_formatter_matches_format_number(self):
        # the writer formats a real column at a time; each cell must be what
        # format_number makes of it, over every magnitude and branch
        rng = np.random.default_rng(11)
        magnitudes = 10.0 ** rng.uniform(-30, 30, 4000)
        values = magnitudes * rng.choice((-1.0, 1.0), magnitudes.size)
        values[::7] = np.round(values[::7])  # integral cells among the others
        edges = [-0.0, 0.0, 5e-324, -5e-324, 1e-4, np.nextafter(1e-4, 0.0),
                 np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, 2e16), -1e16,
                 2.0**53 + 2, 1e15 + 0.5, 1.7976931348623157e308, -1.7976931348623157e308]
        values = np.concatenate([edges, values])
        text = write_columns_csv(np.arange(values.size, dtype=np.float64),
                                 {"x": Series(SignalKind.REAL, values)})
        cells = [line.split(",")[1] for line in text.splitlines()[1:]]
        assert cells == list(map(format_number, values.tolist()))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_column_formatter_raises_format_number_error(self, bad):
        values = np.array([1.5, bad, 2.0, math.nan])
        with pytest.raises(ValueError) as caught:
            write_columns_csv(np.arange(4.0), {"x": Series(SignalKind.REAL, values)})
        with pytest.raises(ValueError) as expected:
            format_number(bad)
        assert str(caught.value) == str(expected.value)


class TestEvalExpr:
    def test_deriv_backward_difference(self):
        trace = load_trace_json('{"id":"t","dt":0.5,"signals":{"phi":[0,0.1,0.3]}}', SPEC)
        values = eval_expr(Deriv("phi"), trace)
        np.testing.assert_allclose(values, [0.0, 0.2, 0.4], rtol=0, atol=1e-15)
        assert values[0] == 0.0

    def test_abs_constant(self):
        trace = load_trace_csv("time,speed\n0,1\n1,2\n", SPEC)
        assert list(eval_expr(Abs(Constant(-3)), trace)) == [3.0, 3.0]

    def test_division_by_zero_names_sample(self):
        trace = load_trace_json('{"id":"t","dt":1,"signals":{"x":[1,2,3],"y":[1,0,2]}}', SPEC)
        with pytest.raises(EvalError, match="division by zero at sample 1"):
            eval_expr(Div(SignalRef("x"), SignalRef("y")), trace)

    def test_constant_is_constant_for_any_length(self):
        rng = random.Random(4)
        for _ in range(10):
            trace = random_trace(rng, max_len=30)
            values = eval_expr(Constant(2.5), trace)
            assert len(values) == len(trace)
            assert set(values) == {2.5}

    def test_matches_pointwise_reference(self):
        rng = random.Random(5)
        for _ in range(200):
            trace = random_trace(rng, dt=rng.choice((1.0, 0.5, 0.25)), max_len=20)
            expr = random_expr(rng, max_depth=3)
            values = eval_expr(expr, trace)
            for i in range(len(trace)):
                assert values[i] == expr_at(expr, trace, i)

    def test_deriv_locality(self):
        # perturbing sample j only changes Deriv outputs at j and j+1
        rng = random.Random(6)
        trace = random_trace(rng, max_len=20, min_len=10)
        base = eval_expr(Deriv("x"), trace)
        j = 4
        values = trace.channels["x"].values.copy()
        values[j] += 1.0
        import stlmon

        bumped = stlmon.Trace(
            "t",
            trace.dt,
            trace.times.copy(),
            {**trace.channels, "x": stlmon.Series(trace.channels["x"].kind, values)},
        )
        changed = eval_expr(Deriv("x"), bumped)
        diff = np.nonzero(changed != base)[0]
        assert set(diff) <= {j, j + 1}

    def test_non_real_signal_rejected(self):
        trace = load_trace_json('{"id":"t","dt":1,"signals":{"done":[0,1]}}', SPEC)
        with pytest.raises(EvalError, match="not real-valued"):
            eval_expr(SignalRef("done"), trace)

    def test_missing_signal_rejected(self):
        trace = load_trace_csv("time,speed\n0,1\n1,2\n", SPEC)
        with pytest.raises(EvalError, match="missing from trace"):
            eval_expr(SignalRef("phi"), trace)


class TestJsonRoundTrip:
    def test_writer_round_trips_through_loader(self):
        rng = random.Random(8)
        from stlmon import write_trace_json

        for _ in range(30):
            trace = random_trace(rng, dt=rng.choice((1.0, 0.5, 0.1)), max_len=15)
            text = write_trace_json(trace)
            reloaded = load_trace_json(text, PALETTE_SPEC)
            assert reloaded.id == trace.id
            assert reloaded.dt == trace.dt
            for name in trace.channels:
                np.testing.assert_array_equal(
                    reloaded.channels[name].values, trace.channels[name].values
                )
            assert write_trace_json(reloaded) == text
