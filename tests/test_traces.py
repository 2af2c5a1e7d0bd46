"""Trace loading, serialization round-trip, and expression evaluation."""

import json
import random

import numpy as np
import pytest

from stlmon import (
    Abs,
    Constant,
    Deriv,
    Div,
    EvalError,
    SignalRef,
    TraceError,
    eval_expr,
    load_trace_csv,
    load_trace_json,
    parse_spec,
    write_trace_csv,
)
from reference import PALETTE_SPEC, expr_at, random_expr, random_trace

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


class TestCsvLoader:
    def test_basic_load(self):
        trace = load_trace_csv("time,speed\n0,850\n1,870\n2,860\n", SPEC)
        assert len(trace) == 3
        assert trace.dt == 1.0
        assert list(trace.channels["speed"].values) == [850.0, 870.0, 860.0]

    def test_enum_and_bool_cells(self):
        trace = load_trace_csv(
            "time,surface,done\n0,track,false\n1,offroad,1\n2,track,true\n", SPEC
        )
        assert list(trace.channels["surface"].values) == [0, 1, 0]
        assert list(trace.channels["done"].values) == [False, True, True]

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

    def test_bad_bool_cell(self):
        with pytest.raises(TraceError, match="bad bool value"):
            load_trace_csv("time,done\n0,yes\n1,no\n", SPEC)


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


class TestCsvRoundTrip:
    def test_loader_round_trip_exact(self):
        rng = random.Random(3)
        for _ in range(50):
            trace = random_trace(rng, dt=rng.choice((1.0, 0.5)), max_len=20)
            text = write_trace_csv(trace)
            reloaded = load_trace_csv(text, PALETTE_SPEC, trace_id=trace.id)
            assert write_trace_csv(reloaded) == text
            for name in trace.channels:
                np.testing.assert_array_equal(
                    reloaded.channels[name].values, trace.channels[name].values
                )


class TestEvalExpr:
    def test_deriv_backward_difference(self):
        trace = load_trace_json('{"id":"t","dt":0.5,"signals":{"phi":[0,0.1,0.3]}}', SPEC)
        values = eval_expr(Deriv("phi"), trace).values
        np.testing.assert_allclose(values, [0.0, 0.2, 0.4], rtol=0, atol=1e-15)
        assert values[0] == 0.0

    def test_abs_constant(self):
        trace = load_trace_csv("time,speed\n0,1\n1,2\n", SPEC)
        assert list(eval_expr(Abs(Constant(-3)), trace).values) == [3.0, 3.0]

    def test_division_by_zero_names_sample(self):
        trace = load_trace_json('{"id":"t","dt":1,"signals":{"x":[1,2,3],"y":[1,0,2]}}', SPEC)
        with pytest.raises(EvalError, match="division by zero at sample 1"):
            eval_expr(Div(SignalRef("x"), SignalRef("y")), trace)

    def test_constant_is_constant_for_any_length(self):
        rng = random.Random(4)
        for _ in range(10):
            trace = random_trace(rng, max_len=30)
            values = eval_expr(Constant(2.5), trace).values
            assert len(values) == len(trace)
            assert set(values) == {2.5}

    def test_matches_pointwise_reference(self):
        rng = random.Random(5)
        for _ in range(200):
            trace = random_trace(rng, dt=rng.choice((1.0, 0.5, 0.25)), max_len=20)
            expr = random_expr(rng, max_depth=3)
            values = eval_expr(expr, trace).values
            for i in range(len(trace)):
                assert values[i] == expr_at(expr, trace, i)

    def test_deriv_locality(self):
        # perturbing sample j only changes Deriv outputs at j and j+1
        rng = random.Random(6)
        trace = random_trace(rng, max_len=20, min_len=10)
        base = eval_expr(Deriv("x"), trace).values
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
        changed = eval_expr(Deriv("x"), bumped).values
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
