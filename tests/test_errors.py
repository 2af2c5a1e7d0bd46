"""The evaluation error contract and the boolean monitor's strictness at
the edges of IEEE arithmetic."""

import math

import numpy as np
import pytest

from stlmon import (
    Atom,
    CmpOp,
    Compare,
    Constant,
    Div,
    EnumEq,
    EvalError,
    Globally,
    Interval,
    Mul,
    Not,
    Series,
    SignalKind,
    SignalRef,
    Trace,
    boolean_monitor,
    robustness,
    robustness_profile,
)
from reference import naive_bool, naive_rho


def trace_of(dt=1.0, **channels):
    n = len(next(iter(channels.values())))
    return Trace("t", dt, np.arange(n) * dt, channels)


def real(*values):
    return Series(SignalKind.REAL, np.array(values, dtype=np.float64))


def cmp(lhs, op, rhs):
    return Atom(Compare(lhs, op, rhs))


X = SignalRef("x")
ZERO = Constant(0)
TINY = 5e-324  # the smallest subnormal
BIG = 1e308  # BIG - (-BIG) and 10 * BIG overflow to inf

# fault -> (formula, trace, unprefixed message)
FAULTS = {
    "missing_signal": (
        cmp(SignalRef("z"), CmpOp.GT, ZERO),
        trace_of(x=real(1, 2)),
        "signal 'z' missing from trace 't'",
    ),
    "wrong_kind": (
        cmp(SignalRef("done"), CmpOp.GT, ZERO),
        trace_of(done=Series(SignalKind.BOOL, np.array([True, False]))),
        "signal 'done' is bool-valued, not real-valued",
    ),
    "missing_variant": (
        Atom(EnumEq("mode", "c")),
        trace_of(mode=Series(SignalKind.ENUM, np.array([0, 1]), ("a", "b"))),
        "variant 'c' not in trace channel 'mode'",
    ),
    "unaligned_interval": (
        Globally(Interval(0.0, 0.25), cmp(X, CmpOp.GT, ZERO)),
        trace_of(dt=0.1, x=real(1, 2, 3)),
        "interval bound 0.25 is not a whole number of samples at dt=0.1",
    ),
    "division_by_zero": (
        cmp(Div(X, SignalRef("y")), CmpOp.GT, ZERO),
        trace_of(x=real(1, 2, 3), y=real(1, 0, 2)),
        "division by zero at sample 1",
    ),
    "operand_overflow": (
        cmp(Mul(X, Constant(10)), CmpOp.GT, ZERO),
        trace_of(x=real(1, BIG)),
        "non-finite result at sample 1",
    ),
    # y = -x, so each margin is +-2 * BIG, which overflows
    **{
        f"margin_overflow_{op.name.lower()}": (
            cmp(X, op, SignalRef("y")),
            trace_of(x=real(x, x), y=real(-x, -x)),
            "non-finite result at sample 0",
        )
        for x, op in [(BIG, CmpOp.GT), (BIG, CmpOp.LT), (-BIG, CmpOp.GE), (-BIG, CmpOp.LE)]
    },
}

READOUTS = {
    "robustness": robustness,
    "boolean_monitor": boolean_monitor,
    "robustness_profile": robustness_profile,
}


class TestErrorContract:
    @pytest.mark.parametrize("readout", READOUTS)
    @pytest.mark.parametrize("fault", FAULTS)
    def test_message_names_rule_once(self, fault, readout):
        f, trace, message = FAULTS[fault]
        with pytest.raises(EvalError) as err:
            READOUTS[readout](f, trace, rule_name="r")
        assert str(err.value) == f"rule 'r': {message}"

    @pytest.mark.parametrize("readout", READOUTS)
    def test_first_fault_in_evaluation_order(self, readout):
        f = cmp(SignalRef("z"), CmpOp.GT, SignalRef("y"))
        with pytest.raises(EvalError) as err:
            READOUTS[readout](f, trace_of(x=real(1, 2)), rule_name="r")
        assert str(err.value) == "rule 'r': signal 'z' missing from trace 't'"


# (x, op, y, boolean verdict, robustness)
EDGES = [
    (TINY, CmpOp.GT, 0.0, True, TINY),
    (0.0, CmpOp.GT, TINY, False, -TINY),
    (-TINY, CmpOp.LT, 0.0, True, TINY),
    (TINY, CmpOp.LE, 0.0, False, -TINY),
    (-TINY, CmpOp.GE, TINY, False, -2 * TINY),
    (0.0, CmpOp.LT, 0.0, False, 0.0),
    (0.0, CmpOp.LE, 0.0, True, 0.0),
    (0.0, CmpOp.GT, 0.0, False, 0.0),
    (0.0, CmpOp.GE, 0.0, True, 0.0),
]


class TestMarginEdges:
    @pytest.mark.parametrize("x, op, y, holds, rho", EDGES)
    def test_boolean_and_robustness(self, x, op, y, holds, rho):
        f = cmp(X, op, SignalRef("y"))
        trace = trace_of(x=real(x, x), y=real(y, y))
        assert boolean_monitor(f, trace) is holds == naive_bool(f, trace)
        assert robustness(f, trace).rho == rho == naive_rho(f, trace)

    def test_exact_zero_published_as_positive_zero(self):
        f = Not(cmp(X, CmpOp.GT, ZERO))
        result = robustness(f, trace_of(x=real(0, 0)))
        assert result.rho == 0.0
        assert math.copysign(1.0, result.rho) == 1.0
