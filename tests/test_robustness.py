"""Engine semantics: spec'd examples, oracle equivalence, dualities,
soundness against the boolean monitor, and the windowed-extremum kernel."""

import json
import random
import time
import tracemalloc

import numpy as np
import pytest

from stlmon import (
    And,
    Atom,
    CmpOp,
    Compare,
    Constant,
    EvalError,
    Eventually,
    Globally,
    Interval,
    Mul,
    Not,
    Or,
    Rule,
    Series,
    SignalKind,
    SignalRef,
    Specification,
    Trace,
    UNBOUNDED,
    Until,
    Verdict,
    boolean_monitor,
    evaluate_specification,
    load_trace_csv,
    load_trace_json,
    parse_spec,
    profile_specification,
    robustness,
    robustness_profile,
    windowed_extremum,
)
from stlmon.robustness import _Plan, _blocks, _shifted_window, _until_series
from reference import (
    PALETTE,
    deque_windowed,
    naive_bool,
    naive_rho,
    naive_until,
    naive_windowed,
    random_formula,
    random_pair,
    random_trace,
)

SPEC = parse_spec("signal speed : real\nsignal x : real\nsignal a : real\nsignal b : real\n")


def trace_of(**signals):
    n = len(next(iter(signals.values())))
    payload = {"id": "t", "dt": 1, "signals": signals}
    import json

    return load_trace_json(json.dumps(payload), SPEC)


def x_gt(c):
    return Atom(Compare(SignalRef("x"), CmpOp.GT, Constant(c)))


class TestSpecExamples:
    def test_globally_speed_limit(self):
        trace = trace_of(speed=[850, 870, 860])
        f = Globally(Interval(0, UNBOUNDED), Atom(Compare(SignalRef("speed"), CmpOp.LT, Constant(900))))
        r = robustness(f, trace)
        assert r.rho == 30.0
        assert r.verdict is Verdict.SATISFIED

    def test_eventually_violated(self):
        trace = trace_of(x=[-1, -2, -3])
        f = Eventually(Interval(0, 2), x_gt(0))
        r = robustness(f, trace)
        assert r.rho == -1.0
        assert r.verdict is Verdict.VIOLATED

    def test_negation(self):
        trace = trace_of(x=[-1, -2, -3])
        r = robustness(Not(x_gt(0)), trace)
        assert r.rho == 1.0
        assert r.verdict is Verdict.SATISFIED

    def test_until_expansion_example(self):
        trace = trace_of(a=[1, 1, -1], b=[-1, 2, 3])
        f = Until(
            Interval(0, 2),
            Atom(Compare(SignalRef("a"), CmpOp.GT, Constant(0))),
            Atom(Compare(SignalRef("b"), CmpOp.GT, Constant(0))),
        )
        assert robustness(f, trace).rho == 1.0

    def test_exactly_satisfied_verdict(self):
        trace = trace_of(x=[0, 0])
        r = robustness(Globally(Interval(0, UNBOUNDED), Atom(Compare(SignalRef("x"), CmpOp.GE, Constant(0)))), trace)
        assert r.rho == 0.0
        assert r.verdict is Verdict.EXACTLY_SATISFIED


class TestProfile:
    def test_atom_series_pointwise(self):
        trace = trace_of(speed=[850, 950, 860])
        f = Atom(Compare(SignalRef("speed"), CmpOp.LT, Constant(900)))
        profile = robustness_profile(f, trace)
        assert list(profile.root) == [50.0, -50.0, 40.0]

    def test_zero_width_window_is_identity(self):
        trace = trace_of(x=[1, -2, 3, -4])
        atom_series = robustness_profile(x_gt(0), trace).root
        g_series = robustness_profile(Globally(Interval(0, 0), x_gt(0)), trace).root
        np.testing.assert_array_equal(atom_series, g_series)

    def test_root_matches_robustness(self):
        rng = random.Random(11)
        for _ in range(100):
            f, trace = random_pair(rng, max_depth=3, max_len=20)
            profile = robustness_profile(f, trace)
            assert profile.root[0] == robustness(f, trace).rho

    def test_every_node_has_full_series(self):
        trace = trace_of(x=[1, 2, 3, 4])
        f = And(Globally(Interval(0, 2), x_gt(0)), Not(x_gt(5)))
        profile = robustness_profile(f, trace)
        assert set(profile.series) == {
            "root", "root.lhs", "root.lhs.child", "root.rhs", "root.rhs.child",
        }
        assert all(len(s) == 4 for s in profile.series.values())


class TestBooleanMonitor:
    def test_strictness_respected_at_boundary(self):
        trace = trace_of(speed=[850, 900])
        strict = parse_spec("signal speed : real\nrule r: G[0, inf] (speed < 900)\n")
        non_strict = parse_spec("signal speed : real\nrule r: G[0, inf] (speed <= 900)\n")
        assert boolean_monitor(strict.rules[0].formula, trace) is False
        assert boolean_monitor(non_strict.rules[0].formula, trace) is True

    def test_satisfied_case(self):
        trace = trace_of(speed=[850, 870])
        f = parse_spec("signal speed : real\nrule r: G[0, inf] (speed < 900)\n").rules[0].formula
        assert boolean_monitor(f, trace) is True

    def test_eventually_all_false(self):
        spec = parse_spec("signal goal_reached : bool\nrule r: F[0, 800] (goal_reached)\n")
        trace = load_trace_csv("time,goal_reached\n0,false\n1,false\n2,false\n", spec)
        assert boolean_monitor(spec.rules[0].formula, trace) is False

    def test_matches_naive_boolean_semantics(self):
        rng = random.Random(12)
        for _ in range(300):
            f, trace = random_pair(rng, max_depth=4, max_len=25)
            assert boolean_monitor(f, trace) == naive_bool(f, trace)


class TestWindowedExtremum:
    def test_spec_examples(self):
        assert list(windowed_extremum([3, 1, 2], 1, "min")) == [1, 1, 2]
        assert list(windowed_extremum([3, 1, 2], 0, "max")) == [3, 1, 2]
        assert list(windowed_extremum([5], 10, "min")) == [5]

    def test_matches_both_references_randomly(self):
        rng = random.Random(13)
        for _ in range(300):
            n = rng.randrange(1, 60)
            width = rng.randrange(0, 70)
            series = [rng.uniform(-100, 100) for _ in range(n)]
            mode = rng.choice(("min", "max"))
            ours = list(windowed_extremum(series, width, mode))
            assert ours == naive_windowed(series, width, mode)
            assert ours == deque_windowed(series, width, mode)

    @staticmethod
    def _edge_widths(n):
        """0, 2^k-1, 2^k and 2^k+1 below n, n-2, n-1 and past n."""
        powers = [p for k in range(n.bit_length() + 1) for p in (2**k - 1, 2**k, 2**k + 1)]
        return sorted({w for w in [0, *powers, n - 2, n - 1, n, n + 3] if w >= 0})

    def test_blocks_row_by_row_with_ties_and_edge_widths(self):
        # Ties among 0.0, -0.0 and small integers; only values are compared,
        # so the sign a tied zero keeps may differ from the scan's.
        rng = random.Random(131)
        for _ in range(120):
            n = rng.randrange(1, 70)
            rows = rng.randrange(1, 5)
            if rng.random() < 0.5:
                block = [[rng.choice((0.0, -0.0, 1.0, -1.0, 2.0, -2.0)) for _ in range(n)]
                         for _ in range(rows)]
            else:
                block = [[rng.uniform(-10, 10) for _ in range(n)] for _ in range(rows)]
            for width in self._edge_widths(n):
                for mode in ("min", "max"):
                    ours = windowed_extremum(np.array(block), width, mode)
                    assert ours.shape == (rows, n)
                    for got, row in zip(ours, block):
                        assert np.array_equal(got, naive_windowed(row, width, mode)), (width, mode)

    def test_long_row_against_deque(self):
        rng = np.random.default_rng(132)
        series = rng.integers(-50, 50, 200_000).astype(np.float64)
        for width, mode in ((5, "min"), (1023, "max"), (4096, "min"), (150_001, "max")):
            want = deque_windowed(series.tolist(), width, mode)
            assert np.array_equal(windowed_extremum(series, width, mode), want), (width, mode)

    def test_input_is_not_modified(self):
        series = np.array([3.0, 1.0, 2.0, 0.0])
        series.flags.writeable = False
        assert list(windowed_extremum(series, 2, "min")) == [1.0, 0.0, 0.0, 0.0]
        assert list(series) == [3.0, 1.0, 2.0, 0.0]

    @pytest.mark.parametrize("width", [800, 500_000])
    def test_peak_memory_of_a_long_series(self, width):
        # One call on 1e6 samples works in place on one copy of the series:
        # its traced peak stays below 3 series of doubles (ROADMAP item 7).
        n = 1_000_000
        series = np.random.default_rng(133).standard_normal(n)
        tracemalloc.start()
        try:
            windowed_extremum(series, width, "max")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * n, peak / (8 * n)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            windowed_extremum([], 1, "min")
        with pytest.raises(ValueError):
            windowed_extremum([1.0], -1, "min")
        with pytest.raises(ValueError):
            windowed_extremum([1.0], 1, "median")


class TestOracleEquivalence:
    def test_exact_agreement_with_direct_definition(self):
        rng = random.Random(14)
        for i in range(400):
            f, trace = random_pair(rng, max_depth=4, max_len=50)
            assert robustness(f, trace).rho == naive_rho(f, trace), f"case {i}"

    def test_until_against_expansion_on_short_traces(self):
        rng = random.Random(15)
        for _ in range(300):
            trace = random_trace(rng, max_len=10)
            lo = rng.randrange(0, 4)
            f = Until(
                Interval(lo, lo + rng.randrange(0, 6)),
                random_formula(rng, 1),
                random_formula(rng, 1),
            )
            assert robustness(f, trace).rho == naive_rho(f, trace)


class TestDualities:
    def test_negation_duality(self):
        rng = random.Random(16)
        for _ in range(300):
            f, trace = random_pair(rng, max_depth=3, max_len=25)
            assert robustness(Not(f), trace).rho == -robustness(f, trace).rho

    def test_globally_eventually_duality(self):
        rng = random.Random(17)
        for _ in range(300):
            f, trace = random_pair(rng, max_depth=2, max_len=25)
            iv = Interval(
                float(rng.randrange(0, 4)),
                UNBOUNDED if rng.random() < 0.3 else float(rng.randrange(4, 10)),
            )
            lhs = robustness(Globally(iv, f), trace).rho
            rhs = -robustness(Eventually(iv, Not(f)), trace).rho
            assert lhs == rhs


class TestSoundness:
    def test_sign_agrees_with_boolean_monitor(self):
        rng = random.Random(18)
        checked = 0
        for _ in range(500):
            f, trace = random_pair(rng, max_depth=4, max_len=30)
            rho = robustness(f, trace).rho
            if abs(rho) <= 1e-9:
                continue
            checked += 1
            assert (rho > 0) == boolean_monitor(f, trace)
        assert checked > 400  # ties are rare with continuous data


class TestAtomMonotonicity:
    def test_raising_threshold_raises_rho_boundedly(self):
        # ρ responds to the threshold of a positively-occurring atom with
        # slope in [0, 1]: +δ on c raises ρ by at most δ, never lowers it.
        rng = random.Random(19)
        for _ in range(200):
            trace = random_trace(rng, max_len=25)
            delta = rng.uniform(0.01, 5.0)

            def build(c):
                f = Atom(Compare(SignalRef("x"), CmpOp.LT, Constant(c)))
                layers = rng.randrange(0, 4)
                state = rng.getstate()
                for _ in range(layers):
                    kind = rng.randrange(4)
                    other = random_formula(rng, 1)
                    if kind == 0:
                        f = And(f, other)
                    elif kind == 1:
                        f = Or(other, f)
                    elif kind == 2:
                        f = Globally(Interval(0, float(rng.randrange(0, 8))), f)
                    else:
                        f = Eventually(Interval(0, float(rng.randrange(0, 8))), f)
                return f, state

            c = rng.uniform(-5, 5)
            state_before = rng.getstate()
            low, _ = build(c)
            rng.setstate(state_before)
            high, _ = build(c + delta)
            rho_low = robustness(low, trace).rho
            rho_high = robustness(high, trace).rho
            assert rho_low <= rho_high <= rho_low + delta + 1e-12


class TestIntervalConversion:
    def test_non_sample_aligned_bound_is_hard_error(self):
        trace = load_trace_json('{"id":"t","dt":0.1,"signals":{"x":[0,1,2]}}', SPEC)
        f = Globally(Interval(0.0, 0.25), x_gt(0))  # 2.5 samples at dt=0.1
        with pytest.raises(EvalError, match="not a whole number of samples"):
            robustness(f, trace)

    def test_aligned_bounds_accepted(self):
        trace = load_trace_json('{"id":"t","dt":0.1,"signals":{"x":[1,2,3]}}', SPEC)
        f = Globally(Interval(0.0, 0.2), x_gt(0))
        assert robustness(f, trace).rho == 1.0

    def test_missing_signal_names_rule_and_signal(self):
        trace = trace_of(x=[1, 2])
        f = Globally(Interval(0, UNBOUNDED), Atom(Compare(SignalRef("speed"), CmpOp.LT, Constant(1))))
        with pytest.raises(EvalError, match="missing from trace"):
            robustness(f, trace, rule_name="speed_limit")
        with pytest.raises(EvalError, match="speed_limit"):
            robustness(f, trace, rule_name="speed_limit")

    def test_bool_atom_missing_channel(self):
        trace = trace_of(x=[1, 2])
        spec = parse_spec("signal ok : bool\nrule guard: G[0, inf] (ok)\n")
        with pytest.raises(EvalError, match="guard.*'ok' missing"):
            robustness(spec.rules[0].formula, trace, rule_name="guard")


class TestSpecificationFaults:
    """`evaluate_specification` names the first faulty trace in argument
    order, and in it the first faulty rule in evaluation order."""

    SPEC = parse_spec("signal x : real\nsignal y : real\n"
                      "rule r1: G[0, inf] (y > 0)\nrule r2: x > 0\n")

    def trace(self, trace_id, dt, **signals):
        return load_trace_json(
            json.dumps({"id": trace_id, "dt": dt, "signals": signals}), self.SPEC
        )

    def test_first_faulty_trace_over_mixed_dt(self):
        traces = [
            self.trace("t0", 1, x=[1, 2], y=[1, 2]),
            self.trace("t1", 0.5, y=[1, 2]),  # r2 faults: no x
            self.trace("t2", 1, x=[1, 2]),  # r1 faults, in the block evaluated first
        ]
        with pytest.raises(EvalError) as exc:
            evaluate_specification(self.SPEC, *traces)
        assert str(exc.value) == "trace 't1': rule 'r2': signal 'x' missing from trace 't1'"

    def test_one_trace_carries_the_prefix(self):
        with pytest.raises(EvalError) as exc:
            evaluate_specification(self.SPEC, self.trace("t2", 1, x=[1, 2]))
        assert str(exc.value) == "trace 't2': rule 'r1': signal 'y' missing from trace 't2'"


class TestTruncation:
    def test_overhanging_window_clips(self):
        trace = trace_of(x=[5, 1, 3])
        f = Globally(Interval(0, 100), x_gt(0))  # window far past the end
        assert robustness(f, trace).rho == 1.0

    def test_empty_window_degenerates_to_last_sample(self):
        trace = trace_of(x=[5, 1, 3])
        profile = robustness_profile(Eventually(Interval(10, 12), x_gt(0)), trace)
        # every start is past the end, so each entry is the last sample's value
        assert list(profile.root) == [3.0, 3.0, 3.0]

    def test_unbounded_globally_is_suffix_min(self):
        trace = trace_of(x=[5, 1, 3])
        profile = robustness_profile(Globally(Interval(0, UNBOUNDED), x_gt(0)), trace)
        assert list(profile.root) == [1.0, 1.0, 3.0]


class TestHugeBounds:
    """Offsets past the end are clamped to the trace length, which is exact
    under truncation, so no bound is too large to evaluate."""

    BIG = float(2**63)

    @pytest.mark.parametrize(
        "formula",
        [
            Globally(Interval(0, 2 * BIG), x_gt(2)),
            Globally(Interval(BIG, 2 * BIG), x_gt(2)),
            Globally(Interval(BIG, UNBOUNDED), x_gt(2)),
            Eventually(Interval(BIG, 2 * BIG), x_gt(2)),
            Eventually(Interval(0, BIG), x_gt(2)),
            Until(Interval(BIG, 2 * BIG), x_gt(0), x_gt(4)),
            Until(Interval(0, BIG), x_gt(2), x_gt(4)),
            Until(Interval(BIG, UNBOUNDED), x_gt(0), x_gt(2)),
        ],
    )
    def test_bounds_past_int64_match_the_oracle(self, formula):
        trace = trace_of(x=[5, 1, 3, 6, 2])
        assert robustness(formula, trace).rho == naive_rho(formula, trace)
        assert boolean_monitor(formula, trace) == naive_bool(formula, trace)
        memo = {}
        want = [naive_rho(formula, trace, t, memo) for t in range(len(trace))]
        assert robustness_profile(formula, trace).root.tolist() == want

    @pytest.mark.parametrize("op", [Globally, Eventually, Until])
    def test_bound_over_dt_overflowing_reads_the_final_sample(self, op):
        huge = float("1" + "0" * 307)  # huge / 0.01 is inf
        payload = '{"id": "t", "dt": 0.01, "signals": {"x": [5, 1, 3], "a": [9, 9, 9]}}'
        trace = load_trace_json(payload, SPEC)
        window, child = Interval(huge, UNBOUNDED), x_gt(1)
        a_positive = Atom(Compare(SignalRef("a"), CmpOp.GT, Constant(0)))
        f = Until(window, a_positive, child) if op is Until else op(window, child)
        assert robustness(f, trace).rho == 2.0
        assert boolean_monitor(f, trace) is True
        assert robustness_profile(f, trace).root.tolist() == [2.0, 2.0, 2.0]


class TestUnboundedWindow:
    @pytest.mark.parametrize("op", [Globally, Eventually])
    def test_matches_oracles_for_any_lower_bound(self, op):
        # lo ranges past the trace end, where every window is the last sample
        rng = random.Random(38 if op is Globally else 39)
        for _ in range(150):
            trace = random_trace(rng, max_len=20)
            lo = rng.randrange(0, len(trace) + 4)
            f = op(Interval(float(lo), UNBOUNDED), random_formula(rng, 2))
            assert robustness(f, trace).rho == naive_rho(f, trace)
            assert boolean_monitor(f, trace) == naive_bool(f, trace)
            root = robustness_profile(f, trace).root
            memo = {}
            assert root.tolist() == [naive_rho(f, trace, t, memo) for t in range(len(trace))]

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_suffix_sweep_equals_full_width_window(self, mode):
        rng = np.random.default_rng(40)
        for _ in range(50):
            n = int(rng.integers(2, 300))
            child = rng.integers(-3, 4, size=n).astype(np.float64)
            lo = int(rng.integers(0, n + 3))
            want = windowed_extremum(child, n - 1, mode)[np.minimum(np.arange(n) + lo, n - 1)]
            assert np.array_equal(_shifted_window(child, lo, None, mode), want)


class TestUnboundedUntil:
    def test_engine_matches_reference_on_unbounded_until(self):
        # the parser accepts U[lo, inf], and the engine must apply the
        # same truncation rule to it as to bounded windows
        rng = random.Random(31)
        for _ in range(100):
            trace = random_trace(rng, max_len=12)
            f = Until(
                Interval(float(rng.randrange(0, 3)), UNBOUNDED),
                random_formula(rng, 1),
                random_formula(rng, 1),
            )
            assert robustness(f, trace).rho == naive_rho(f, trace)


def assert_until_matches_oracles(f, trace):
    assert robustness(f, trace).rho == naive_rho(f, trace)
    assert boolean_monitor(f, trace) == naive_bool(f, trace)
    root = robustness_profile(f, trace).root
    memo = {}
    assert [float(v) for v in root] == [naive_rho(f, trace, t, memo) for t in range(len(trace))]


class TestLinearUntil:
    def random_until(self, rng, lo, hi):
        return Until(Interval(float(lo), hi), random_formula(rng, 1), random_formula(rng, 1))

    def test_matches_oracles_on_random_windows(self):
        rng = random.Random(32)
        for _ in range(200):
            trace = random_trace(rng, max_len=30)
            lo = rng.randrange(0, 6)
            hi = UNBOUNDED if rng.random() < 0.3 else float(lo + rng.randrange(0, 10))
            assert_until_matches_oracles(self.random_until(rng, lo, hi), trace)

    def test_lower_bound_at_or_past_trace_end(self):
        rng = random.Random(33)
        for _ in range(150):
            trace = random_trace(rng, max_len=15)
            lo = len(trace) - 1 + rng.randrange(0, 4)
            hi = UNBOUNDED if rng.random() < 0.3 else float(lo + rng.randrange(0, 4))
            assert_until_matches_oracles(self.random_until(rng, lo, hi), trace)

    def test_point_window(self):
        rng = random.Random(34)
        for _ in range(150):
            trace = random_trace(rng, max_len=20)
            lo = rng.randrange(0, 25)
            assert_until_matches_oracles(self.random_until(rng, lo, float(lo)), trace)

    def test_two_sample_traces(self):
        rng = random.Random(35)
        for _ in range(150):
            trace = random_trace(rng, min_len=2, max_len=2)
            lo = rng.randrange(0, 4)
            hi = UNBOUNDED if rng.random() < 0.3 else float(lo + rng.randrange(0, 3))
            assert_until_matches_oracles(self.random_until(rng, lo, hi), trace)

    def test_unbounded_with_lower_bound(self):
        rng = random.Random(36)
        for _ in range(150):
            trace = random_trace(rng, max_len=30)
            lo = rng.randrange(1, 35)
            assert_until_matches_oracles(self.random_until(rng, lo, UNBOUNDED), trace)

    def test_kernel_matches_direct_definition(self):
        rng = np.random.default_rng(37)
        for case in range(24):
            n = int(rng.integers(250, 350))
            if case % 2:
                lhs, rhs = rng.normal(size=n), rng.normal(size=n)
            else:  # small integers, so ties are common
                lhs = rng.integers(-3, 4, size=n).astype(np.float64)
                rhs = rng.integers(-3, 4, size=n).astype(np.float64)
            lo = int(rng.integers(0, 40))
            hi = None if case % 3 == 0 else lo + int(rng.integers(0, 120))
            got = _until_series(lhs, rhs, lo, hi)
            assert got.tolist() == naive_until(lhs.tolist(), rhs.tolist(), lo, hi), case

    def test_million_samples_within_budget(self):
        rng = np.random.default_rng(1005)
        n = 1_000_000
        x, y = rng.normal(size=n), rng.normal(size=n)
        trace = Trace(
            "big",
            1.0,
            np.arange(n, dtype=np.float64),
            {"x": Series(SignalKind.REAL, x.copy()), "y": Series(SignalKind.REAL, y.copy())},
        )
        spec = parse_spec(
            "signal x : real\nsignal y : real\n"
            "rule unbounded: (x < 3) U[0, inf] (y > 2.5)\n"
            "rule window: (x < 3) U[10, 200] (y > 2.5)\n"
        )
        held = np.minimum.accumulate(3.0 - x)
        goal = y - 2.5
        expected = {
            "unbounded": float(np.max(np.minimum(goal, held))),
            "window": float(np.max(np.minimum(goal[10:201], held[10:201]))),
        }
        for rule in spec.rules:
            start = time.perf_counter()
            result = robustness(rule.formula, trace, rule.name)
            elapsed = time.perf_counter() - start
            assert result.rho == expected[rule.name]
            assert elapsed < 1.0, f"{rule.name}: {elapsed * 1000:.0f}ms"


def subformulas(f, path="root"):
    """(profile path, node) for every node of a formula."""
    yield path, f
    for name in ("child", "lhs", "rhs"):
        if hasattr(f, name):
            yield from subformulas(getattr(f, name), f"{path}.{name}")


def canonical(values):
    return [repr(v + 0.0) for v in values]


class TestBlockOracle:
    """The block core against the reference evaluator: traces of mixed
    lengths and dt share blocks, and every live sample of every node must
    equal the direct definition exactly, in every read-out."""

    @staticmethod
    def check_blocks(formulas, traces):
        spec = Specification(PALETTE, tuple(Rule(f"r{k}", f) for k, f in enumerate(formulas)))
        results = evaluate_specification(spec, *traces)
        profiles = profile_specification(spec, *traces)
        assert len(results) == len(profiles) == len(traces) * len(formulas)
        for i, trace in enumerate(traces):
            for f, result in zip(formulas, results[i * len(formulas):]):
                assert repr(result.rho) == repr(naive_rho(f, trace) + 0.0)
        quantitative, holds = _Plan(formulas), _Plan(formulas, holds=True)
        blocks = _blocks(traces)
        assert sorted(i for rows in blocks for i in rows) == list(range(len(traces)))
        for rows in blocks:
            block = [traces[i] for i in rows]
            assert len({t.dt for t in block}) == 1
            assert max(map(len, block)) < 2 * min(map(len, block))
            values, verdicts = quantitative.run(block), holds.run(block)
            for r, (i, trace) in enumerate(zip(rows, block)):
                n = len(trace)
                for k, f in enumerate(formulas):
                    verdict = naive_bool(f, trace)
                    assert bool(verdicts[holds.paths[k]["root"]][r, 0] > 0) == verdict
                    assert boolean_monitor(f, trace) == verdict
                    assert repr(robustness(f, trace).rho) == repr(naive_rho(f, trace) + 0.0)
                    profile = robustness_profile(f, trace).series
                    result = results[i * len(formulas) + k]
                    chunk_profile = profiles[i * len(formulas) + k]
                    assert (chunk_profile.rule_name, repr(chunk_profile.rho), chunk_profile.verdict) == (
                        result.rule_name, repr(result.rho), result.verdict
                    )
                    nodes = dict(subformulas(f))
                    assert set(profile) == set(chunk_profile.series) == set(nodes) == set(quantitative.paths[k])
                    memo, shared = {}, {}
                    for path, step in quantitative.paths[k].items():
                        want = canonical([naive_rho(nodes[path], trace, t, memo) for t in range(n)])
                        assert canonical(values[step][r, :n].tolist()) == want, path
                        assert canonical(profile[path].tolist()) == want, path
                        # live length, read-only, one array per node
                        series = chunk_profile.series[path]
                        assert canonical(series.tolist()) == want, path
                        assert not series.flags.writeable
                        assert shared.setdefault(step, series) is series, path

    def test_random_formulas_over_mixed_blocks(self):
        rng = random.Random(41)
        for _ in range(4):
            formulas = [random_formula(rng, 3) for _ in range(3)]
            traces = []
            for _ in range(20):
                dt = rng.choice((1.0, 0.25))
                min_len, max_len = rng.choice(((2, 2), (2, 3), (4, 60), (128, 400)))
                traces.append(random_trace(rng, dt, min_len, max_len))
            self.check_blocks(formulas, traces)

    def test_until_nested_under_globally(self):
        rng = random.Random(42)
        for _ in range(8):
            formulas = [
                Globally(Interval(0, UNBOUNDED), Until(window, random_formula(rng, 1), random_formula(rng, 1)))
                for window in (
                    Interval(0, float(rng.randrange(0, 6))),
                    Interval(0, UNBOUNDED),
                    Interval(float(rng.randrange(1, 4)), UNBOUNDED),
                    Interval(float(rng.randrange(1, 4)), float(rng.randrange(4, 9))),
                )
            ]
            traces = [random_trace(rng, rng.choice((1.0, 0.5)), max_len=40) for _ in range(10)]
            self.check_blocks(formulas, traces)

    def test_signed_zero_constants_are_separate_nodes(self):
        # Constant(0.0) == Constant(-0.0) in Python, but x * 0.0 and x * -0.0
        # differ in the sign of every zero they give
        x = SignalRef("x")
        formulas = [
            Atom(Compare(Mul(x, Constant(0.0)), CmpOp.GE, Constant(0.0))),
            Atom(Compare(Mul(x, Constant(-0.0)), CmpOp.GE, Constant(-0.0))),
        ]
        assert formulas[0] == formulas[1]
        plan = _Plan(formulas)
        assert plan.paths[0]["root"] != plan.paths[1]["root"]
        rng = random.Random(43)
        traces = [random_trace(rng, max_len=30) for _ in range(6)]
        for rows in _blocks(traces):
            block = [traces[i] for i in rows]
            values = plan.run(block)
            for r, trace in enumerate(block):
                for f, paths in zip(formulas, plan.paths):
                    want = [naive_rho(f, trace, t) for t in range(len(trace))]
                    assert list(map(repr, values[paths["root"]][r, :len(trace)].tolist())) == list(map(repr, want))
        self.check_blocks(formulas, traces)

    def test_shared_subterms_are_evaluated_once(self):
        spec = parse_spec(
            "signal phi : real\n"
            "rule r: G[0, inf] ((abs(deriv(phi)) > 0.2) -> F[0, 5] (abs(deriv(phi)) <= 0.2))\n"
        )
        plan = _Plan([rule.formula for rule in spec.rules])
        kernels = [kernel.__name__ for kernel, _, _ in plan.steps]
        assert kernels.count("_deriv") == 1 and kernels.count("_ref") == 1

    def test_shared_profile_paths_share_one_read_only_array(self):
        f = And(Globally(Interval(0, 2), x_gt(0)), Eventually(Interval(0, 1), x_gt(0)))
        profile = robustness_profile(f, trace_of(x=[1, -2, 3, 4]))
        assert profile.series["root.lhs.child"] is profile.series["root.rhs.child"]
        assert not profile.series["root.lhs.child"].flags.writeable
