"""Fleet metrics and the Mann-Whitney U test, checked against brute-force
enumeration and scipy as an independent reference."""

import math
import random

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmon import (
    RobustnessResult,
    Verdict,
    compare_fleets,
    fleet_report,
    mann_whitney_u,
)
from reference import brute_force_mwu_p


def results_for(rule, rhos):
    return [RobustnessResult(rule, rho, Verdict.from_rho(rho)) for rho in rhos]


class TestFleetReport:
    def test_spec_example(self):
        report = fleet_report("r", results_for("r", [1.5, -0.5, 2.0]))
        assert report.trv == 3.0
        assert report.lrv == -0.5
        assert report.n_traces == 3
        assert round(report.satisfaction_pct, 1) == 66.7
        assert report.rho_values == (1.5, -0.5, 2.0)

    def test_all_satisfied_fleet(self):
        report = fleet_report("r", results_for("r", [1.0] * 100))
        assert report.trv == 100.0
        assert report.lrv == 1.0
        assert report.satisfaction_pct == 100.0

    def test_exact_satisfaction_counts_as_satisfied(self):
        report = fleet_report("r", results_for("r", [0.0]))
        assert report.trv == 0.0
        assert report.lrv == 0.0
        assert report.satisfaction_pct == 100.0

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError, match="no traces"):
            fleet_report("r", [])

    def test_mixed_rules_rejected(self):
        results = results_for("r", [1.0]) + results_for("other", [1.0])
        with pytest.raises(ValueError, match="mixed"):
            fleet_report("r", results)

    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_non_finite_robustness_rejected(self, rho):
        # a NaN would be left out of the satisfaction count and published as TRV
        with pytest.raises(ValueError, match="non-finite robustness for rule 'r'"):
            fleet_report("r", results_for("r", [1.0, rho, -2.0]))

    def test_concatenation_linearity(self):
        rng = random.Random(21)
        for _ in range(100):
            a = [rng.uniform(-5, 5) for _ in range(rng.randrange(1, 20))]
            b = [rng.uniform(-5, 5) for _ in range(rng.randrange(1, 20))]
            ra = fleet_report("r", results_for("r", a))
            rb = fleet_report("r", results_for("r", b))
            rab = fleet_report("r", results_for("r", a + b))
            assert rab.trv == pytest.approx(ra.trv + rb.trv, rel=1e-12, abs=1e-12)
            assert rab.lrv == min(ra.lrv, rb.lrv)

    def test_lrv_at_most_mean(self):
        rng = random.Random(22)
        for _ in range(100):
            rhos = [rng.uniform(-5, 5) for _ in range(rng.randrange(1, 30))]
            report = fleet_report("r", results_for("r", rhos))
            assert report.lrv <= report.trv / report.n_traces + 1e-12


class TestMannWhitney:
    def test_spec_exact_example(self):
        u, p, method = mann_whitney_u([1, 2], [3, 4])
        assert u == 0.0
        assert method == "exact"
        assert p == pytest.approx(1 / 3, abs=1e-12)

    def test_identical_samples(self):
        u, p, method = mann_whitney_u([5, 5], [5, 5])
        assert u == 2.0  # n_a * n_b / 2
        assert p == pytest.approx(1.0)

    def test_fully_separated_large_samples(self):
        a = list(range(1, 31))
        b = list(range(31, 61))
        u, p, method = mann_whitney_u(a, b)
        assert method == "normal_approx"
        assert u == 0.0
        assert p < 1e-9

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [])

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_nan_rejected(self, position):
        # NaN has no place in the sorted order: U would depend on where it sits
        a = [1.0, 2.0]
        a.insert(position, math.nan)
        for x, y in ((a, [3.0, 0.5, 4.0]), ([3.0, 0.5, 4.0], a)):
            with pytest.raises(ValueError, match="NaN"):
                mann_whitney_u(x, y)

    def test_u_sum_identity_and_symmetry(self):
        rng = random.Random(23)
        for _ in range(200):
            n_a = rng.randrange(1, 15)
            n_b = rng.randrange(1, 15)
            a = [rng.uniform(-10, 10) for _ in range(n_a)]
            b = [rng.uniform(-10, 10) for _ in range(n_b)]
            u_a, p_ab, _ = mann_whitney_u(a, b)
            u_b, p_ba, _ = mann_whitney_u(b, a)
            assert u_a + u_b == n_a * n_b
            assert p_ab == pytest.approx(p_ba, abs=1e-12)
            assert 0 <= u_a <= n_a * n_b
            assert 0 <= p_ab <= 1

    def test_exact_matches_brute_force_up_to_8(self):
        rng = random.Random(24)
        for _ in range(150):
            n_a = rng.randrange(1, 8)
            n_b = rng.randrange(1, 9 - n_a)
            pool = rng.sample(range(1000), n_a + n_b)  # tie-free
            a = [float(v) for v in pool[:n_a]]
            b = [float(v) for v in pool[n_a:]]
            u, p, method = mann_whitney_u(a, b)
            assert method == "exact"
            assert p == pytest.approx(brute_force_mwu_p(a, b), abs=1e-12)

    def test_exact_matches_scipy(self):
        rng = random.Random(25)
        for _ in range(100):
            n_a = rng.randrange(1, 10)
            n_b = rng.randrange(1, 11)
            if n_a + n_b > 20:
                continue
            pool = rng.sample(range(10000), n_a + n_b)
            a = [float(v) for v in pool[:n_a]]
            b = [float(v) for v in pool[n_a:]]
            u, p, method = mann_whitney_u(a, b)
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert method == "exact"
            assert u == ref.statistic - 0  # scipy reports U for the first sample
            assert p == pytest.approx(ref.pvalue, rel=1e-12, abs=1e-12)

    def test_normal_approx_matches_scipy(self):
        rng = random.Random(26)
        for _ in range(100):
            n_a = rng.randrange(5, 40)
            n_b = rng.randrange(5, 40)
            a = [round(rng.uniform(-3, 3), 1) for _ in range(n_a)]  # rounded: ties likely
            b = [round(rng.uniform(-2, 4), 1) for _ in range(n_b)]
            if len(set(a + b)) == 1:
                continue
            u, p, method = mann_whitney_u(a, b)
            if n_a + n_b <= 20 and len(set(a + b)) == len(a + b):
                continue  # exact path, covered above
            ref = scipy.stats.mannwhitneyu(
                a, b, alternative="two-sided", method="asymptotic", use_continuity=True
            )
            assert method == "normal_approx"
            assert u == pytest.approx(ref.statistic, abs=1e-9)
            assert p == pytest.approx(ref.pvalue, rel=1e-9, abs=1e-12)

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=12),
        st.lists(st.integers(0, 50), min_size=2, max_size=12),
        st.floats(0.1, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_shift_weakly_decreases_u_b(self, a, b, shift):
        # pushing sample_a upward can only move rank mass toward a
        a = [float(v) for v in a]
        b = [float(v) for v in b]
        u_b_before = mann_whitney_u(b, a).u_statistic
        shifted = [v + shift for v in a]
        u_b_after = mann_whitney_u(b, shifted).u_statistic
        assert u_b_after <= u_b_before + 1e-9


class TestCompareFleets:
    def test_satisfaction_change_convention(self):
        pre = fleet_report("r", results_for("r", [1.0] * 30 + [-1.0] * 70))
        post = fleet_report("r", results_for("r", [1.0] * 83 + [-1.0] * 17))
        cmp = compare_fleets("r", pre, post)
        assert pre.satisfaction_pct == 30.0
        assert post.satisfaction_pct == 83.0
        assert cmp.satisfaction_change_pct == pytest.approx(100 * 53 / 30, abs=1e-9)

    def test_identical_fleets(self):
        fleet = fleet_report("r", results_for("r", [0.5, -0.5, 1.5, 2.0]))
        cmp = compare_fleets("r", fleet, fleet)
        assert cmp.satisfaction_change_pct == 0.0
        assert cmp.p_value > 0.9
        assert not cmp.significant

    def test_zero_pre_satisfaction_gives_infinite_sentinel(self):
        pre = fleet_report("r", results_for("r", [-1.0, -2.0]))
        post = fleet_report("r", results_for("r", [1.0, 2.0]))
        cmp = compare_fleets("r", pre, post)
        assert math.isinf(cmp.satisfaction_change_pct)

    def test_rule_mismatch_rejected(self):
        pre = fleet_report("a", results_for("a", [1.0]))
        post = fleet_report("b", results_for("b", [1.0]))
        with pytest.raises(ValueError, match="rule mismatch"):
            compare_fleets("a", pre, post)

    def test_separated_fleets_significant(self):
        rng = random.Random(27)
        pre = fleet_report("r", results_for("r", [rng.uniform(-3, -1) for _ in range(40)]))
        post = fleet_report("r", results_for("r", [rng.uniform(1, 3) for _ in range(40)]))
        cmp = compare_fleets("r", pre, post, alpha=0.05)
        assert cmp.significant
        assert cmp.p_value < 1e-9
