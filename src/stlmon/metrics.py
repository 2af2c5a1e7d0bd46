"""Fleet-level compliance metrics and pre/post statistical comparison.

Per rule, a fleet of per-trace robustness values is summarized by:

  - TRV: the sum of robustness values (aggregate safety margin),
  - LRV: the minimum robustness value (worst single trace),
  - satisfaction percentage: share of traces with robustness >= 0.

Two fleets are compared with the two-sided Mann-Whitney U test on their
robustness samples: exact null distribution (the coefficients of a
Gaussian binomial, in exact integers) for small tie-free samples,
otherwise the normal approximation with tie and continuity corrections.
"""

from __future__ import annotations

import math
from typing import Sequence

from .formula import _Record
from .robustness import RobustnessResult

EXACT_METHOD = "exact"
NORMAL_METHOD = "normal_approx"

# Exact enumeration is used only for combined samples up to this size
# and only without ties (ties invalidate the rank-permutation null).
EXACT_LIMIT = 20


class FleetReport(_Record):
    rule_name: str
    n_traces: int
    satisfaction_pct: float
    trv: float
    lrv: float
    rho_values: tuple[float, ...]


class CompareReport(_Record):
    rule_name: str
    u_statistic: float
    p_value: float
    method: str
    satisfaction_change_pct: float  # math.inf when the pre fleet satisfied nothing
    significant: bool
    alpha: float


class MannWhitneyResult(_Record):
    u_statistic: float
    p_value: float
    method: str

    def __iter__(self):  # unpacks as `u, p, method = mann_whitney_u(a, b)`
        return iter((self.u_statistic, self.p_value, self.method))


def fleet_report(rule_name: str, results: Sequence[RobustnessResult]) -> FleetReport:
    """Aggregate per-trace robustness results for one rule into a report.

    Robustness of exactly 0 counts as satisfied.
    """
    if not results:
        raise ValueError(f"no traces for rule '{rule_name}'")
    for r in results:
        if r.rule_name != rule_name:
            raise ValueError(
                f"result for rule '{r.rule_name}' mixed into fleet '{rule_name}'"
            )
    rhos = tuple(r.rho for r in results)
    n = len(rhos)
    satisfied = sum(1 for rho in rhos if rho >= 0)
    return FleetReport(
        rule_name=rule_name,
        n_traces=n,
        satisfaction_pct=100.0 * satisfied / n,
        trv=math.fsum(rhos),
        lrv=min(rhos),
        rho_values=rhos,
    )


def _ranks(pooled: list[float]) -> list[float]:
    """Fractional ranks (1-based); ties get the mean of their rank range."""
    order = sorted(range(len(pooled)), key=pooled.__getitem__)
    ranks = [0.0] * len(pooled)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def _exact_u_tail(n_a: int, n_b: int, u_big: int) -> float:
    """P(U >= u_big) under the exact null.

    The counts of U over the C(n_a+n_b, n_a) equally likely rank sets are
    the coefficients of the Gaussian binomial [n_a+n_b choose n_a]_q, the
    product over i = 1..n_a of (1 - q^(n_b+i)) / (1 - q^i). It is built
    one factor at a time in exact integers; each division is exact.
    """
    max_u = n_a * n_b
    counts = [1] + [0] * max_u
    for i in range(1, n_a + 1):
        for u in range(max_u, n_b + i - 1, -1):  # times (1 - q^(n_b+i))
            counts[u] -= counts[u - n_b - i]
        for u in range(i, max_u + 1):  # divided by (1 - q^i)
            counts[u] += counts[u - i]
    return sum(counts[u_big:]) / math.comb(n_a + n_b, n_a)


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def mann_whitney_u(sample_a: Sequence[float], sample_b: Sequence[float]) -> MannWhitneyResult:
    """Two-sided Mann-Whitney U test; U is reported for sample_a.

    Exact method when the combined size is at most EXACT_LIMIT and there
    are no ties; otherwise normal approximation with tie correction and
    a 0.5 continuity correction. All-identical samples yield p = 1.
    """
    a = [float(x) for x in sample_a]
    b = [float(x) for x in sample_b]
    if not a or not b:
        raise ValueError("both samples must be nonempty")
    n_a, n_b = len(a), len(b)
    pooled = a + b
    ranks = _ranks(pooled)
    r_a = math.fsum(ranks[:n_a])
    u_a = r_a - n_a * (n_a + 1) / 2
    u_b = n_a * n_b - u_a
    u_big = max(u_a, u_b)

    has_ties = len(set(pooled)) != len(pooled)
    if n_a + n_b <= EXACT_LIMIT and not has_ties:
        p = 2.0 * _exact_u_tail(n_a, n_b, int(round(u_big)))
        return MannWhitneyResult(u_a, min(p, 1.0), EXACT_METHOD)

    n = n_a + n_b
    seen: dict[float, int] = {}
    for x in pooled:
        seen[x] = seen.get(x, 0) + 1
    tie_sizes = [c for c in seen.values() if c > 1]
    tie_term = sum(c**3 - c for c in tie_sizes)
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0:
        # every pooled value identical: no rank information at all
        return MannWhitneyResult(u_a, 1.0, NORMAL_METHOD)
    z = (u_big - n_a * n_b / 2.0 - 0.5) / math.sqrt(variance)
    p = 2.0 * _normal_sf(z)
    return MannWhitneyResult(u_a, min(p, 1.0), NORMAL_METHOD)


def compare_fleets(
    rule_name: str, pre: FleetReport, post: FleetReport, alpha: float = 0.05
) -> CompareReport:
    """Compare two fleets of the same rule on their robustness samples.

    The satisfaction change is relative to the pre fleet (30% -> 83% is
    +176.7%); a pre fleet at 0% yields an infinite sentinel that renderers
    show as "n/a".
    """
    if pre.rule_name != rule_name or post.rule_name != rule_name:
        raise ValueError(
            f"rule mismatch: comparing '{pre.rule_name}' vs '{post.rule_name}' as '{rule_name}'"
        )
    if not 0 < alpha < 1:
        raise ValueError("alpha must be in (0, 1)")
    u, p, method = mann_whitney_u(pre.rho_values, post.rho_values)
    if pre.satisfaction_pct == 0:
        change = math.inf
    else:
        change = 100.0 * (post.satisfaction_pct - pre.satisfaction_pct) / pre.satisfaction_pct
    return CompareReport(
        rule_name=rule_name,
        u_statistic=u,
        p_value=p,
        method=method,
        satisfaction_change_pct=change,
        significant=p < alpha,
        alpha=alpha,
    )
