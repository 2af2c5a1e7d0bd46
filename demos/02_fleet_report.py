"""Fleet metrics: aggregate per-trace robustness into regulator-facing numbers.

One robustness value per trace is aggregated per rule into:

  TRV  - total robustness value, the summed safety margin of the fleet
  LRV  - lowest robustness value, the single worst trace
  satisfaction percentage - share of traces with robustness >= 0

TRV tells you how the fleet behaves on average; LRV tells you how bad
the worst rollout was. A fleet can have a healthy TRV and still hide an
alarming LRV.
"""

import random

from stlmon import fleet_report, load_trace_csv, parse_spec, robustness

SPEC_SRC = """\
signal speed : real
rule speed_limit: G[0, inf] (speed < 900)
"""


def synthetic_fleet(spec, n, base_speed, spread, seed):
    """Constant-speed traces whose margins scatter around 900 - base_speed."""
    rng = random.Random(seed)
    traces = []
    for i in range(n):
        v = base_speed + rng.uniform(-spread, spread)
        csv = f"time,speed\n0,{v}\n1,{v}\n2,{v}\n"
        traces.append(load_trace_csv(csv, spec, trace_id=f"run-{i:03d}"))
    return traces


def main():
    spec = parse_spec(SPEC_SRC)
    rule = spec.rules[0]

    fleet = synthetic_fleet(spec, n=100, base_speed=880, spread=40, seed=11)
    results = [robustness(rule.formula, trace, rule.name) for trace in fleet]
    report = fleet_report(rule.name, results)

    print(f"Rule: {report.rule_name}  (n={report.n_traces} traces)")
    print(f"  Satisfaction Percentage    {report.satisfaction_pct:.1f}%")
    print(f"  TRV (sum of margins)       {report.trv:.1f}")
    print(f"  LRV (worst violation)      {report.lrv:.2f}")

    worst = min(range(len(results)), key=lambda i: results[i].rho)
    print(f"\nWorst trace is {fleet[worst].id} with rho={results[worst].rho:.2f};")
    print("that single number is what LRV surfaces to the regulator.")

    # The full rho vector is retained so downstream analysis (e.g. the
    # comparison demo) never works from the two summary numbers alone.
    print(f"\nFirst five rho values: {[round(r, 2) for r in report.rho_values[:5]]}")


if __name__ == "__main__":
    main()
