"""Offline robustness monitoring for rollout traces of black-box controllers.

Rules over named real/bool/enum signals are written in a small temporal
logic (see `parse_spec`), evaluated quantitatively over uniformly sampled
traces (`robustness`), aggregated into fleet compliance metrics
(`fleet_report`), and compared across model revisions with the
Mann-Whitney U test (`compare_fleets`). A bundled kinematic navigation
simulator (`simulate_fleet`) regenerates the full evaluation loop.
"""

from .formula import (
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
    Formula,
    Globally,
    Implies,
    Interval,
    Mul,
    Not,
    Or,
    Rule,
    SignalDecl,
    SignalExpr,
    SignalKind,
    SignalRef,
    Specification,
    Sub,
    UNBOUNDED,
    Until,
    format_number,
    pretty_print,
    pretty_print_spec,
)
from .metrics import (
    CompareReport,
    FleetReport,
    compare_fleets,
    fleet_report,
    mann_whitney_u,
)
from .parser import ParseError, parse_spec, tokenize
from .robustness import (
    RobustnessProfile,
    RobustnessResult,
    Verdict,
    boolean_monitor,
    eval_expr,
    evaluate_specification,
    profile_specification,
    robustness,
    robustness_profile,
    windowed_extremum,
)
from .sim import (
    ConfigError,
    GoalSampler,
    Obstacle,
    PolicyParams,
    ScenarioConfig,
    SplitMix64,
    builtin_presets,
    parse_config_text,
    simulate_episode,
    simulate_fleet,
)
from .traces import (
    EvalError,
    Series,
    Trace,
    TraceError,
    load_trace_csv,
    load_trace_json,
    write_trace_csv,
    write_trace_json,
)

__version__ = "0.1.0"
