"""The record contract: how the package's immutable value classes are
built, compared, hashed, printed, frozen and pickled."""

import importlib
import pickle
import pkgutil

import numpy as np
import pytest

import stlmon
from stlmon import (
    Add,
    Atom,
    BoolIs,
    CmpOp,
    Compare,
    CompareReport,
    ConfigError,
    Constant,
    EnumEq,
    Eventually,
    FleetReport,
    Globally,
    Interval,
    Not,
    PolicyParams,
    RobustnessProfile,
    RobustnessResult,
    Rule,
    ScenarioConfig,
    Series,
    SignalDecl,
    SignalKind,
    SignalRef,
    Specification,
    Sub,
    Trace,
    TraceError,
    Verdict,
    builtin_presets,
    parse_config_text,
    parse_spec,
    simulate_episode,
)
from stlmon.cli import builtin_spec_path
from stlmon.parser import SourceSpan, Token
from stlmon.sim import format_config

X, Y = Constant(1.0), SignalRef("y")
ALWAYS = Interval(0.0, 5.0)
SURE = Atom(BoolIs("g"))


def _profile(root_values) -> RobustnessProfile:
    return RobustnessProfile("r", 1.0, Verdict.SATISFIED, {"root": np.array(root_values)})


def _trace() -> Trace:
    return Trace("t", 1.0, np.arange(3.0), {"x": Series(SignalKind.REAL, np.zeros(3))})


def _builtin_rules(name: str) -> list[str]:
    spec = parse_spec(builtin_spec_path(name).read_text(encoding="utf-8"))
    return [repr(rule) for rule in spec.rules]


class TestEquality:
    def test_same_fields_different_class_are_unequal(self):
        assert Add(X, Y) != Sub(X, Y)
        assert Globally(ALWAYS, SURE) != Eventually(ALWAYS, SURE)
        assert Add(X, Y) == Add(Constant(1.0), SignalRef("y"))
        assert hash(Add(X, Y)) == hash(Add(Constant(1.0), SignalRef("y")))

    def test_equal_records_hash_equal_and_work_as_dict_keys(self):
        keys = {Globally(ALWAYS, SURE): 1, Eventually(ALWAYS, SURE): 2}
        assert keys[Globally(Interval(0.0, 5.0), Atom(BoolIs("g", True)))] == 1
        assert keys[Eventually(Interval(0.0, 5.0), Atom(BoolIs("g")))] == 2

    def test_unequal_field_breaks_equality(self):
        assert BoolIs("g") != BoolIs("g", False)
        assert EnumEq("s", "a") != EnumEq("s", "a", negated=True)
        assert Interval(0.0, 5.0) != Interval(0.0, 6.0)

    def test_fields_compare_as_a_tuple(self):
        # tuple equality takes identity first, so one NaN object equals itself
        nan = float("nan")
        assert Constant(nan) == Constant(nan)
        assert Interval(0.0, 1.0) == Interval(0.0, 1.0)
        assert Constant(nan) != Constant(float("nan"))

    def test_comparison_with_a_foreign_type_is_false(self):
        assert SignalRef("y") != "y"
        assert SignalRef("y") != ("y",)
        assert Constant(1.0).__eq__(1.0) is NotImplemented

    def test_profile_compares_and_hashes_as_its_result(self):
        a, b = _profile([1.0, 2.0]), _profile([5.0, 6.0])
        assert a == b  # the series take no part
        assert hash(a) == hash(b)
        result = RobustnessResult("r", 1.0, Verdict.SATISFIED)
        assert hash(a) == hash(result)
        assert a != result  # a different class
        assert a != RobustnessProfile("r", 2.0, Verdict.SATISFIED, {})
        assert len({a, b}) == 1

    def test_identity_equality(self):
        s1, s2 = Series(SignalKind.REAL, np.zeros(2)), Series(SignalKind.REAL, np.zeros(2))
        assert s1 == s1 and s1 != s2
        t1, t2 = _trace(), _trace()
        assert t1 == t1 and t1 != t2
        assert len({s1, s2, t1, t2}) == 4
        cfg, pre, _ = builtin_presets()
        e1, e2 = simulate_episode(cfg, pre, 3), simulate_episode(cfg, pre, 3)
        assert e1 == e1 and e1 != e2
        assert len({e1, e2}) == 2


class TestConstruction:
    def test_keyword_and_positional_agree(self):
        assert Compare(lhs=X, op=CmpOp.LT, rhs=Y) == Compare(X, CmpOp.LT, Y)
        assert Rule(formula=SURE, name="r") == Rule("r", SURE)
        assert Token("ident", "x", SourceSpan(1, 1), value=2.0).value == 2.0

    def test_defaults(self):
        assert SignalDecl("x", SignalKind.REAL).enum_variants == ()
        assert SignalDecl(name="x", kind=SignalKind.REAL) == SignalDecl("x", SignalKind.REAL, ())
        assert SourceSpan(3, 4).length == 1
        assert SourceSpan(line=3, column=4, length=2).length == 2
        assert Token("eof", "", SourceSpan(1, 1)).value == 0.0
        assert EnumEq("s", "a").negated is False
        assert BoolIs("g").expected is True
        assert Series(SignalKind.REAL, np.zeros(1)).variants == ()

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SignalDecl("x"),  # missing a field
            lambda: SignalDecl("x", SignalKind.REAL, (), 4),  # one too many
            lambda: SignalDecl("x", SignalKind.REAL, bogus=1),  # unknown keyword
            lambda: SignalDecl("x", SignalKind.REAL, name="y"),  # given twice
        ],
        ids=["missing", "too_many", "unknown_keyword", "given_twice"],
    )
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_match_args(self):
        assert Compare.__match_args__ == ("lhs", "op", "rhs")
        assert Add.__match_args__ == ("lhs", "rhs")
        assert Globally.__match_args__ == ("interval", "child")
        assert RobustnessProfile.__match_args__ == ("rule_name", "rho", "verdict", "series")
        match Not(SURE):
            case Not(Atom(BoolIs(signal, expected))):
                assert (signal, expected) == ("g", True)
            case _:
                pytest.fail("Not(Atom(BoolIs(...))) did not match")


class TestPostInit:
    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (float("nan"), 1.0, "interval bound is NaN"),
            (-1.0, 1.0, "interval lo < 0"),
            (float("inf"), float("inf"), "interval lo is not finite"),
            (2.0, 1.0, "interval hi < lo"),
        ],
    )
    def test_interval(self, lo, hi, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Interval(lo, hi)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Interval(lo=lo, hi=hi)

    def test_scenario_config(self):
        cfg, _, _ = builtin_presets()
        fields = {name: getattr(cfg, name) for name in ScenarioConfig.__match_args__}
        with pytest.raises(ConfigError, match="^dt must be finite and > 0$"):
            ScenarioConfig(**{**fields, "dt": float("nan")})
        with pytest.raises(ConfigError, match="^max_steps must be >= 1$"):
            ScenarioConfig(*{**fields, "max_steps": 0}.values())

    def test_policy_params(self):
        _, pre, _ = builtin_presets()
        fields = {name: getattr(pre, name) for name in PolicyParams.__match_args__}
        with pytest.raises(ConfigError, match="^turn_gain must be finite$"):
            PolicyParams(**{**fields, "turn_gain": float("inf")})
        with pytest.raises(ConfigError, match=r"^turn_smoothing must be in \[0, 1\]$"):
            PolicyParams(*{**fields, "turn_smoothing": 2.0}.values())

    def test_trace(self):
        x = Series(SignalKind.REAL, np.zeros(3))
        with pytest.raises(TraceError, match="^row 3: times not strictly increasing$"):
            Trace("t", 1.0, np.array([0.0, 1.0, 1.0]), {"x": x})
        with pytest.raises(TraceError, match="^nonpositive dt$"):
            Trace(id="t", dt=0.0, times=np.arange(3.0), channels={"x": x})

    def test_trace_freezes_its_arrays(self):
        trace = _trace()
        assert not trace.times.flags.writeable
        assert not trace.channels["x"].values.flags.writeable


class TestFrozen:
    @pytest.mark.parametrize(
        "record, name",
        [
            (RobustnessResult("r", 1.0, Verdict.SATISFIED), "rho"),
            (Interval(0.0, 1.0), "lo"),
            (Add(X, Y), "lhs"),
            (_profile([1.0]), "series"),
            (Series(SignalKind.REAL, np.zeros(1)), "kind"),
            (SourceSpan(1, 1), "line"),
        ],
    )
    def test_assign_and_delete_raise(self, record, name):
        before = repr(record)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
        assert repr(record) == before


class TestRepr:
    def test_nested(self):
        assert repr(Not(SURE)) == "Not(child=Atom(predicate=BoolIs(signal='g', expected=True)))"
        assert repr(SourceSpan(2, 3)) == "SourceSpan(line=2, column=3, length=1)"

    def test_turtlebot_rules(self):
        assert _builtin_rules("turtlebot") == [
            "Rule(name='no_sharp_turns', formula=Globally(interval=Interval(lo=0.0, hi=inf), "
            "child=Implies(lhs=Atom(predicate=Compare(lhs=Abs(child=Deriv(name='phi')), "
            "op=<CmpOp.GT: '>'>, rhs=Constant(value=0.2))), rhs=Eventually(interval="
            "Interval(lo=0.0, hi=50.0), child=Globally(interval=Interval(lo=0.0, hi=5.0), "
            "child=Atom(predicate=Compare(lhs=Abs(child=Deriv(name='phi')), "
            "op=<CmpOp.LE: '<='>, rhs=Constant(value=0.2))))))))",
            "Rule(name='timed_completion', formula=Eventually(interval=Interval(lo=0.0, "
            "hi=800.0), child=Atom(predicate=BoolIs(signal='goal_reached', expected=True))))",
            "Rule(name='dont_linger', formula=Globally(interval=Interval(lo=0.0, hi=inf), "
            "child=Implies(lhs=Atom(predicate=Compare(lhs=SignalRef(name='dist_obst'), "
            "op=<CmpOp.LT: '<'>, rhs=Constant(value=0.5))), rhs=Eventually(interval="
            "Interval(lo=0.0, hi=50.0), child=Atom(predicate=Compare(lhs=SignalRef("
            "name='dist_obst'), op=<CmpOp.GE: '>='>, rhs=Constant(value=0.5)))))))",
        ]

    def test_mario_rules(self):
        assert _builtin_rules("mario") == [
            "Rule(name='global_speed_limit', formula=Globally(interval=Interval(lo=0.0, "
            "hi=inf), child=Atom(predicate=Compare(lhs=SignalRef(name='speed'), "
            "op=<CmpOp.LT: '<'>, rhs=Constant(value=900.0)))))",
            "Rule(name='stay_on_track', formula=Globally(interval=Interval(lo=0.0, hi=inf), "
            "child=Implies(lhs=Atom(predicate=EnumEq(signal='surface', variant='track', "
            "negated=True)), rhs=Eventually(interval=Interval(lo=0.0, hi=60.0), "
            "child=Atom(predicate=EnumEq(signal='surface', variant='track', "
            "negated=False))))))",
            "Rule(name='timed_loop', formula=Eventually(interval=Interval(lo=0.0, "
            "hi=1100.0), child=Atom(predicate=BoolIs(signal='finished_lap', "
            "expected=True))))",
        ]

    def test_mario_declarations(self):
        spec = parse_spec(builtin_spec_path("mario").read_text(encoding="utf-8"))
        assert repr(spec.declarations[1]) == (
            "SignalDecl(name='surface', kind=<SignalKind.ENUM: 'enum'>, "
            "enum_variants=('track', 'offroad'))"
        )


class TestPickle:
    def test_specification(self):
        for name in ("turtlebot", "mario"):
            spec = parse_spec(builtin_spec_path(name).read_text(encoding="utf-8"))
            copy = pickle.loads(pickle.dumps(spec))
            assert copy == spec and hash(copy) == hash(spec)
            assert repr(copy) == repr(spec)

    def test_value_records(self):
        report = FleetReport("r", 2, 50.0, 0.5, -1.0, (1.5, -1.0))
        compare = CompareReport("r", 1.0, 0.5, "exact", 10.0, False, 0.05)
        cfg, pre, _ = builtin_presets()
        token = Token("number", "2", SourceSpan(1, 5), 2.0)
        for record in (report, compare, cfg, pre, token, RobustnessResult("r", -1.0, Verdict.VIOLATED)):
            assert pickle.loads(pickle.dumps(record)) == record

    def test_array_records(self):
        profile = pickle.loads(pickle.dumps(_profile([1.0, 2.0])))
        assert profile == _profile([1.0, 2.0])
        assert profile.series["root"].tolist() == [1.0, 2.0]
        cfg, pre, _ = builtin_presets()
        episode = simulate_episode(cfg, pre, 5)
        copy = pickle.loads(pickle.dumps(episode))
        assert (copy.seed, copy.goal, copy.outcome, copy.steps) == (
            episode.seed, episode.goal, episode.outcome, episode.steps
        )
        assert copy.trace.id == episode.trace.id
        assert np.array_equal(copy.trace.times, episode.trace.times)
        for name, series in episode.trace.channels.items():
            assert np.array_equal(copy.trace.channels[name].values, series.values)
            assert copy.trace.channels[name].kind is series.kind


class TestNoCodeGeneration:
    def test_no_class_is_a_dataclass(self):
        # `@dataclass` compiles each generated method from source at every
        # import; the package's records share one base instead.
        found = []
        for info in pkgutil.iter_modules(stlmon.__path__):
            if info.name == "__main__":  # importing it runs the CLI
                continue
            module = importlib.import_module(f"stlmon.{info.name}")
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == module.__name__:
                    if "__dataclass_fields__" in vars(value):
                        found.append(f"{module.__name__}.{value.__qualname__}")
        assert found == []

    def test_config_keys_are_the_field_names(self):
        cfg, pre, post = builtin_presets()
        text = format_config(cfg, {"pre": pre, "post": post})
        lines = text.splitlines()
        scenario_keys = [line.split(" = ")[0] for line in lines if "." not in line.split(" = ")[0]]
        assert sorted(scenario_keys) == sorted(ScenarioConfig.__match_args__)
        assert [line.split(" = ")[0] for line in lines if line.startswith("pre.")] == [
            f"pre.{name}" for name in PolicyParams.__match_args__
        ]
        assert parse_config_text(text) == (cfg, {"pre": pre, "post": post})
        for name in ScenarioConfig.__match_args__:
            kept = "\n".join(line for line in lines if not line.startswith(f"{name} ="))
            with pytest.raises(ConfigError, match=f"^missing scenario keys: {name}$"):
                parse_config_text(kept)
        for name in PolicyParams.__match_args__:
            kept = "\n".join(line for line in lines if not line.startswith(f"pre.{name} ="))
            with pytest.raises(ConfigError, match=f"^policy 'pre' missing keys: {name}$"):
                parse_config_text(kept)
        with pytest.raises(ConfigError, match="unknown key 'series'"):
            parse_config_text(text + "series = 1\n")
        with pytest.raises(ConfigError, match="unknown policy key 'pre.dt'"):
            parse_config_text(text + "pre.dt = 1\n")
