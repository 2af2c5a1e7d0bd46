"""Spec-time validation, canonical printing, and structural invariants."""

import math
import random
import re

import pytest

from stlmon import (
    Atom,
    BoolIs,
    CmpOp,
    Compare,
    Constant,
    EnumEq,
    Eventually,
    Globally,
    Implies,
    Interval,
    Not,
    ParseError,
    Rule,
    SignalDecl,
    SignalKind,
    SignalRef,
    Specification,
    UNBOUNDED,
    depth,
    format_number,
    node_count,
    parse_spec,
    pretty_print,
    pretty_print_spec,
)
from reference import random_formula

SPEED = SignalDecl("speed", SignalKind.REAL)
SURFACE = SignalDecl("surface", SignalKind.ENUM, ("track", "offroad"))
DONE = SignalDecl("finished_lap", SignalKind.BOOL)
DECLS = (
    "signal speed : real\n"
    "signal surface : enum {track, offroad}\n"
    "signal finished_lap : bool\n"
)


def spec_with(formula, decls=(SPEED, SURFACE, DONE), name="r"):
    return Specification(tuple(decls), (Rule(name, formula),))


def speed_lt(c):
    return Atom(Compare(SignalRef("speed"), CmpOp.LT, Constant(c)))


def first_fault(source):
    """The message and (line, column) of the ParseError `source` raises."""
    with pytest.raises(ParseError) as err:
        parse_spec(source)
    return err.value.message, (err.value.span.line, err.value.span.column)


class TestValidate:
    """The parser is the one spec-time checker: each fault a hand-built AST
    can carry is rejected in source form at the span of the fault."""

    def test_well_formed_spec_has_no_diagnostics(self):
        spec = spec_with(Globally(Interval(0.0, UNBOUNDED), speed_lt(900)))
        assert parse_spec(pretty_print_spec(spec)) == spec

    def test_unknown_signal(self):
        assert first_fault(DECLS + "rule r: velocity < 900") == (
            "unknown signal 'velocity'", (4, 9))

    def test_interval_hi_below_lo(self):
        assert first_fault("signal speed : real\nrule r: F[5, 2] (speed < 900)") == (
            "interval hi < lo", (2, 14))

    def test_negative_lo(self):
        # Interval bounds are unsigned literals, so lo < 0 cannot be written.
        assert first_fault(DECLS + "rule r: G[-1, 2] (speed < 900)") == (
            "unexpected op '-'", (4, 11))

    def test_undeclared_enum_variant(self):
        assert first_fault(DECLS + "rule r: surface == grass") == (
            "undeclared variant 'grass' for 'surface'", (4, 20))

    def test_enum_in_arithmetic(self):
        assert first_fault(DECLS + "rule r: speed < surface") == (
            "signal 'surface' is not real-valued", (4, 17))

    def test_deriv_of_bool(self):
        assert first_fault(DECLS + "rule r: deriv(finished_lap) < 1") == (
            "deriv of non-real signal 'finished_lap'", (4, 15))

    def test_bool_predicate_on_real_signal(self):
        assert first_fault(DECLS + "rule r: speed == true") == (
            "'==' and '!=' apply only to enum or bool signals", (4, 15))

    def test_duplicate_rule_names(self):
        assert first_fault("signal speed : real\nrule r: speed < 1\nrule r: speed < 1") == (
            "duplicate rule 'r'", (3, 6))

    def test_duplicate_declaration(self):
        assert first_fault("signal speed : real\nsignal speed : real\n") == (
            "duplicate signal 'speed'", (2, 8))

    def test_deterministic_and_order_stable(self):
        source = "signal speed : real\nrule r: F[5, 2] (nope > also_nope)"
        # Three faults; the first in source order is reported, every time.
        assert first_fault(source) == first_fault(source) == ("interval hi < lo", (2, 14))


class TestInterval:
    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (-1.0, 0.0, "interval lo < 0"),
            (5.0, 2.0, "interval hi < lo"),
            (math.nan, 2.0, "interval bound is NaN"),
            (0.0, math.nan, "interval bound is NaN"),
            (math.inf, UNBOUNDED, "interval lo is not finite"),
        ],
    )
    def test_illegal_bounds_rejected(self, lo, hi, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Interval(lo, hi)


class TestPrettyPrint:
    def test_globally_canonical_form(self):
        f = Globally(Interval(0.0, UNBOUNDED), speed_lt(900))
        assert pretty_print(f) == "G[0, inf] (speed < 900)"

    def test_implies_canonical_form(self):
        f = Implies(
            Atom(EnumEq("surface", "track", negated=True)),
            Eventually(Interval(0.0, 60.0), Atom(EnumEq("surface", "track"))),
        )
        assert pretty_print(f) == "(surface != track) -> F[0, 60] (surface == track)"

    def test_negation_canonical_form(self):
        f = Not(Atom(Compare(SignalRef("speed"), CmpOp.GT, Constant(0))))
        assert pretty_print(f) == "!(speed > 0)"

    def test_bare_bool_sugar(self):
        f = Eventually(Interval(0.0, 800.0), Atom(BoolIs("finished_lap")))
        assert pretty_print(f) == "F[0, 800] (finished_lap)"

    def test_bool_false_prints_explicitly(self):
        assert pretty_print(Atom(BoolIs("finished_lap", False))) == "finished_lap == false"

    def test_number_formatting(self):
        assert format_number(900.0) == "900"
        assert format_number(0.2) == "0.2"
        assert format_number(-3.5) == "-3.5"
        assert format_number(1e-07) == "0.0000001"
        assert float(format_number(1e-07)) == 1e-07
        with pytest.raises(ValueError):
            format_number(math.inf)


class TestNodeCounts:
    def test_node_count_is_one_plus_children(self):
        rng = random.Random(7)
        for _ in range(200):
            f = random_formula(rng, max_depth=4)
            assert node_count(f) == 1 + sum(node_count(c) for c in f.children())

    def test_depth_bound_respected(self):
        rng = random.Random(8)
        for _ in range(200):
            f = random_formula(rng, max_depth=4)
            assert depth(f) <= 5  # depth counts nodes, so max_depth+1 levels

    def test_structural_equality(self):
        a = Globally(Interval(0.0, UNBOUNDED), speed_lt(900))
        b = Globally(Interval(0.0, UNBOUNDED), speed_lt(900))
        assert a == b
        assert hash(a) == hash(b)
        assert a != Eventually(Interval(0.0, UNBOUNDED), speed_lt(900))
