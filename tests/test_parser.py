"""Tokenizer and parser: grammar, precedence, spans, round-trip, totality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stlmon import (
    And,
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
    ParseError,
    SignalRef,
    Specification,
    UNBOUNDED,
    Until,
    parse_spec,
    pretty_print,
    pretty_print_spec,
    tokenize,
)
from reference import PALETTE, random_formula

DECLS = """
signal speed : real
signal surface : enum {track, offroad}
signal finished_lap : bool
signal phi : real
signal dist_obst : real
signal goal_reached : bool
"""


def parse_rule(formula_src: str):
    spec = parse_spec(DECLS + f"\nrule r: {formula_src}\n")
    return spec.rules[0].formula


class TestTokenizer:
    def test_token_stream(self):
        toks = tokenize("G[0, inf] (speed < 900)")
        assert [t.text for t in toks] == [
            "G", "[", "0", ",", "inf", "]", "(", "speed", "<", "900", ")", "",
        ]
        assert toks[0].kind == "keyword"
        assert toks[7].kind == "ident"
        assert toks[9].kind == "number" and toks[9].value == 900.0

    def test_comment_skipped(self):
        toks = tokenize("# note\nrule r: F[0,800](goal_reached)")
        assert toks[0].text == "rule"
        assert toks[0].span.line == 2

    def test_unrecognized_character(self):
        with pytest.raises(ParseError) as err:
            tokenize("speed @ 5")
        assert err.value.span.line == 1
        assert err.value.span.column == 7

    def test_spans_are_one_based(self):
        toks = tokenize("a\n  bb")
        assert (toks[0].span.line, toks[0].span.column) == (1, 1)
        assert (toks[1].span.line, toks[1].span.column) == (2, 3)
        assert toks[1].span.length == 2


class TestGrammar:
    def test_stay_on_track_rule(self):
        f = parse_rule("G[0, inf] ((surface != track) -> F[0,60] (surface == track))")
        assert f == Globally(
            Interval(0.0, UNBOUNDED),
            Implies(
                Atom(EnumEq("surface", "track", negated=True)),
                Eventually(Interval(0.0, 60.0), Atom(EnumEq("surface", "track"))),
            ),
        )

    def test_sharp_turn_rule_shape(self):
        f = parse_rule(
            "G[0, inf] ((abs(deriv(phi)) > 0.2) -> F[0,50] (G[0,5] (abs(deriv(phi)) <= 0.2)))"
        )
        assert isinstance(f, Globally)
        assert isinstance(f.child, Implies)
        inner_f = f.child.rhs
        assert isinstance(inner_f, Eventually) and inner_f.interval == Interval(0.0, 50.0)
        assert isinstance(inner_f.child, Globally) and inner_f.child.interval == Interval(0.0, 5.0)

    def test_implies_right_associative(self):
        f = parse_rule("(speed < 1) -> (speed < 2) -> (speed < 3)")
        assert isinstance(f, Implies)
        assert isinstance(f.rhs, Implies)
        assert isinstance(f.lhs, Atom)

    def test_and_binds_tighter_than_or(self):
        f = parse_rule("(speed < 1) || (speed < 2) && (speed < 3)")
        assert isinstance(f, type(parse_rule("(speed<1) || (speed<2)")))
        assert isinstance(f.rhs, And)

    def test_until_binds_tighter_than_and(self):
        f = parse_rule("(speed < 1) && (speed < 2) U[0, 3] (speed < 4)")
        assert isinstance(f, And)
        assert isinstance(f.rhs, Until)

    def test_until_left_associative(self):
        f = parse_rule("(speed < 1) U[0, 2] (speed < 3) U[0, 4] (speed < 5)")
        assert isinstance(f, Until)
        assert isinstance(f.lhs, Until)

    def test_until_requires_interval(self):
        with pytest.raises(ParseError, match="explicit interval"):
            parse_rule("(speed < 1) U (speed < 2)")

    def test_default_intervals(self):
        assert parse_rule("G (speed < 1)") == parse_rule("G[0, inf] (speed < 1)")
        assert parse_rule("F (speed < 1)") == parse_rule("F[0, inf] (speed < 1)")

    def test_bare_bool_signal_sugar(self):
        f = parse_rule("F[0,800](goal_reached)")
        assert f == Eventually(Interval(0.0, 800.0), Atom(BoolIs("goal_reached")))
        assert parse_rule("goal_reached == false") == Atom(BoolIs("goal_reached", False))
        assert parse_rule("goal_reached != true") == Atom(BoolIs("goal_reached", False))

    def test_parenthesized_expression_lhs(self):
        f = parse_rule("(speed + 1) < 2")
        assert isinstance(f, Atom)
        assert isinstance(f.predicate, Compare)

    def test_negative_constant(self):
        f = parse_rule("speed > -3.5")
        assert f == Atom(Compare(SignalRef("speed"), CmpOp.GT, Constant(-3.5)))

    def test_declarations_must_precede_rules(self):
        with pytest.raises(ParseError):
            parse_spec("rule r: speed < 1\nsignal speed : real\n")

    def test_empty_source_is_empty_spec(self):
        spec = parse_spec("")
        assert spec == Specification((), ())


class TestParseErrors:
    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("rule r: velocity < 900", "unknown signal"),
            ("signal s : real\nrule r: s == true", "'==' and '!='"),
            ("signal m : enum {a}\nrule r: m == b", "undeclared variant"),
            ("signal b : bool\nrule r: deriv(b) < 1", "deriv of non-real"),
            ("signal s : real\nrule r: F[5, 2] (s < 1)", "interval hi < lo"),
            ("signal s : real\nrule r: foo(s) < 1", "unknown function"),
            ("signal s : real\nsignal s : bool\nrule r: s < 1", "duplicate signal"),
            ("signal s : real\nrule r: s < 1\nrule r: s < 2", "duplicate rule"),
            ("signal s : enum {a, a}\nrule r: s == a", "duplicate variant"),
            ("signal m : enum {a}\nrule r: 1 < m", "not real-valued"),
        ],
    )
    def test_message(self, source, fragment):
        with pytest.raises(ParseError, match=fragment):
            parse_spec(source)

    def test_error_spans_inside_source(self):
        bad_sources = [
            "rule r: (speed < ",
            "signal x : real\nrule r: x <",
            "signal x : real\nrule r: G[1] (x < 1)",
            "signal x : real\nrule r: x $ 1",
        ]
        for src in bad_sources:
            with pytest.raises(ParseError) as err:
                parse_spec(src)
            lines = src.split("\n")
            span = err.value.span
            assert 1 <= span.line <= len(lines)
            assert 1 <= span.column <= len(lines[span.line - 1]) + 1


class TestRoundTrip:
    def test_random_formulas_round_trip(self):
        rng = random.Random(42)
        decls_src = pretty_print_spec(Specification(PALETTE, ()))
        for i in range(2000):
            f = random_formula(rng, max_depth=4, dt=0.25, safe_div=False)
            source = decls_src + f"\nrule r: {pretty_print(f)}\n"
            reparsed = parse_spec(source).rules[0].formula
            assert reparsed == f, f"iteration {i}: {pretty_print(f)}"

    def test_spec_round_trip(self):
        source = DECLS + "\nrule a: G[0, inf] (speed < 900)\nrule b: finished_lap\n"
        spec = parse_spec(source)
        assert parse_spec(pretty_print_spec(spec)) == spec


class TestTotality:
    @given(st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_random_bytes_never_crash(self, data):
        try:
            parse_spec(data.decode("utf-8", errors="replace"))
        except ParseError:
            pass

    @given(st.text(alphabet="signal rule:GFU[](){}<>=!&|->,.0123456789abcdefinftrue ", max_size=120))
    @settings(max_examples=500, deadline=None)
    def test_near_miss_sources_never_crash(self, text):
        try:
            parse_spec(text)
        except ParseError:
            pass


class TestNumericLimits:
    def test_overflowing_literal_rejected_at_its_span(self):
        digits = "9" * 400
        with pytest.raises(ParseError, match="too large") as err:
            parse_spec(f"signal x : real\nrule r: x < {digits}\n")
        assert err.value.span.line == 2

    def test_large_but_finite_literal_accepted(self):
        spec = parse_spec("signal x : real\nrule r: x < 10000000000000000000000\n")
        assert spec.rules[0].formula == Atom(
            Compare(SignalRef("x"), CmpOp.LT, Constant(1e22))
        )


class TestNestingBound:
    def test_deep_parens_give_parse_error_not_crash(self):
        src = "signal x : real\nrule r: " + "(" * 3000 + "x < 1" + ")" * 3000
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_spec(src)

    def test_deep_implies_chain_bounded(self):
        src = "signal x : real\nrule r: " + "(x < 1) -> " * 3000 + "(x < 1)"
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_spec(src)

    def test_deep_expression_parens_bounded(self):
        src = "signal x : real\nrule r: " + "(" * 3000 + "x" + ")" * 3000 + " < 1"
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_spec(src)

    def test_moderate_nesting_still_parses(self):
        inner = "(" * 30 + "x < 1" + ")" * 30
        spec = parse_spec(f"signal x : real\nrule r: {inner}\n")
        assert spec.rules[0].formula == Atom(Compare(SignalRef("x"), CmpOp.LT, Constant(1)))
