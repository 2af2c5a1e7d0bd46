"""Tokenizer and parser: grammar, precedence, spans, round-trip, totality."""

import random
import re
from pathlib import Path

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
    Not,
    Or,
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
from stlmon.cli import builtin_spec_path
from stlmon.parser import _Parser
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

    @pytest.mark.parametrize(
        "source, grouped",
        [
            ("(speed < 1) || (speed < 2) && (speed < 3)",
             "(speed < 1) || ((speed < 2) && (speed < 3))"),
            ("(speed < 1) && (speed < 2) U[0, 3] (speed < 4)",
             "(speed < 1) && ((speed < 2) U[0, 3] (speed < 4))"),
            ("speed - phi * dist_obst < 0", "speed - (phi * dist_obst) < 0"),
        ],
        ids=["and-over-or", "until-over-and", "mul-over-sub"],
    )
    def test_binds_tighter(self, source, grouped):
        f = parse_rule(source)
        assert f == parse_rule(grouped)
        assert pretty_print(f) == source

    def test_docs_precedence_table_matches_the_classes(self):
        """The table in docs/formats.md lists one level per `prec`, loosest
        first, each with the associativity the parser gives it."""
        text = (Path(__file__).resolve().parents[1] / "docs" / "formats.md").read_text()
        section = text.split("### Grammar and precedence")[1].split("\n#")[0]
        classes = {cls.op: cls for cls in (Implies, Or, And, Until, Not, Globally, Eventually)}
        classes["( ... )"] = Atom
        levels, documented = [], set()  # (level, prec) per row; classes named
        for line in section.splitlines():
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            if not cells or not cells[0].isdigit():
                continue
            ops = [op.replace("\\|", "|") for op in re.findall(r"`([^`]*)`", cells[1])]
            row = {classes[op.split("[")[0]] for op in ops}
            [prec] = {cls.prec for cls in row}
            levels.append((int(cells[0]), prec))
            documented |= row
            if cells[2] in ("left", "right"):
                [op] = ops
                a, b, c = "(speed < 1)", "(speed < 2)", "(speed < 3)"
                op = op.replace("lo, hi", "0, 4")
                grouped = (f"({a} {op} {b}) {op} {c}" if cells[2] == "left"
                           else f"{a} {op} ({b} {op} {c})")
                assert parse_rule(f"{a} {op} {b} {op} {c}") == parse_rule(grouped), line
            else:
                assert cells[2] == ("prefix" if Atom not in row else "-"), line
        assert documented == set(classes.values())
        assert [level for level, _ in levels] == list(range(1, len(levels) + 1))
        assert [prec for _, prec in levels] == sorted({prec for _, prec in levels})

    @pytest.mark.parametrize(
        "source, grouped",
        [
            ("(speed < 1) U[0, 2] (speed < 3) U[0, 4] (speed < 5)",
             "((speed < 1) U[0, 2] (speed < 3)) U[0, 4] (speed < 5)"),
            ("(speed < 1) || (speed < 2) || (speed < 3)",
             "((speed < 1) || (speed < 2)) || (speed < 3)"),
            ("(speed < 1) && (speed < 2) && (speed < 3)",
             "((speed < 1) && (speed < 2)) && (speed < 3)"),
            ("speed - phi - dist_obst < 0", "(speed - phi) - dist_obst < 0"),
            ("speed / phi / dist_obst < 0", "(speed / phi) / dist_obst < 0"),
        ],
        ids=["until", "or", "and", "sub", "div"],
    )
    def test_left_associative(self, source, grouped):
        f = parse_rule(source)
        assert f == parse_rule(grouped)
        assert pretty_print(f) == source

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

    def test_hundred_formula_parens_parse(self):
        inner = "(" * 100 + "x < 1" + ")" * 100
        spec = parse_spec(f"signal x : real\nrule r: {inner}\n")
        assert spec.rules[0].formula == Atom(Compare(SignalRef("x"), CmpOp.LT, Constant(1)))

    def test_moderate_nesting_still_parses(self):
        inner = "(" * 30 + "x < 1" + ")" * 30
        spec = parse_spec(f"signal x : real\nrule r: {inner}\n")
        assert spec.rules[0].formula == Atom(Compare(SignalRef("x"), CmpOp.LT, Constant(1)))

    # 59 expression parens as a comparison's left side: each `(` is one
    # nesting level, so they parse, and the next rule starts again from 0.
    DEEP_EXPR = "(" * 59 + "x" + ")" * 59

    def test_predicate_reading_after_a_refused_formula_reading(self):
        spec = parse_spec(f"signal x : real\nrule r: {self.DEEP_EXPR} < 1\n")
        assert spec.rules[0].formula == Atom(Compare(SignalRef("x"), CmpOp.LT, Constant(1)))

    def test_refused_levels_are_not_charged_to_a_later_rule(self):
        errors = []
        for first in (self.DEEP_EXPR, "x"):
            with pytest.raises(ParseError) as exc:
                parse_spec(f"signal x : real\nrule a: {first} < 1\nrule b: x <\n")
            errors.append(str(exc.value))
        assert errors == ["line 4, column 1: unexpected end of input "
                          "(expected signal expression)"] * 2


class TestGroups:
    """Outcomes of rules around `(`, recorded when each `(` was read twice
    (first as a formula, then as a comparison's left side): the printed
    formula, or the exact ParseError."""

    OUTCOMES = [
        ("(speed + 1) < 2", "speed + 1 < 2"),
        ("(speed + 1)",
         "line 10, column 1: unexpected end of input (expected comparison operator)"),
        ("(speed + 1) < 2 && (speed > 0)", "(speed + 1 < 2) && (speed > 0)"),
        ("(speed < 1", "line 10, column 1: unexpected end of input (expected ')')"),
        ("(speed + 1 < 2", "line 10, column 1: unexpected end of input (expected ')')"),
        ("((speed < 1) + 2) < 3", "line 9, column 22: unexpected op '+' (expected ')')"),
        ("((speed < 1) < 2)", "line 9, column 22: unexpected op '<' (expected ')')"),
        ("(speed < 1) < 2", "line 9, column 21: unexpected op '<' "
                            "(expected 'signal' or 'rule' or end of input)"),
        ("(finished_lap)", "finished_lap"),
        ("(finished_lap && speed < 1)", "(finished_lap) && (speed < 1)"),
        ("(finished_lap + 1) < 2", "line 9, column 23: unexpected op '+' (expected ')')"),
        ("(goal_reached == false) -> (speed > 1)", "(goal_reached == false) -> (speed > 1)"),
        ("(surface == track) || (speed > 0)", "(surface == track) || (speed > 0)"),
        ("(surface)", "line 9, column 17: enum signal 'surface' needs '==' or '!=' "
                      "(expected '==' or '!=')"),
        ("(surface != offroad && finished_lap)", "(surface != offroad) && (finished_lap)"),
        ("(!(speed < 1))", "!(speed < 1)"),
        ("(!speed < 1)", "!(speed < 1)"),
        ("(!(speed) < 1)", "!(speed < 1)"),
        ("(G[0, 5] speed < 1)", "G[0, 5] (speed < 1)"),
        ("(F (goal_reached))", "F[0, inf] (goal_reached)"),
        ("(G[0, 5] (speed + 1)) < 2",
         "line 9, column 29: unexpected op ')' (expected comparison operator)"),
        ("(speed < 1 U[0, 2] speed > 3)", "(speed < 1) U[0, 2] (speed > 3)"),
        ("(speed < 1 U speed > 3)",
         "line 9, column 20: U requires an explicit interval (expected '[')"),
        ("(U[0, 1] speed < 1)",
         "line 9, column 10: unexpected keyword 'U' (expected signal expression)"),
        ("((speed + 1) * 2 < 3) && (speed > 0)", "((speed + 1) * 2 < 3) && (speed > 0)"),
        ("((speed < 1))", "speed < 1"),
        ("((speed)) < 1", "speed < 1"),
        ("((speed) + 1) * 2 >= abs(phi)", "(speed + 1) * 2 >= abs(phi)"),
        ("((speed) + 1 && speed < 2)", "line 9, column 22: unexpected op '&&' (expected ')')"),
        ("((speed) + )", "line 9, column 20: unexpected op ')' (expected signal expression)"),
        ("(speed) == 1", "line 9, column 17: '==' and '!=' apply only to enum or bool signals"),
        ("(speed + 1 && speed < 2)", "line 9, column 20: unexpected op '&&' (expected ')')"),
        ("(speed + 1 == 2)", "line 9, column 20: unexpected op '==' (expected ')')"),
        ("()", "line 9, column 10: unexpected op ')' (expected signal expression)"),
        ("(speed < 1))", "line 9, column 20: unexpected op ')' "
                         "(expected 'signal' or 'rule' or end of input)"),
        ("(abs(deriv(phi)) <= 0.2)", "abs(deriv(phi)) <= 0.2"),
        ("(-speed < 1)", "line 9, column 10: '-' is only allowed before a numeric literal"),
        ("(-1 * speed < 1)", "-1 * speed < 1"),
        ("(velocity < 1)", "line 9, column 10: unknown signal 'velocity'"),
        ("(speed < 1 -> (dist_obst > 2))", "(speed < 1) -> (dist_obst > 2)"),
        ("(speed < 1 -> dist_obst)",
         "line 9, column 32: unexpected op ')' (expected comparison operator)"),
        ("(" * 59 + "speed" + ")" * 59 + " < 1", "speed < 1"),
    ]

    @pytest.mark.parametrize("source, outcome", OUTCOMES, ids=range(len(OUTCOMES)))
    def test_outcome(self, source, outcome):
        try:
            got = pretty_print(parse_rule(source))
        except ParseError as exc:
            got = str(exc)
        assert got == outcome


    def test_a_signal_named_like_a_function_starts_a_formula_group(self):
        """A bool or enum signal opens a formula, inside `(` as outside: a
        signal named `abs` followed by `(` is the signal, not a call."""
        for kind in ("bool", "enum {a, b}"):
            decls = f"signal x : real\nsignal abs : {kind}\nrule r: "
            for rule in ("abs(x) < 1", "(abs(x)) < 1", "(abs(x) < 1)"):
                with pytest.raises(ParseError) as err:
                    parse_spec(decls + rule)
                # refused at the `(` after the signal
                assert err.value.span.column == len("rule r: ") + rule.index("abs(") + 4


class TestReadOnce:
    """The parser reads every token once: no input is read a second time."""

    SOURCES = {
        "turtlebot": builtin_spec_path("turtlebot").read_text(encoding="utf-8"),
        "mario": builtin_spec_path("mario").read_text(encoding="utf-8"),
        "docs": (Path(__file__).resolve().parents[1] / "docs" / "rules.stl").read_text(),
        **{rule: f"signal speed : real\nrule r: {rule}\n" for rule in (
            "((speed + 1) * 2 < 3) && (speed > 0)",
            "((speed < 1))",
            "(speed + 1) < 2",
            "(((speed) + 1) * 2) < 3 -> !((speed > 0))",
        )},
    }

    @pytest.mark.parametrize("name", SOURCES)
    def test_each_token_is_read_once(self, name, monkeypatch):
        reads = []
        advance = _Parser.advance
        monkeypatch.setattr(_Parser, "advance", lambda self: reads.append(1) or advance(self))
        parse_spec(self.SOURCES[name])
        assert len(reads) == len(tokenize(self.SOURCES[name])) - 1  # all but eof
