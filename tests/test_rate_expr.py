"""Tests for the expression language: lexer, parser, evaluator.

The evaluator is cross-checked against an independent shunting-yard
implementation in reference_eval.py.
"""

import math
import random

import numpy as np
import pytest

from ippp import RateModel, rate_expr
from ippp.errors import (
    EvalError,
    InvalidParameter,
    LexError,
    ParseError,
    UnknownFunction,
    UnknownVariable,
)

from expr_gen import EXTRA_EXPRESSIONS, random_expression
from reference_eval import RefError, reference_eval


def ev(text, x=0.0):
    return rate_expr.evaluate(rate_expr.parse_text(text), x)


class TestOracle:
    """The reference evaluator itself must get the basics right."""

    def test_precedence(self):
        assert reference_eval("1+2*3") == 7.0
        assert reference_eval("(1+2)*3") == 9.0
        assert reference_eval("-2^2") == -4.0
        assert reference_eval("2^3^2") == 512.0

    def test_functions(self):
        assert reference_eval("min(3, 2)") == 2.0
        assert reference_eval("sqrt(abs(-9))") == 3.0
        assert reference_eval("sin(x)", 1.25) == math.sin(1.25)


class TestPrecedence:
    def test_mul_binds_tighter_than_add(self):
        assert ev("1+2*3") == 7.0

    def test_parens_override(self):
        assert ev("(1+2)*3") == 9.0

    def test_unary_minus_looser_than_power(self):
        assert ev("-2^2") == -4.0

    def test_power_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_unary_minus_in_exponent(self):
        assert ev("2^-1") == 0.5

    def test_repeated_unary_minus(self):
        assert ev("--3") == 3.0

    def test_division_left_associative(self):
        assert ev("8/4/2") == 1.0


class TestLexer:
    def test_round_trip_lexemes(self):
        src = "2 + 0.5*sin( x )^2e3"
        toks = rate_expr.tokenize(src)
        assert "".join(t.lexeme for t in toks) == src.replace(" ", "")
        for t in toks:
            assert src[t.position : t.position + len(t.lexeme)] == t.lexeme

    def test_number_forms(self):
        assert ev("1e-3") == 1e-3
        assert ev(".5") == 0.5
        assert ev("2.5E+1") == 25.0
        assert ev("7.") == 7.0

    def test_trailing_e_is_not_an_exponent(self):
        # "2e" lexes as the number 2 followed by the constant e, and the
        # grammar has no implicit multiplication.
        toks = rate_expr.tokenize("2e")
        assert [t.kind for t in toks] == ["number", "identifier"]
        with pytest.raises(ParseError):
            rate_expr.parse(toks)

    def test_unicode_minus(self):
        assert ev("2−3") == -1.0
        tok = rate_expr.tokenize("−1")[0]
        assert tok.lexeme == "−"

    def test_lex_error_position(self):
        with pytest.raises(LexError) as err:
            rate_expr.tokenize("2 $ 3")
        assert err.value.position == 2


class TestParserErrors:
    def test_dangling_operator(self):
        with pytest.raises(ParseError) as err:
            rate_expr.parse_text("2+*3")
        assert err.value.position == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownFunction) as err:
            rate_expr.parse_text("foo(2)")
        assert err.value.name == "foo"
        assert err.value.position == 0
        # the Step node is outside the grammar
        with pytest.raises(UnknownFunction):
            rate_expr.parse_text("step(x)")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable) as err:
            rate_expr.parse_text("2 + y")
        assert err.value.name == "y"
        assert err.value.position == 4

    def test_case_sensitive_names(self):
        with pytest.raises(UnknownVariable):
            rate_expr.parse_text("PI")

    def test_wrong_arity(self):
        with pytest.raises(ParseError):
            rate_expr.parse_text("sin(1, 2)")
        with pytest.raises(ParseError):
            rate_expr.parse_text("min(1)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            rate_expr.parse_text("(1+2")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            rate_expr.parse_text("")

    def test_nonfinite_literal(self):
        with pytest.raises(ParseError) as err:
            rate_expr.parse_text("2 + 1e400")
        assert err.value.position == 4
        assert "1e400" in str(err.value)

    def test_trailing_tokens(self):
        with pytest.raises(ParseError) as err:
            rate_expr.parse_text("1 2")
        assert err.value.expected == "end of input"


class TestEvaluate:
    def test_variable(self):
        assert ev("x^2+1", 3.0) == 10.0

    def test_constants(self):
        assert ev("pi") == pytest.approx(math.pi, rel=0, abs=0)
        assert ev("e") == pytest.approx(math.e, rel=0, abs=0)

    def test_array_matches_scalars(self):
        expr = rate_expr.parse_text("2 + 0.5*sin(x) - x/10")
        xs = np.linspace(-4.0, 4.0, 17)
        batch = rate_expr.evaluate(expr, xs)
        singles = np.array([rate_expr.evaluate(expr, float(x)) for x in xs])
        assert np.array_equal(batch, singles)

    def test_constant_expression_broadcasts(self):
        out = rate_expr.evaluate(rate_expr.parse_text("3"), np.zeros(5))
        assert out.shape == (5,)
        assert np.all(out == 3.0)

    def test_scalar_returns_float(self):
        assert isinstance(ev("x", 2.0), float)

    def test_division_by_zero_position(self):
        expr = rate_expr.parse_text("1/(x-1)")
        with pytest.raises(EvalError) as err:
            rate_expr.evaluate(expr, 1.0)
        assert err.value.position == 1

    def test_log_of_negative(self):
        with pytest.raises(EvalError) as err:
            ev("log(-1)")
        assert err.value.position == 0

    def test_sqrt_of_negative(self):
        with pytest.raises(EvalError):
            ev("sqrt(-4)")

    def test_overflow(self):
        with pytest.raises(EvalError):
            ev("exp(1000)")

    def test_array_error_reports_offending_x(self):
        expr = rate_expr.parse_text("1/x")
        with pytest.raises(EvalError) as err:
            rate_expr.evaluate(expr, np.array([1.0, 0.0, 2.0]))
        assert "x=0.0" in str(err.value)

    def test_nonfinite_input_rejected(self):
        expr = rate_expr.parse_text("x")
        with pytest.raises(ValueError):
            rate_expr.evaluate(expr, math.inf)
        with pytest.raises(InvalidParameter):
            rate_expr.evaluate(expr, np.array([1.0, math.nan]))

    def test_min_max(self):
        assert ev("min(2, x)", 5.0) == 2.0
        assert ev("max(2, x)", 5.0) == 5.0


class TestFiniteness:
    """The rate walk runs with the overflow, divide-by-zero and invalid
    flags trapped, so a node whose finite operands give a value that is
    not finite raises at that node; underflow is a value.  x is checked
    lane by lane, so finite values whose sum overflows pass."""

    # finite values near the largest float, whose sum overflows
    BIG = np.array([1.0e307, 5.0e307, 7.0e307, 2.0e307])

    def test_finite_values_with_an_overflowing_sum_pass(self):
        want = np.add(self.BIG, 1e308)
        with np.errstate(over="ignore"):
            assert np.all(np.isfinite(want)) and np.sum(want) == math.inf
        model = RateModel.from_expression("x + 1e308")
        assert np.array_equal(rate_expr.evaluate(model.source.expr, self.BIG), want)
        assert np.array_equal(model.evaluate(self.BIG), want)
        assert np.array_equal(model._rate(self.BIG), want)

    def test_library_points_with_an_overflowing_sum_pass(self):
        x = np.add(self.BIG, 1e308)
        assert np.array_equal(RateModel.from_expression("x")._rate(x), x)

    @pytest.mark.parametrize("x", [np.array(1e-200), np.array([1.0, 1e-200, 2.0])])
    def test_underflow_to_a_pole_raises_at_the_division(self, x):
        model = RateModel.from_expression("exp(-1/x^2)")
        for call in (model._rate, model.evaluate, lambda x: rate_expr.evaluate(model.source.expr, x)):
            with pytest.raises(EvalError) as err:
                call(x)
            assert err.value.position == 6
            assert "x=1e-200" in str(err.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_library_points_raise(self, bad):
        for text in ("x", "2", "1 + 50*exp(-((x-3)^2)/0.5)"):
            model = RateModel.from_expression(text)
            for x in (np.array(bad), np.array([1.0, bad, 2.0])):
                with pytest.raises(InvalidParameter):
                    model._rate(x)
        step = RateModel.piecewise_constant([0.0, 1.0], [2.0])
        with pytest.raises(InvalidParameter):
            step._rate(np.array([0.5, bad]))

    def test_leaf_trees_skip_the_traps(self, monkeypatch):
        # a number, x and a step set no flag, so their rate calls enter no
        # errstate; a tree with an operator or a function still does
        entered = []
        errstate = np.errstate
        monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
        x = np.linspace(0.0, 9.0, 240)
        leaves = [
            (RateModel.constant(2.0), np.full(240, 2.0)),
            (RateModel.from_expression("x"), x),
            (RateModel.piecewise_constant([0, 2, 5, 8], [3, 1, 4]), np.select(
                [x < 2, x < 5, x <= 8], [3.0, 1.0, 4.0], 0.0)),
        ]
        for model, want in leaves:
            assert model._rate(x).tobytes() == want.tobytes()
        assert entered == []
        for text in ("x + 1", "exp(x)", "-x + 9"):
            RateModel.from_expression(text)._rate(x)
        assert len(entered) == 3

    # (text, finite x where the node at position gives inf or nan, position)
    TRAPS = [
        ("x + 1e308", 1e308, 2),
        ("x - 1e308", -1e308, 2),
        ("x * 1e300", 1e10, 2),
        ("1 / x", 0.0, 2),
        ("x / 1e-300", 1e10, 2),
        ("x ^ 400", 10.0, 2),
        ("x ^ -1", 0.0, 2),
        ("x ^ 0.5", -1.0, 2),
        ("exp(x)", 710.0, 0),
        ("log(x)", 0.0, 0),
        ("log(x)", -1.0, 0),
        ("sqrt(x)", -1.0, 0),
    ]

    @pytest.mark.parametrize("text, bad, position", TRAPS)
    def test_each_operation_traps_its_nonfinite_value(self, text, bad, position):
        model = RateModel.from_expression(text)
        for x in (np.array(bad), np.array([1.0, bad, 2.0])):
            for call in (model._rate, lambda x: rate_expr.evaluate(model.source.expr, x)):
                with pytest.raises(EvalError) as err:
                    call(x)
                assert err.value.position == position
                assert str(err.value).endswith(f" at x={bad!r}")

    @pytest.mark.parametrize("text", ["sin(x)", "cos(x)", "abs(x)", "min(x, -x)", "max(x, -x)"])
    def test_total_functions_of_finite_operands_stay_finite(self, text):
        big = np.finfo(float).max
        xs = np.array([-big, -1e300, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e300, big])
        got = ev(text, xs)
        assert np.all(np.isfinite(got))
        assert [ev(text, float(x)) for x in xs] == got.tolist()

    UNDERFLOWS = [
        ("exp(-1000)", 0.0),
        ("(1e-200)^2", 0.0),
        ("1e-300*1e-300", 0.0),
        ("1e-300*1e-10", 1e-310),
    ]

    @pytest.mark.parametrize("text, want", UNDERFLOWS)
    def test_underflow_is_a_value(self, text, want):
        for x in (0.5, np.zeros(3)):
            got = ev(text, x)
            assert np.asarray(got).tobytes() == np.full(np.shape(x), want).tobytes()
        # under a caller's traps too
        with np.errstate(all="raise"):
            assert ev(text, 0.5) == want

    def test_a_callers_ignore_does_not_hide_a_pole(self):
        with np.errstate(all="ignore"):
            with pytest.raises(EvalError) as err:
                ev("2 + 1/x", np.array([1.0, 0.0]))
        assert err.value.position == 5 and "x=0.0" in str(err.value)

    def test_errstate_is_restored(self):
        before = np.geterr()
        ev("exp(-1000) + 1/x", 2.0)
        assert np.geterr() == before
        with pytest.raises(EvalError):
            ev("1/x", 0.0)
        assert np.geterr() == before


class TestStep:
    def test_padded_levels_are_built_once_outside_the_value(self):
        a = rate_expr.Step((0.0, 1.0, 3.0), (2.0, 5.0))
        b = rate_expr.Step((0.0, 1.0, 3.0), (2.0, 5.0))
        assert a == b and hash(a) == hash(b)
        assert "padded" not in repr(a) and "edges" not in repr(a)
        assert a.padded.tolist() == [0.0, 2.0, 5.0, 0.0]
        assert a.edges.dtype == float and a.edges.tolist() == [0.0, 1.0, 3.0]
        padded, edges = a.padded, a.edges
        xs = np.array([-1.0, 0.0, 0.5, 1.0, 3.0, 4.0])
        assert rate_expr.evaluate(a, xs).tolist() == [0.0, 2.0, 2.0, 5.0, 5.0, 0.0]
        assert rate_expr.evaluate(a, 3.0) == 5.0
        low, high = rate_expr.enclose(a, np.array([-1.0, 0.5]), np.array([0.5, 2.0]))
        assert low.tolist() == [0.0, 2.0] and high.tolist() == [2.0, 5.0]
        assert a.padded is padded and a.edges is edges


class TestAgainstReference:
    def test_random_expressions_agree(self):
        rng = random.Random(12345)
        xs = [-2.7, -0.3, 0.9, 2.2]
        checked = 0
        for _ in range(300):
            text = random_expression(rng, 4)
            for x in xs:
                try:
                    want = reference_eval(text, x)
                    ref_ok = True
                except RefError:
                    ref_ok = False
                try:
                    got = ev(text, x)
                    got_ok = True
                except EvalError:
                    got_ok = False
                assert got_ok == ref_ok, f"disagree on failure for {text!r} at x={x}"
                if got_ok:
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (
                        f"{text!r} at x={x}: {got} vs {want}"
                    )
                    checked += 1
        # the generator must not degenerate into all-error expressions
        assert checked > 400


def enc(text, lo, hi):
    return rate_expr.enclose(rate_expr.parse_text(text), lo, hi)


def _values_where_defined(expr, xs):
    # evaluate point by point only when the whole array fails somewhere
    try:
        return xs, rate_expr.evaluate(expr, xs)
    except EvalError:
        kept, vals = [], []
        for x in xs:
            try:
                vals.append(rate_expr.evaluate(expr, x))
            except EvalError:
                continue
            kept.append(x)
        return np.array(kept), np.array(vals)


class TestEnclose:
    def test_shapes_and_constants(self):
        lo, hi = enc("3", np.zeros(4), np.ones(4))
        assert lo.shape == hi.shape == (4,)
        assert np.all(lo == 3.0) and np.all(hi == 3.0)
        lo, hi = enc("x", 0.25, 0.5)
        assert (float(lo), float(hi)) == (0.25, 0.5)

    def test_outward_by_a_few_ulps(self):
        eps = np.finfo(float).eps
        lo, hi = enc("2 + 0*x", 0.0, 1.0)
        assert 2.0 - 16 * eps <= lo <= 2.0 <= hi <= 2.0 + 16 * eps
        lo, hi = enc("x^2", -1.0, 0.5)
        assert lo <= 0.0 <= lo + 1e-300 and 1.0 <= hi <= 1.0 + 8 * eps
        # numpy's exp carries a few ulps of error: the ends move outward
        lo, hi = enc("exp(x)", 0.0, 1.0)
        assert 1.0 - 16 * eps <= lo < 1.0
        assert math.e < hi <= math.e * (1.0 + 16 * eps)

    def test_exact_operations_stay_exact(self):
        # + - * / and sqrt round monotonically, so their ends need no
        # widening: x - 1 on [1, 2] stays at or above 0 and has a root
        lo, hi = enc("sqrt(x - 1)", 1.0, 2.0)
        assert (float(lo), float(hi)) == (0.0, 1.0)
        assert float(enc("x/4 + 1", 1.0, 2.0)[1]) == 1.5

    def test_even_and_odd_powers(self):
        assert float(enc("x^3", -2.0, 1.0)[0]) == pytest.approx(-8.0)
        assert float(enc("x^4", -2.0, 1.0)[1]) == pytest.approx(16.0)
        assert float(enc("x^4", -2.0, 1.0)[0]) <= 0.0

    def test_sin_and_cos_crests(self):
        # numpy's sin and cos never leave [-1, 1], so a crest or trough
        # inside is exact
        lo, hi = enc("sin(x)", 1.0, 2.0)  # crest pi/2 inside
        assert hi == 1.0 and lo == pytest.approx(math.sin(1.0))
        lo, hi = enc("cos(x)", 3.0, 3.5)  # trough pi inside
        assert lo == -1.0 and hi == pytest.approx(math.cos(3.5))
        assert float(enc("2 + sin(x)", 0.0, 20.0)[1]) == 3.0
        assert enc("sin(1/x)", -1.0, 1.0) == (-1.0, 1.0)
        lo, hi = enc("sin(x)", 0.1, 0.2)  # monotone piece: the ends
        assert lo == pytest.approx(math.sin(0.1)) and hi == pytest.approx(math.sin(0.2))

    @pytest.mark.parametrize(
        "text, lo, hi",
        [
            ("1/x", -1.0, 1.0),  # divisor interval holds 0
            ("1/(x - 0.5)", 0.0, 0.5),  # ... at an end
            ("log(x)", 0.0, 1.0),  # log of a non-positive part
            ("sqrt(x)", -0.5, 1.0),  # sqrt of a negative part
            ("x^0.5", -1.0, 1.0),  # non-integer power of a negative base
            ("x^-1", -1.0, 1.0),  # negative power across 0
            ("(-x)^x", 1.0, 2.0),  # exponent range over a negative base
            ("exp(x)", 700.0, 800.0),  # overflow
            ("x + 1/0", 0.0, 1.0),  # a constant with no value
        ],
    )
    def test_no_finite_enclosure_is_inf(self, text, lo, hi):
        assert enc(text, lo, hi)[1] == math.inf

    def test_lanes_are_independent(self):
        lo = np.array([-1.0, 0.5, 2.0])
        hi = np.array([1.0, 1.0, 3.0])
        low, high = enc("1/x", lo, hi)
        assert high[0] == math.inf
        for i in (1, 2):
            one = enc("1/x", lo[i], hi[i])
            assert (low[i], high[i]) == (float(one[0]), float(one[1]))

    def test_step_ends_are_its_levels(self):
        # the high end is the largest level of the pieces that meet the
        # segment, else 0, bit for bit as the piecewise-constant rate's
        # supremum was; the low end is their smallest level, 0 where the
        # segment reaches past either end; each holds the values inside
        gen = np.random.default_rng(13)
        for _ in range(40):
            n = int(gen.integers(1, 8))
            breaks = np.cumsum(gen.uniform(0.05, 2.0, n + 1)) - 3.0
            levels = np.where(gen.random(n) < 0.3, 0.0, gen.uniform(0.0, 5.0, n))
            step = rate_expr.Step(tuple(breaks.tolist()), tuple(levels.tolist()))
            lo = gen.uniform(breaks[0] - 1.0, breaks[-1] + 1.0, 200)
            # segments starting or ending exactly on a break
            lo[:10] = gen.choice(breaks, 10)
            hi = lo + 10.0 ** gen.uniform(-6.0, 0.5, 200)
            hi[10:20] = np.maximum(gen.choice(breaks, 10), lo[10:20])
            low, high = rate_expr.enclose(step, lo, hi)
            meets = (breaks[:-1] <= hi[:, None]) & (breaks[1:] >= lo[:, None])
            old_sup = np.max(np.where(meets, levels, 0.0), axis=-1)
            assert high.view(np.int64).tolist() == old_sup.view(np.int64).tolist()
            for i in range(lo.size):
                met = levels[meets[i]]
                past = lo[i] < breaks[0] or hi[i] > breaks[-1]
                assert low[i] == (0.0 if past else met.min())
                vals = rate_expr.evaluate(step, np.linspace(lo[i], hi[i], 33))
                assert np.all((vals >= low[i]) & (vals <= high[i]))
                one = rate_expr.enclose(step, np.float64(lo[i]), np.float64(hi[i]))
                assert one[0].shape == () and (one[0], one[1]) == (low[i], high[i])

    def test_fuzz_values_lie_in_enclosure(self):
        # wherever evaluate succeeds at 64 points of a segment, every value
        # lies within that segment's enclosure
        rng = random.Random(2024)
        gen = np.random.default_rng(2024)
        texts = [random_expression(rng, 4) for _ in range(400)] + EXTRA_EXPRESSIONS
        checked = 0
        for text in texts:
            expr = rate_expr.parse_text(text)
            lo = gen.uniform(-10.0, 10.0, 6)
            hi = lo + 10.0 ** gen.uniform(-8.0, 1.0, 6)
            low, high = rate_expr.enclose(expr, lo, hi)
            for i in range(lo.size):
                xs = np.linspace(lo[i], hi[i], 64)
                xs, vals = _values_where_defined(expr, xs)
                assert np.all((vals >= low[i]) & (vals <= high[i])), (
                    f"{text!r} on [{lo[i]!r}, {hi[i]!r}]: values "
                    f"[{vals.min()!r}, {vals.max()!r}] outside [{low[i]!r}, {high[i]!r}]"
                )
                checked += vals.size > 0
        # the generator must not degenerate into all-error expressions
        assert checked > 1000



def _switch_points(source, lo, hi):
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    seg, points = source._switch_points(lo, hi)
    return list(zip(seg.tolist(), points.tolist()))


class TestSwitchPoints:
    def test_no_switch_node_is_none(self):
        assert RateModel.from_expression("2 + sin(x)").source._switch_points(
            np.zeros(1), np.ones(1)
        ) is None

    def test_step_breaks_exactly_and_strictly_inside(self):
        step = RateModel.piecewise_constant([0.0, 2.1, 5.3, 8.0], [3.0, 1.0, 4.0]).source
        got = _switch_points(step, [-1.0, 2.1, 5.0, 7.9], [2.1, 5.3, 8.5, 8.0])
        assert got == [(0, 0.0), (2, 5.3), (2, 8.0)]

    @pytest.mark.parametrize(
        "text, roots",
        [
            ("max(0, sin(x))", [math.pi * k for k in range(-2, 20)]),
            ("abs(x - 1.7) + 1", [1.7]),
            ("min(x^2, 2)", [-math.sqrt(2), math.sqrt(2)]),
            ("max(1, 0.5*x) + abs(x + 3.3)", [-3.3, 2.0]),
        ],
    )
    def test_switches_located_to_a_few_ulps(self, text, roots):
        source = RateModel.from_expression(text).source
        edges = np.linspace(-7.0, 61.0, 1025)
        got = _switch_points(source, edges[:-1], edges[1:])
        roots = [r for r in roots if r < 61.0]
        assert [seg for seg, _ in got] == [int(np.searchsorted(edges, r)) - 1 for r in roots]
        # within a few ulps of the segment's ends
        for (seg, point), root in zip(got, roots):
            ends = max(abs(edges[seg]), abs(edges[seg + 1]))
            assert abs(point - root) <= 8 * np.spacing(ends), (point, root)

    def test_a_pole_is_no_switch_point(self):
        # 1/x changes sign at 0 by a jump, not through 0; x - 1 does at 1
        source = RateModel.from_expression("max(1/x, 0) + abs(x - 1)").source
        edges = np.linspace(-1.03, 2.0, 101)
        got = _switch_points(source, edges[:-1], edges[1:])
        assert [round(point, 12) for _, point in got] == [1.0]

    def test_each_segment_on_its_own(self):
        # a segment's points do not depend on the segments beside it
        source = RateModel.from_expression("max(0, sin(3*x)) + abs(x - 2.5)").source
        edges = np.sort(np.random.default_rng(5).uniform(-10.0, 10.0, 300))
        lo, hi = edges[:-1], edges[1:]
        together = _switch_points(source, lo, hi)
        alone = [
            (i, p) for i in range(len(lo)) for _, p in _switch_points(source, lo[i : i + 1], hi[i : i + 1])
        ]
        assert together == alone and len(together) >= 20

    def test_no_switch_in_range_takes_only_the_hull(self, monkeypatch):
        # the linear family away from its kink: one enclosure over the hull
        calls = []
        meet = rate_expr._meet
        monkeypatch.setattr(rate_expr, "_meet", lambda *a: calls.append(np.size(a[2])) or meet(*a))
        edges = np.linspace(0.0, 40.0, 1025)
        assert _switch_points(RateModel.linear(1.0, 0.5).source, edges[:-1], edges[1:]) == []
        assert calls == [1]
