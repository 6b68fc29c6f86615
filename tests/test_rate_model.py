"""Tests for rate families, domains, bounds, and model validation."""

import math
import os
import pickle
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from ippp.errors import (
    BoundViolation,
    DomainViolation,
    InvalidParameter,
    InvalidRate,
    NegativeRate,
    _real,
)
from ippp.quadrature import cumulative_intensity, integrate
from ippp.rate_expr import Binary, Call, Num, Var
from ippp.rate_model import Domain, Interval, RateModel
from ippp.rng import RngState
from ippp.sampling_bounded import sample_location, simulate_conditional, simulate_window
from ippp.sampling_line import (
    NthPointQuery,
    nth_point_density,
    sample_nth_point,
    sample_path_time_change,
)

from stat_checks import ks_distance, ks_threshold


class TestInterval:
    def test_width(self):
        assert Interval(1.0, 3.5).width == 2.5

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidParameter):
            Interval(2.0, 2.0)
        with pytest.raises(InvalidParameter):
            Interval(3.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidParameter):
            Interval(0.0, math.inf)

    def test_contains(self):
        w = Interval(0.0, 1.0)
        assert w.contains(0.0) and w.contains(1.0) and w.contains(0.5)
        assert not w.contains(-0.1)
        mask = w.contains(np.array([-1.0, 0.5, 2.0]))
        assert mask.tolist() == [False, True, False]


class TestDomain:
    def test_default_is_whole_line(self):
        d = Domain()
        assert d.contains(-1e12) and d.contains(1e12)

    def test_clamp(self):
        d = Domain(0.0, 5.0)
        assert d.clamp(-3.0) == 0.0
        assert d.clamp(7.0) == 5.0
        assert d.clamp(2.0) == 2.0

    def test_rejects_empty(self):
        with pytest.raises(InvalidParameter):
            Domain(1.0, 1.0)


class TestFamilies:
    def test_constant_values(self):
        m = RateModel.constant(2.5)
        assert m.evaluate(0.0) == 2.5
        assert np.all(m.evaluate(np.linspace(-5, 5, 11)) == 2.5)

    def test_linear_values_and_clamp(self):
        m = RateModel.linear(1.0, 2.0)
        assert m.evaluate(0.0) == 1.0
        assert m.evaluate(2.0) == 5.0
        assert m.evaluate(-3.0) == 0.0  # clamped, not negative

    def test_piecewise_lookup(self):
        m = RateModel.piecewise_constant([0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 2.0])
        xs = np.array([-0.5, 0.0, 0.5, 1.0, 1.9, 2.0, 3.0, 3.5])
        want = [0.0, 1.0, 1.0, 4.0, 4.0, 2.0, 2.0, 0.0]
        assert m.evaluate(xs).tolist() == want

    def test_piecewise_validation(self):
        with pytest.raises(InvalidParameter):
            RateModel.piecewise_constant([0.0, 1.0], [1.0, 2.0])
        with pytest.raises(InvalidParameter):
            RateModel.piecewise_constant([0.0, 0.0, 1.0], [1.0, 2.0])
        with pytest.raises(InvalidParameter):
            RateModel.piecewise_constant([0.0, 1.0], [-1.0])

    def test_constant_rejects_negative_level(self):
        # as piecewise_constant does: at construction, not at the first rate call
        with pytest.raises(InvalidParameter, match="level"):
            RateModel.constant(-1.0)
        assert RateModel.constant(0.0).evaluate(1.0) == 0.0

    def test_sinusoidal_values(self):
        m = RateModel.sinusoidal(2.0, 1.0)
        assert m.evaluate(0.0) == pytest.approx(2.0)
        assert m.evaluate(math.pi / 2) == pytest.approx(3.0)

    def test_sinusoidal_rejects_negative_dip(self):
        with pytest.raises(InvalidParameter):
            RateModel.sinusoidal(0.5, 1.0)

    def test_expression_model(self):
        m = RateModel.from_expression("2 + 0.5*sin(x)")
        assert m.evaluate(0.0) == pytest.approx(2.0)
        xs = np.linspace(0, 10, 7)
        assert m.evaluate(xs) == pytest.approx(2 + 0.5 * np.sin(xs))


class TestEvaluateChecks:
    def test_nonfinite_x_is_invalid_parameter(self):
        for model in (RateModel.constant(1.0), RateModel.from_expression("x")):
            for x in (math.inf, np.array([0.0, math.nan])):
                with pytest.raises(InvalidParameter, match="finite"):
                    model.evaluate(x)
        assert issubclass(InvalidParameter, ValueError)

    def test_domain_violation_scalar(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 5.0))
        with pytest.raises(DomainViolation):
            m.evaluate(-0.1)

    def test_domain_violation_reports_offender(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 5.0))
        with pytest.raises(DomainViolation) as err:
            m.evaluate(np.array([1.0, 6.0, 2.0]))
        assert err.value.x == 6.0

    def test_negative_rate_from_expression(self):
        m = RateModel.from_expression("x")
        with pytest.raises(NegativeRate) as err:
            m.evaluate(-2.0)
        assert err.value.x == -2.0
        assert err.value.value == -2.0

    def test_declared_bound_enforced_in_debug(self):
        m = RateModel.from_expression("x^2", declared_bound=1.0)
        assert m.evaluate(0.5) == 0.25
        with pytest.raises(BoundViolation):
            m.evaluate(2.0)

    def test_scalar_float_and_array_shape(self):
        m = RateModel.constant(3.0)
        out = m.evaluate(1.0)
        assert isinstance(out, float)
        arr = m.evaluate(np.zeros((4,)))
        assert arr.shape == (4,)

    def test_scalar_and_array_name_the_same_x(self):
        cases = (
            (RateModel.constant(1.0, domain=Domain(0.0, 5.0)), 6.0, DomainViolation),
            (RateModel.from_expression("x"), -2.0, NegativeRate),
            (RateModel.from_expression("x^2", declared_bound=1.0), 2.0, BoundViolation),
        )
        for model, x, error in cases:
            for arg in (x, np.array([0.5, x, 0.75, x + 0.5]), np.array([[0.5], [x]])):
                with pytest.raises(error) as err:
                    model.evaluate(arg)
                assert err.value.x == x, (model.describe(), arg)


class TestRateCall:
    def test_library_points_do_not_go_through_evaluate(self, monkeypatch):
        # integrate, the checkpoint table, the inverse and the rejection
        # sampler evaluate the rate at points they build inside the
        # domain, through the one rate call that skips evaluate's checks
        def refuse(self, x):
            raise AssertionError("evaluate called on a library point")

        monkeypatch.setattr(RateModel, "evaluate", refuse)
        model = RateModel.from_expression("3 + cos(2*x)/2", domain=Domain(-1.0, 40.0))
        window = Interval(0.0, 12.0)
        assert integrate(model, 0.0, 12.0) == pytest.approx(
            36.0 + math.sin(24.0) / 4.0, abs=2e-9
        )
        ci = cumulative_intensity(model, span=window)
        ts = ci.inverse_many(ci(np.linspace(-1.0, 30.0, 50)))
        assert np.all((ts >= -1.0) & (ts <= 30.0))
        rng = RngState(4)
        assert len(sample_path_time_change(model, window, rng)) > 0
        assert len(simulate_window(model, window, rng)) > 0
        assert len(simulate_conditional(model, window, 20, rng)) == 20


class TestBoundOn:
    def test_constant(self):
        m = RateModel.constant(2.0)
        assert m.bound_on(Interval(-3.0, 9.0)) == 2.0

    def test_linear_at_endpoint(self):
        m = RateModel.linear(1.0, 2.0)
        assert m.bound_on(Interval(0.0, 2.0)) == 5.0
        m2 = RateModel.linear(1.0, -2.0)
        assert m2.bound_on(Interval(0.0, 2.0)) == 1.0

    def test_piecewise_partial_window(self):
        m = RateModel.piecewise_constant([0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 2.0])
        assert m.bound_on(Interval(1.2, 1.8)) == 4.0
        assert m.bound_on(Interval(2.2, 2.8)) == 2.0
        # window sticking outside the pieces sees the zero extension
        assert m.bound_on(Interval(3.5, 4.0)) == 0.0

    def test_sinusoidal_peak_inside(self):
        m = RateModel.sinusoidal(2.0, 1.0)
        assert m.bound_on(Interval(0.0, 20.0)) == 3.0

    def test_sinusoidal_peak_outside(self):
        # on [3, 4] sin is negative and decreasing toward -1
        m = RateModel.sinusoidal(2.0, 1.0)
        b = m.bound_on(Interval(3.0, 4.0))
        assert b == pytest.approx(2.0 + math.sin(3.0))

    def test_sinusoidal_negative_amplitude(self):
        m = RateModel.sinusoidal(2.0, -1.0)
        # trough of sin is the crest here: 3pi/2 is inside [4, 5]
        assert m.bound_on(Interval(4.0, 5.0)) == 3.0

    def test_declared_bound_wins(self):
        m = RateModel.constant(2.0, declared_bound=10.0)
        assert m.bound_on(Interval(0.0, 1.0)) == 10.0

    def test_expression_enclosure(self):
        # the interval enclosure's upper end: at or above the true
        # supremum, within a few ulps of it
        for text, true in (("2 + 0*x", 2.0), ("x^2", 1.0)):
            b = RateModel.from_expression(text).bound_on(Interval(0.0, 1.0))
            assert true <= b <= true * (1.0 + 16 * np.finfo(float).eps)

    def test_unbounded_enclosure_needs_declared_bound(self):
        with pytest.raises(InvalidRate, match="declared_bound"):
            RateModel.from_expression("1/x").bound_on(Interval(-1.0, 1.0))
        # x - x encloses to [-w, w] on a segment of width w, and sqrt of a
        # part below 0 has no finite enclosure; the rate is 1 everywhere
        # and samples under a declared bound
        text = "1 + sqrt(x - x)"
        with pytest.raises(InvalidRate):
            sample_location(RateModel.from_expression(text), Interval(-1.0, 1.0), RngState(1))
        model = RateModel.from_expression(text, declared_bound=1.0)
        xs = sample_location(model, Interval(-1.0, 1.0), RngState(1), size=2000)
        assert ks_distance(xs, lambda t: (t + 1.0) / 2.0) <= ks_threshold(2000)

    def test_window_outside_domain(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 5.0))
        with pytest.raises(DomainViolation):
            m.bound_on(Interval(4.0, 6.0))


# The constant, linear, sinusoidal and piecewise-constant families as rate
# sources of their own, before they became expressions: the reference for
# the expressions.


class _OldSource:
    def _switch_points(self, lo, hi):
        # the integrator splits a segment where the family's expression
        # switches branch; the reference is split at the same points, so
        # that both routes integrate the same pieces
        return self.family().source._switch_points(lo, hi)


@dataclass(frozen=True)
class _OldConstant(_OldSource):
    level: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.full(x.shape, self.level)

    def supremum(self, lo, hi):
        return np.full(np.broadcast(lo, hi).shape, self.level)

    def describe(self):
        return f"constant rate {self.level:g}"

    def family(self):
        return RateModel.constant(self.level)


@dataclass(frozen=True)
class _OldLinear(_OldSource):
    intercept: float
    slope: float

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return np.maximum(0.0, self.intercept + self.slope * x)

    def supremum(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        ends = np.maximum(self.intercept + self.slope * lo, self.intercept + self.slope * hi)
        return np.maximum(0.0, ends)

    def describe(self):
        return f"linear rate max(0, {self.intercept:g} + {self.slope:g}*x)"

    def family(self):
        return RateModel.linear(self.intercept, self.slope)


@dataclass(frozen=True)
class _OldSinusoidal(_OldSource):
    offset: float
    amplitude: float
    frequency: float = 1.0
    phase: float = 0.0

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return self.offset + self.amplitude * np.sin(self.frequency * x + self.phase)

    def supremum(self, lo, hi):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        shape = np.broadcast(lo, hi).shape
        if self.amplitude == 0.0 or self.frequency == 0.0:
            return np.full(shape, self.offset + self.amplitude * math.sin(self.phase))
        target = math.pi / 2.0 if self.amplitude > 0 else -math.pi / 2.0
        a = self.frequency * lo + self.phase
        b = self.frequency * hi + self.phase
        a, b = np.minimum(a, b), np.maximum(a, b)
        k_lo = np.ceil((a - target) / (2.0 * math.pi) - 1e-12)
        k_hi = np.floor((b - target) / (2.0 * math.pi) + 1e-12)
        edge = np.maximum(self(lo), self(hi))
        return np.where(k_lo <= k_hi, self.offset + abs(self.amplitude), edge)

    def describe(self):
        return (
            f"sinusoidal rate {self.offset:g} + {self.amplitude:g}"
            f"*sin({self.frequency:g}*x + {self.phase:g})"
        )

    def family(self):
        return RateModel.sinusoidal(self.offset, self.amplitude, self.frequency, self.phase)


@dataclass(frozen=True)
class _OldPiecewiseConstant(_OldSource):
    """r(x) = levels[i] on [breakpoints[i], breakpoints[i+1]), zero outside.

    The final piece is closed on the right so the last breakpoint still
    carries its level.
    """

    breakpoints: tuple
    levels: tuple

    def __post_init__(self):
        bp = tuple(_real(b, "breakpoint") for b in self.breakpoints)
        lv = tuple(_real(v, "level", low=0.0) for v in self.levels)
        if len(bp) != len(lv) + 1:
            raise InvalidParameter(
                f"need len(breakpoints) == len(levels) + 1, "
                f"got {len(bp)} and {len(lv)}"
            )
        if len(lv) == 0:
            raise InvalidParameter("need at least one piece")
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise InvalidParameter("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        bp = np.asarray(self.breakpoints)
        lv = np.asarray(self.levels)
        idx = np.searchsorted(bp, x, side="right") - 1
        out = np.zeros(x.shape)
        inside = (idx >= 0) & (idx < len(lv))
        out[inside] = lv[idx[inside]]
        # keep the last breakpoint on the final piece
        out[x == bp[-1]] = lv[-1]
        return out

    def supremum(self, lo, hi):
        # the largest level of a piece meeting [lo, hi]; 0 outside the pieces
        lo = np.asarray(lo, dtype=float)[..., None]
        hi = np.asarray(hi, dtype=float)[..., None]
        bp = np.asarray(self.breakpoints)
        meets = (bp[:-1] <= hi) & (bp[1:] >= lo)
        return np.max(np.where(meets, np.asarray(self.levels), 0.0), axis=-1)

    def describe(self) -> str:
        return f"piecewise constant rate with {len(self.levels)} pieces"

    def family(self):
        return RateModel.piecewise_constant(self.breakpoints, self.levels)


OLD_FAMILIES = [
    _OldConstant(2.0),
    _OldConstant(0.0),
    _OldLinear(1.0, 0.5),
    _OldLinear(3.0, -0.7),
    _OldLinear(-2.0, 1.0),
    _OldLinear(0.0, -1.5),
    _OldSinusoidal(2.0, 1.0),
    _OldSinusoidal(20.0, 5.0, 0.1, 0.0),
    _OldSinusoidal(20.0, -5.0, 0.1, 0.3),
    _OldSinusoidal(3.0, 1.0, -2.0),
    _OldSinusoidal(1.0, 1.0, 3.0, -1.0),
    # breaks off the dyadic points of the [-1, 9] window, a level 0 among them
    _OldPiecewiseConstant((-0.5, 1.3, 2.1, 5.3, 7.7), (2.0, 0.0, 3.0, 1.0)),
    _OldPiecewiseConstant((0.1, 0.7, 3.9), (1.5, 6.0)),
    _OldPiecewiseConstant((-0.3, 2.7), (2.0,)),
]


def _sinusoid_level_ok(old_src, new, old):
    # at or above the old supremum, within 4 ulps of the rate's top
    # offset + |amplitude|, and exactly the top where the old one is
    top = old_src.offset + abs(old_src.amplitude)
    new, old = np.asarray(new), np.asarray(old)
    assert np.all(new >= old)
    assert np.all(new - old <= 4 * np.spacing(top))
    assert np.all(new[old == top] == top)
    assert np.all(new <= top)


# the scalar suprema the families had before they took arrays of edges
def _old_linear(src, lo, hi):
    return max(0.0, src.intercept + src.slope * lo, src.intercept + src.slope * hi)


def _old_pwconst(src, lo, hi):
    bp = src.breakpoints
    best = 0.0 if (lo < bp[0] or hi > bp[-1]) else -math.inf
    for i, level in enumerate(src.levels):
        if bp[i] <= hi and bp[i + 1] >= lo:
            best = max(best, level)
    return max(best, 0.0)


def _old_sinusoidal(src, lo, hi):
    if src.amplitude == 0.0 or src.frequency == 0.0:
        return src.offset + src.amplitude * math.sin(src.phase)
    target = math.pi / 2.0 if src.amplitude > 0 else -math.pi / 2.0
    a = src.frequency * lo + src.phase
    b = src.frequency * hi + src.phase
    if a > b:
        a, b = b, a
    k_lo = math.ceil((a - target) / (2.0 * math.pi) - 1e-12)
    k_hi = math.floor((b - target) / (2.0 * math.pi) + 1e-12)
    if k_lo <= k_hi:
        return src.offset + abs(src.amplitude)
    return float(np.asarray(src(np.array([lo, hi]))).max())


class TestVectorSuprema:
    def _windows(self, seed, lo, hi):
        g = np.random.default_rng(seed)
        a = g.uniform(lo, hi, 1000)
        b = a + 10.0 ** g.uniform(-4.0, 1.5, 1000)
        return a, b

    @pytest.mark.parametrize(
        "model, old",
        [
            (RateModel(_OldConstant(2.5)), lambda src, lo, hi: src.level),
            (RateModel(_OldLinear(1.0, 2.0)), _old_linear),
            (RateModel(_OldLinear(3.0, -0.7)), _old_linear),
            (RateModel(_OldPiecewiseConstant((0.0, 1.0, 2.5, 3.0), (1.0, 4.0, 2.0))), _old_pwconst),
            (RateModel(_OldSinusoidal(2.0, 1.0)), _old_sinusoidal),
            (RateModel(_OldSinusoidal(20.0, -5.0, 0.1, 0.3)), _old_sinusoidal),
            (RateModel(_OldSinusoidal(3.0, 1.0, -2.0)), _old_sinusoidal),
            (RateModel(_OldSinusoidal(3.0, 1.0, 0.0, 0.4)), _old_sinusoidal),
        ],
    )
    def test_equal_to_scalar_formulas(self, model, old):
        # pwconst windows start left of the pieces and end right of them;
        # a family's expression encloses as its old vectorized supremum
        # did: bit for bit, and for a sinusoid within a few ulps above
        src = model.source
        lo, hi = self._windows(7, -2.0, 5.0)
        want = [old(src, a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert src.supremum(lo, hi).tolist() == want
        got = src.family().source.supremum(lo, hi)
        assert got.shape == (1000,)
        if isinstance(src, _OldSinusoidal):
            _sinusoid_level_ok(src, got, want)
        else:
            assert got.tolist() == want


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64).tolist()


def _family_window(old):
    if isinstance(old, _OldSinusoidal):
        return Interval(0.3, 90.0)
    return Interval(-1.0, 9.0)


class TestFamiliesAsExpressions:
    def test_describe(self):
        assert RateModel.constant(2).source.describe() == "constant rate 2"
        assert RateModel.linear(1, 0.5).source.describe() == "linear rate max(0, 1 + 0.5*x)"
        assert (
            RateModel.sinusoidal(20, 5, 0.1).source.describe()
            == "sinusoidal rate 20 + 5*sin(0.1*x + 0)"
        )
        for old in OLD_FAMILIES:
            assert old.family().describe() == RateModel(old).describe()

    def test_syntax_tree_positions_index_the_printed_expression(self):
        def walk(node):
            yield node
            if isinstance(node, Call):
                for arg in node.args:
                    yield from walk(arg)
            elif isinstance(node, Binary):
                yield from walk(node.left)
                yield from walk(node.right)

        # a piecewise-constant rate's Step node has no source text
        for old in OLD_FAMILIES:
            if isinstance(old, _OldPiecewiseConstant):
                continue
            src = old.family().source
            text = src.describe().split(" rate ", 1)[1]
            for node in walk(src.expr):
                at = node.position
                if isinstance(node, Binary):
                    assert text[at] == node.op
                elif isinstance(node, Call):
                    assert text.startswith(node.func + "(", at)
                elif isinstance(node, Var):
                    assert text[at] == "x"
                else:
                    assert isinstance(node, Num) and text[at] in "-0123456789"

    def test_parameter_checks(self):
        with pytest.raises(InvalidParameter, match="level"):
            RateModel.constant(math.nan)
        with pytest.raises(InvalidParameter, match="slope"):
            RateModel.linear(1.0, math.inf)
        with pytest.raises(InvalidParameter, match="phase"):
            RateModel.sinusoidal(2.0, 1.0, 1.0, "a")
        with pytest.raises(InvalidParameter, match="amplitude"):
            RateModel.sinusoidal(1.0, -2.0)

    @pytest.mark.parametrize("old", OLD_FAMILIES, ids=repr)
    def test_values_bitwise(self, old):
        xs = np.random.default_rng(3).uniform(-50.0, 50.0, 20_000)
        breaks = getattr(old, "breakpoints", ())
        xs = np.concatenate([xs, [0.0, -0.0, 1e-300, -4.0, 2.0], breaks])
        new = old.family()
        assert _bits(new.evaluate(xs)) == _bits(old(xs))
        assert _bits([new.evaluate(float(x)) for x in xs[:50]]) == _bits(old(xs[:50]))
        ends = xs[-len(breaks) - 5 :]
        assert _bits([new.evaluate(x) for x in ends]) == _bits(old(ends))

    @pytest.mark.parametrize("old", OLD_FAMILIES, ids=repr)
    def test_envelope_levels(self, old):
        window = _family_window(old)
        new = old.family().envelope(window).levels
        want = RateModel(old).envelope(window).levels
        if isinstance(old, _OldSinusoidal):
            _sinusoid_level_ok(old, new, want)
        else:
            assert _bits(new) == _bits(want)

    @pytest.mark.parametrize("old", OLD_FAMILIES, ids=repr)
    def test_integration_route_bitwise(self, old):
        window = _family_window(old)
        new, ref = old.family(), RateModel(old)
        assert integrate(new, window.lo, window.hi) == integrate(ref, window.lo, window.hi)
        ts = np.linspace(window.lo, window.hi, 33)
        ys = np.linspace(0.25, 40.0, 97)
        tables = []
        for model in (new, ref):
            ci = cumulative_intensity(model, span=window)
            r, roots = ci(ts), ci.inverse_many(ci(window.lo) + ys, missing="nan")
            tables.append((_bits(r), _bits(roots), ci.checkpoints))
        assert tables[0] == tables[1]
        query = NthPointQuery(window.lo + 1.0, 3, "above")
        for seed in (1, 2):
            a = sample_path_time_change(new, window, RngState(seed))
            b = sample_path_time_change(ref, window, RngState(seed))
            assert a == b
            a = sample_nth_point(new, query, RngState(seed), size=64)
            b = sample_nth_point(ref, query, RngState(seed), size=64)
            assert _bits(a) == _bits(b)
        grid = np.linspace(window.lo, window.lo + 20.0, 41)
        assert _bits(nth_point_density(new, query, grid)) == _bits(
            nth_point_density(ref, query, grid)
        )

    @pytest.mark.parametrize(
        "old", [o for o in OLD_FAMILIES if not isinstance(o, _OldSinusoidal)], ids=repr
    )
    def test_rejection_bitwise(self, old):
        window = _family_window(old)
        new, ref = old.family(), RateModel(old)
        for seed in (1, 2, 3):
            assert simulate_window(new, window, RngState(seed)) == simulate_window(
                ref, window, RngState(seed)
            )
        if old.family().bound_on(window) > 0.0:
            a = simulate_conditional(new, window, 200, RngState(4))
            b = simulate_conditional(ref, window, 200, RngState(4))
            assert a == b


class TestEnvelope:
    def test_levels_bound_the_rate(self):
        m = RateModel.from_expression("1 + 200*exp(-((x-0.50049)^2)/1e-8)")
        env = m.envelope(Interval(0.0, 1.0))
        assert env.edges.size == env.levels.size + 1 == 1025
        assert env.edges[0] == 0.0 and env.edges[-1] == 1.0
        assert np.all(env.levels >= 1.0)
        # the spike at 0.50049 sits in segment 512; the grid of the old
        # bound (1025 points) missed it
        assert env.levels[512] >= 201.0
        assert m.bound_on(Interval(0.0, 1.0)) == env.levels.max()

    def test_cached_per_window(self):
        m = RateModel.sinusoidal(2.0, 1.0)
        w = Interval(0.0, 3.0)
        assert m.envelope(w) is m.envelope(w)
        assert m.envelope(Interval(0.0, 4.0)) is not m.envelope(w)

    def test_declared_bound_is_flat(self):
        m = RateModel.from_expression("1/x", declared_bound=7.0)
        env = m.envelope(Interval(-1.0, 1.0))
        assert np.all(env.levels == 7.0)

    def test_partition_is_the_integrators(self):
        m = RateModel.constant(1.0)
        env = m.envelope(Interval(0.3, 7.1))
        steps = np.cumsum(np.full(1023, (7.1 - 0.3) / 1024))
        assert env.edges.tolist() == [0.3, *(0.3 + steps).tolist(), 7.1]

    def test_locate_draws_segments_by_mass(self):
        # a fine grid of uniforms through the alias table: each segment's
        # share of the draws is its share of the envelope mass
        m = RateModel.piecewise_constant([0.0, 1.3, 2.0, 5.0], [2.0, 0.0, 7.0])
        env = m.envelope(Interval(-1.0, 6.0))
        n = env.levels.size
        us = (np.arange(200_000) + 0.5) / 200_000
        levels, xs = env.locate(us)
        assert np.all((xs >= -1.0) & (xs <= 6.0))
        assert np.all((levels > 0.0) & (levels >= m.evaluate(xs)))
        seg = np.minimum(np.searchsorted(env.edges, xs, side="right") - 1, n - 1)
        counts = np.bincount(seg, minlength=n)
        masses = env.levels * np.diff(env.edges)
        np.testing.assert_allclose(counts / us.size, masses / env.mass, atol=2e-5)

    def test_negative_everywhere_on_a_segment_raises(self):
        m = RateModel.from_expression("x")
        with pytest.raises(NegativeRate):
            m.envelope(Interval(-1.0, 1.0))


class TestModelObject:
    def test_hashable_and_equal(self):
        a = RateModel.sinusoidal(2.0, 1.0)
        b = RateModel.sinusoidal(2.0, 1.0)
        assert a == b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_expression_models_hashable(self):
        a = RateModel.from_expression("2 + 0.5*sin(x)")
        b = RateModel.from_expression("2 + 0.5*sin(x)")
        assert a == b
        assert len({a, b}) == 1

    def test_hash_is_taken_once(self):
        class CountingHash:
            """A rate source that counts how often it is hashed."""

            def __init__(self, inner):
                self.inner = inner
                self.hashes = 0

            def __call__(self, x):
                return self.inner(x)

            def __eq__(self, other):
                return isinstance(other, CountingHash) and self.inner == other.inner

            def __hash__(self):
                self.hashes += 1
                return hash(self.inner)

        src = CountingHash(RateModel.from_expression("2 + sin(x)").source)
        model = RateModel(source=src)
        cache = {model: 1}
        for _ in range(1000):
            assert cache[model] == 1
        assert src.hashes == 1
        twin = RateModel(source=CountingHash(src.inner))
        assert twin == model and hash(twin) == hash(model)

    def test_hash_survives_pickling_into_another_process(self):
        # string hashes differ between processes, so the cached hash must
        # be taken again on unpickling
        model = RateModel.from_expression("2 + 0.5*sin(x)", declared_bound=3.0)
        code = (
            "import pickle, sys\n"
            "from ippp.rate_model import RateModel\n"
            "twin = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "fresh = RateModel.from_expression('2 + 0.5*sin(x)', declared_bound=3.0)\n"
            "assert twin == fresh and hash(twin) == hash(fresh)\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="12345")
        proc = subprocess.run(
            [sys.executable, "-c", code, pickle.dumps(model).hex()],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_describe_mentions_domain(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 5.0))
        assert "0" in m.describe() and "5" in m.describe()

    def test_invalid_declared_bound(self):
        with pytest.raises(InvalidParameter):
            RateModel.constant(1.0, declared_bound=0.0)
