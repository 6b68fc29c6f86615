"""Tests for adaptive integration and the cumulative intensity map.

The Gauss-Kronrod panel is checked for polynomial exactness (the 15-point
rule must integrate degree <= 22 exactly); running integrals are
cross-checked against scipy.integrate.quad as an independent oracle.
"""

import ast
import math
import os
import random
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.integrate

from ippp.errors import (
    DomainViolation,
    EvalError,
    InvalidParameter,
    NegativeRate,
    OutOfRange,
    ToleranceNotMet,
)
import ippp.quadrature as quadrature
from ippp.quadrature import (
    _PIECE_CAP,
    _SEGMENTS,
    DEFAULT_TOL,
    CumulativeIntensity,
    _dense,
    _judged,
    _masses,
    _panels,
    _WG,
    _WK,
    _XK,
    _cached_intensity,
    _window_intensity,
    cumulative_intensity,
    integrate,
)
from ippp.rate_model import Domain, Interval, RateModel, _partition
from ippp.rng import RngState
from ippp.sampling_bounded import (
    expected_count,
    location_cdf,
    order_statistic_density,
    sample_location,
    simulate_window,
)
from ippp.sampling_line import (
    NthPointQuery,
    nth_point_density,
    sample_nth_point,
    sample_path_time_change,
)

import openblas
from expr_gen import random_expression

TESTS = os.path.dirname(os.path.abspath(__file__))

SIN_MODEL = RateModel.sinusoidal(2.0, 1.0)
UNIT_MODEL = RateModel.constant(1.0)
SPIKE = "1 + 1000*exp(-((x-5.0003)^2)/1e-6)"
BUMP = "1 + 50*exp(-((x-3)^2)/0.5)"
# a spike narrow enough that its segment's pieces are refined
SPIKE2 = "1 + 200*exp(-((x-0.50049)^2)/1e-8)"
# the spike's mass over [0, 10]: 10 + 1000 sqrt(pi 1e-6); its tails past
# the window are below exp(-2.5e7)
SPIKE_MASS = 10.0 + math.sqrt(math.pi)
# the window shifts of the benchmark's plateau case (bench/workloads.py)
PLATEAU_SHIFTS = np.random.default_rng(20190130).uniform(0.0, 2 * math.pi, 8)


def _plateau_mass(a, b):
    """Closed-form integral of max(0, sin(x)) over [a, b]."""

    def antiderivative(t):
        k, r = divmod(t, 2 * math.pi)
        return 2.0 * k + (1.0 - math.cos(r) if r <= math.pi else 2.0)

    return antiderivative(b) - antiderivative(a)


def _panel(f, a, b):
    vals, errs, _ = _panels(f, [a], [b])
    return float(vals[0]), float(errs[0])


class _CountingSource:
    """A rate source that counts its calls and the points it evaluates."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0
        self.points = 0

    def __call__(self, x):
        self.calls += 1
        self.points += np.size(x)
        return self.inner(x)

    def supremum(self, lo, hi):
        return self.inner.supremum(lo, hi)

    def describe(self):
        return self.inner.describe()


class _Budget(Exception):
    """A rate source ran past its call budget."""


class _BudgetSource(_CountingSource):
    """A counting source that raises _Budget once it has made ``budget``
    calls, so that refinement that never ends fails instead of hanging."""

    def __init__(self, inner, budget):
        super().__init__(inner)
        self.budget = budget

    def __call__(self, x):
        if self.calls >= self.budget:
            raise _Budget(f"past {self.budget} rate calls")
        return super().__call__(x)


class _PatchedSource:
    """A rate source equal to ``inner`` except at one point, where it
    returns ``value`` (the limit of a removable singularity there)."""

    def __init__(self, inner, point, value):
        self.inner = inner
        self.point = point
        self.value = value

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        hit = x == self.point
        out = np.full(x.shape, self.value)
        if not np.all(hit):
            out[~hit] = self.inner(x[~hit])
        return out

    def supremum(self, lo, hi):
        return self.inner.supremum(lo, hi)

    def describe(self):
        return self.inner.describe()


def _adaptive_one_piece(f, lows, highs, tol):
    """_masses refined one piece per interval per round: the reference.

    Each interval's stack holds its pieces in position order; a round pops
    the top (rightmost) piece, accepts it when it passes the acceptance
    test or pushes its two halves, right half on top, and adds accepted
    values as they come.
    """
    lows = np.asarray(lows, dtype=float).tolist()
    highs = np.asarray(highs, dtype=float).tolist()
    seg_tol = tol / _SEGMENTS
    totals = [0.0] * len(lows)
    cuts = [1] * len(lows)
    stacks = [[(a, b)] if a != b else [] for a, b in zip(lows, highs)]
    live = [i for i, stack in enumerate(stacks) if stack]
    while live:
        pieces = [stacks[i].pop() for i in live]
        a_s, b_s = np.array([p[0] for p in pieces]), np.array([p[1] for p in pieces])
        spans = np.array([highs[i] - lows[i] for i in live])
        vals, errs, rows = _panels(f, a_s, b_s)
        ok, _, errs = _judged(a_s, b_s, errs, rows, seg_tol * ((b_s - a_s) / spans))
        for i, (a, b), value, good, err in zip(live, pieces, vals.tolist(), ok, errs.tolist()):
            if good:
                totals[i] += value
                continue
            cuts[i] += 1
            if cuts[i] > _PIECE_CAP:
                raise ToleranceNotMet(err, tol)
            mid = 0.5 * (a + b)
            stacks[i].append((a, mid))
            stacks[i].append((mid, b))
        live = [i for i in live if stacks[i]]
    return np.array(totals)


def _below_the_floor(tol):
    """``integrate`` of 2 + sin(x) on [0, 1] at a tol below its rounding
    floor: the ToleranceNotMet it raises as (requested, achieved), the
    root-sum-square of its first panels' misses (about 2e-17), and its rate
    calls, under a budget of 100."""
    src = _BudgetSource(SIN_MODEL.source, 100)
    try:
        integrate(RateModel(source=src), 0.0, 1.0, tol=tol)
    except ToleranceNotMet as err:
        edges = _partition(0.0, 1.0)
        a, b = edges[:-1], edges[1:]
        _, errs, rows = _panels(SIN_MODEL.evaluate, a, b)
        misses = _judged(a, b, errs, rows, tol / _SEGMENTS)[1]
        return err.requested, err.achieved, math.sqrt(math.fsum(misses**2)), src.calls
    raise AssertionError(f"no ToleranceNotMet at tol {tol}")


class TestPanel:
    def test_weights_sum_to_interval_length(self):
        assert float(np.sum(_WK)) == pytest.approx(2.0, abs=1e-15)
        assert float(np.sum(_WG)) == pytest.approx(2.0, abs=1e-15)

    def test_polynomial_exactness_through_degree_22(self):
        for k in range(23):
            val, _ = _panel(lambda x, k=k: x**k, 0.0, 1.0)
            assert val == pytest.approx(1.0 / (k + 1), rel=5e-14), f"degree {k}"

    def test_error_estimate_vanishes_through_degree_13(self):
        # both embedded rules are exact there, so |K15 - G7| is noise
        for k in range(14):
            _, err = _panel(lambda x, k=k: x**k, 0.0, 1.0)
            assert err < 1e-14, f"degree {k}"

    def test_error_estimate_fires_above_gauss_exactness(self):
        _, err = _panel(lambda x: x**16, -1.0, 1.0)
        assert err > 1e-10

    def test_nodes_stay_within_their_lanes(self):
        # a lane a few ulps wide rounds its outer nodes past its ends
        # unless they are clipped, and a lane ending at a domain edge
        # would then evaluate the rate outside the domain
        seen = []

        def f(xs):
            seen.append(xs.copy())
            return np.ones_like(xs)

        one = 1.0
        lows, highs = [], []
        for k in (1, 2, 3, 5, 8):
            for a in (one, -one, 3.0, 1e-300, 0.0):
                b = a
                for _ in range(k):
                    b = math.nextafter(b, math.inf)
                lows += [a, b]  # forward and reversed
                highs += [b, a]
        lows += [-2.0, 7.0]
        highs += [5.0, 7.0]
        _panels(f, lows, highs)
        nodes = seen[0].reshape(len(lows), 15)
        lo = np.minimum(lows, highs)[:, None]
        hi = np.maximum(lows, highs)[:, None]
        assert np.all((nodes >= lo) & (nodes <= hi))

    def test_nodes_stay_within_lanes_of_every_relative_width(self):
        # one call per relative width, from a lane of an ulp or so up past
        # 1e-12 of its magnitude, where the clamp is skipped.  The lanes
        # start a few ulps from a power of 2, where the ulp changes and
        # unclamped nodes of the narrowest lanes round past their ends
        rng = np.random.default_rng(12)
        for rel in 10.0 ** np.linspace(-16.0, -10.0, 25):
            seen = []

            def f(xs):
                seen.append(xs.copy())
                return np.ones_like(xs)

            powers = np.ldexp(rng.choice([-1.0, 1.0], 500), rng.integers(-60, 60, 500))
            lows = powers * (1.0 + rng.integers(-8, 9, 500) * 2.0**-53)
            highs = lows + 2.0 * rel * np.abs(lows) * rng.uniform(1.0, 1.5, 500)
            _panels(f, lows, highs)
            nodes = seen[0].reshape(len(lows), 15)
            assert np.all((nodes >= lows[:, None]) & (nodes <= highs[:, None])), rel


    def test_estimates_do_not_depend_on_their_batch(self):
        # a lane's estimate and miss have the same bits alone and at any
        # place in a batch of panels taken afresh, where its node rates sit
        # at another offset of another array, so its acceptance does too
        rng = np.random.default_rng(31)
        lows = rng.uniform(-1e4, 1e4, 300)
        highs = lows + rng.uniform(1e-3, 10.0, 300)
        _, errs, rows = _panels(SIN_MODEL._rate, lows, highs)
        want = _judged(lows, highs, errs, rows, 1e-12)
        for i in range(0, 300, 7):
            for j in (i, max(0, i - 3), max(0, i - 8)):
                a, b = lows[j : i + 1].copy(), highs[j : i + 1].copy()
                got = _judged(a, b, *_panels(SIN_MODEL._rate, a, b)[1:], 1e-12)
                for g, w in zip(got, want):
                    assert g[-1:].tobytes() == w[i : i + 1].tobytes(), (i, j)
        assert np.any(want[1] > 0) and np.any(want[1] == 0)


class TestIntegrate:
    def test_zero_rate(self):
        assert integrate(RateModel.constant(0.0), 0.0, 5.0) == 0.0

    def test_constant_rate(self):
        assert integrate(RateModel.constant(2.0), 0.0, 3.0) == pytest.approx(
            6.0, abs=DEFAULT_TOL
        )

    def test_linear_rate(self):
        m = RateModel.linear(0.0, 1.0)
        assert integrate(m, 0.0, 2.0) == pytest.approx(2.0, abs=DEFAULT_TOL)

    def test_sinusoidal_against_antiderivative(self):
        want = 2.0 * 20.0 + (math.cos(0.0) - math.cos(20.0))
        assert integrate(SIN_MODEL, 0.0, 20.0) == pytest.approx(want, abs=DEFAULT_TOL)

    def test_expression_against_scipy(self):
        m = RateModel.from_expression("exp(-x^2/8)")
        want, err = scipy.integrate.quad(lambda x: math.exp(-(x**2) / 8), -3.0, 7.0)
        got = integrate(m, -3.0, 7.0)
        assert abs(got - want) <= DEFAULT_TOL + err

    def test_piecewise_discontinuities(self):
        m = RateModel.piecewise_constant([0.0, 1.0, 2.0, 3.0], [1.0, 4.0, 2.0])
        assert integrate(m, 0.5, 2.5) == pytest.approx(5.5, abs=DEFAULT_TOL)

    def test_additivity(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            a, b, c = np.sort(rng.uniform(-10.0, 10.0, size=3))
            whole = integrate(SIN_MODEL, a, c)
            parts = integrate(SIN_MODEL, a, b) + integrate(SIN_MODEL, b, c)
            assert abs(whole - parts) <= 3 * DEFAULT_TOL

    def test_degenerate_interval(self):
        assert integrate(SIN_MODEL, 1.5, 1.5) == 0.0

    def test_reversed_endpoints_rejected(self):
        with pytest.raises(InvalidParameter):
            integrate(SIN_MODEL, 2.0, 1.0)

    def test_endpoint_outside_domain(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 5.0))
        with pytest.raises(DomainViolation):
            integrate(m, -1.0, 3.0)

    def test_bad_tol(self):
        with pytest.raises(InvalidParameter):
            integrate(SIN_MODEL, 0.0, 1.0, tol=0.0)

    def test_negative_rate_propagates(self):
        with pytest.raises(NegativeRate):
            integrate(RateModel.from_expression("x"), -1.0, 1.0)

    def test_eval_error_propagates(self):
        # sqrt of a negative number at the first rate call's nodes below 1
        with pytest.raises(EvalError):
            integrate(RateModel.from_expression("sqrt(x-1)"), 0.0, 2.0)

    def test_divergent_pole_raises(self):
        # pieces next to the pole are accepted at their rounding floors,
        # whose misses add up far past tol
        with pytest.raises(ToleranceNotMet) as err:
            integrate(RateModel.from_expression("1/(x-1)^2"), 0.0, 2.0)
        assert err.value.achieved > 1.0

    def test_pole_reports_negative_rate(self):
        # 1/(x-1) is negative on [0, 1), which the first rate call sees
        with pytest.raises(NegativeRate):
            integrate(RateModel.from_expression("1/(x-1)"), 0.0, 2.0)

    def test_narrow_spike(self):
        # one panel over [0, 10] puts all 15 nodes off the spike
        got = integrate(RateModel.from_expression(SPIKE), 0.0, 10.0)
        assert abs(got - SPIKE_MASS) <= 2 * DEFAULT_TOL

    def test_kinked_rate_against_closed_form(self):
        # a kink between a segment's outermost node and its end is still
        # missed (CHANGES.md FOUND); none of these shifts puts one there
        m = RateModel.from_expression("max(0, sin(x))")
        for s in PLATEAU_SHIFTS:
            want = _plateau_mass(s, s + 60.0)
            assert abs(integrate(m, s, s + 60.0) - want) <= 2 * DEFAULT_TOL, s

    def test_jumps_off_dyadic_points(self):
        m = RateModel.piecewise_constant([0.0, 2.1, 5.3, 8.0], [3.0, 1.0, 4.0])
        assert integrate(m, 0.0, 8.0) == pytest.approx(20.3, abs=2 * DEFAULT_TOL)

    def test_rate_calls(self):
        # counts, not times: they do not depend on machine load
        for text, a, b, most in (
            ("2+sin(x)", 0.0, 2000.0, 2),
            ("max(0, sin(x))", 0.3, 60.3, 64),
        ):
            src = _CountingSource(RateModel.from_expression(text).source)
            integrate(RateModel(source=src), a, b)
            assert src.calls <= most, text

    def test_tolerance_not_met(self):
        with pytest.raises(ToleranceNotMet) as err:
            integrate(SIN_MODEL, 0.0, 1.0, tol=1e-18)
        assert err.value.requested == 1e-18
        assert err.value.achieved > 0


class TestAdaptive:
    RATES = (
        SPIKE,
        "max(0, sin(x))",
        "2+sin(x)",
        RateModel.piecewise_constant([0.0, 2.1, 5.3, 8.0], [3.0, 1.0, 4.0]),
    )

    def test_bitwise_equal_to_one_piece_per_round(self):
        rng = np.random.default_rng(17)
        for rate in self.RATES:
            model = RateModel.from_expression(rate) if isinstance(rate, str) else rate
            lows = rng.uniform(3.0, 7.0, size=40)
            highs = lows + rng.uniform(0.0, 3.0, size=40)
            ok = []
            for a, b in zip(lows, highs):
                a, b = np.array([a]), np.array([b])
                try:
                    want = _adaptive_one_piece(model.evaluate, a, b, DEFAULT_TOL)
                except ToleranceNotMet:
                    # a jump inside a piece: the known defect, in both
                    with pytest.raises(ToleranceNotMet):
                        _masses(model.evaluate, a, b, DEFAULT_TOL)
                    continue
                got = _masses(model.evaluate, a, b, DEFAULT_TOL)[0]
                assert np.array_equal(got, want)
                ok.append((a[0], b[0], float(want[0])))
            assert len(ok) >= 20, model.describe()
            a, b, want = map(np.array, zip(*ok))
            assert np.array_equal(_masses(model.evaluate, a, b, DEFAULT_TOL)[0], want)

    @pytest.mark.parametrize("coretype", [None, "Haswell"])
    def test_tol_below_the_rounding_floor_raises(self, coretype):
        # the floor does not depend on the OpenBLAS kernel: in this process,
        # and in a child under the kernels OPENBLAS_CORETYPE names
        if coretype is None:
            got = _below_the_floor(1e-18)
        else:
            code = f"import sys; sys.path.insert(0, {TESTS!r}); "
            code += "from test_quadrature import _below_the_floor; print(_below_the_floor(1e-18))"
            got = ast.literal_eval(openblas.run(code, coretype).stdout)
        requested, achieved, floor, calls = got
        # every first panel is accepted at its floor: no rate call refines
        assert requested == 1e-18 and achieved == pytest.approx(floor, rel=1e-12)
        assert floor > 1e-17 and calls == 1

    def test_spike_table_panel_calls(self, monkeypatch):
        # a count, not a time: the spike's pieces go 16 to a rate call
        calls = []
        monkeypatch.setattr(
            quadrature, "_panels", lambda *a: calls.append(a) or _panels(*a)
        )
        model = RateModel.from_expression(SPIKE)
        ci = CumulativeIntensity(model, span=Interval(-0.5, 10.0))
        ci(np.array([-0.5, 10.0]))
        assert len(calls) <= 10
        assert abs(ci(10.0) - SPIKE_MASS) <= 2 * DEFAULT_TOL


class TestCumulativeIntensity:
    def test_tolerance_not_met_reports_callers_tol(self):
        with pytest.raises(ToleranceNotMet) as err:
            CumulativeIntensity(SIN_MODEL, tol=1e-18)(1.0)
        assert err.value.requested == 1e-18

    def test_anchored_at_zero(self):
        for model in (UNIT_MODEL, SIN_MODEL, RateModel.linear(1.0, 0.5)):
            assert CumulativeIntensity(model)(0.0) == 0.0

    def test_unit_rate_is_identity(self):
        ci = CumulativeIntensity(UNIT_MODEL)
        for t in (-3.0, -1.0, 2.0, 7.0):
            assert ci(t) == pytest.approx(t, abs=2 * DEFAULT_TOL)

    def test_linear_rate_on_half_line(self):
        m = RateModel.linear(0.0, 1.0, domain=Domain(0.0, math.inf))
        ci = CumulativeIntensity(m)
        assert ci(4.0) == pytest.approx(8.0, abs=2 * DEFAULT_TOL)
        # below the domain R stays at the edge value
        assert ci(-2.0) == 0.0

    def test_checkpoint_consistency(self):
        ci = CumulativeIntensity(SIN_MODEL)
        rng = np.random.default_rng(5)
        for _ in range(15):
            a, b = np.sort(rng.uniform(-20.0, 20.0, size=2))
            gap = ci(b) - ci(a)
            assert abs(gap - integrate(SIN_MODEL, a, b)) <= 2 * DEFAULT_TOL

    def test_query_order_does_not_change_values(self):
        probes = [7.3, 2.1, 9.8, -4.4, 0.5]
        ci1 = CumulativeIntensity(SIN_MODEL)
        vals1 = {t: ci1(t) for t in probes}
        ci2 = CumulativeIntensity(SIN_MODEL)
        vals2 = {t: ci2(t) for t in reversed(probes)}
        assert vals1 == vals2

    def test_vector_matches_scalar(self):
        ci = CumulativeIntensity(SIN_MODEL)
        ts = np.array([-5.0, -1.2, 0.0, 3.3, 11.0])
        batch = ci(ts)
        singles = np.array([ci(float(t)) for t in ts])
        assert np.array_equal(batch, singles)

    def test_nondecreasing_with_plateau(self):
        m = RateModel.piecewise_constant([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
        ci = CumulativeIntensity(m)
        ts = np.linspace(-1.0, 4.0, 101)
        vals = ci(ts)
        assert np.all(np.diff(vals) >= -1e-12)
        # flat across the zero piece
        assert ci(2.0) - ci(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_even_rate_sign_symmetry(self):
        # 2 + cos(x) is even
        m = RateModel.sinusoidal(2.0, 1.0, phase=math.pi / 2)
        ci = CumulativeIntensity(m)
        for t in (0.7, 2.0, 6.5):
            assert ci(-t) == pytest.approx(-ci(t), abs=2 * DEFAULT_TOL)

    def test_checkpoints_table(self):
        ci = CumulativeIntensity(SIN_MODEL)
        ci(3.0)
        pts = ci.checkpoints
        ts = [p[0] for p in pts]
        rs = [p[1] for p in pts]
        assert (0.0, 0.0) in pts
        assert ts == sorted(ts)
        assert all(r2 >= r1 for r1, r2 in zip(rs, rs[1:]))

    def test_factory_caches(self):
        assert cumulative_intensity(SIN_MODEL) is cumulative_intensity(SIN_MODEL)
        spanned = cumulative_intensity(SIN_MODEL, span=Interval(0.0, 20.0))
        assert spanned is not cumulative_intensity(SIN_MODEL)
        assert spanned(10.0) == pytest.approx(
            cumulative_intensity(SIN_MODEL)(10.0), abs=2 * DEFAULT_TOL
        )

    def test_fresh_table_grows_in_one_rate_call_per_side(self, monkeypatch):
        calls = []
        masses = quadrature._masses
        monkeypatch.setattr(
            quadrature, "_masses", lambda *a: calls.append(len(a[1])) or masses(*a)
        )
        ci = CumulativeIntensity(SIN_MODEL, span=Interval(-0.5, 10.0))
        ci._cover(-0.5, 10.0)
        # 1024 segments of the span above the anchor, then one batch below
        assert calls == [1024, 128]
        reference = CumulativeIntensity(SIN_MODEL, span=Interval(-0.5, 10.0))
        for t in np.arange(0.0, 10.01, 1.25):
            reference(t)  # one batch at a time
        reference(-0.5)
        assert ci.checkpoints == reference.checkpoints

    def test_large_growth_is_split_into_rate_calls(self, monkeypatch):
        # 4992 segments in calls of at most 1536, with R as if the table
        # had grown one batch at a time
        calls = []
        masses = quadrature._masses
        monkeypatch.setattr(
            quadrature, "_masses", lambda *a: calls.append(len(a[1])) or masses(*a)
        )
        ci = CumulativeIntensity(SIN_MODEL)
        ci(np.array([0.0, 300.0]))
        assert max(calls) <= quadrature._GROWTH_SEGMENTS and len(calls) == 4
        monkeypatch.undo()
        reference = CumulativeIntensity(SIN_MODEL)
        for t in np.arange(0.0, 300.01, 0.5):
            reference(t)
        assert ci.checkpoints == reference.checkpoints

    def test_growth_temporaries_stay_small(self):
        # a default table queried at 0 and 300 grows 4992 segments; in one
        # rate call that took 2.2 MiB of temporaries.  Growth keeps each
        # segment's pieces for the query's build: 152 bytes a segment that
        # is not refined, here every one
        model = RateModel.from_expression("2+sin(x)")
        CumulativeIntensity(model)(1.0)
        grown = CumulativeIntensity(model)
        grown._cover(0.0, 300.0)
        added = grown._added[1] + grown._added[-1]
        kept = sum(a.nbytes for _, _, pieces in grown._pending for a in pieces)
        assert added == 4992 and kept <= 160 * added
        ci = CumulativeIntensity(model)
        tracemalloc.start()
        try:
            ci(np.array([0.0, 300.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - kept < 2**20

    @pytest.mark.parametrize("t", [3e3, 6e3, 1e4])
    def test_far_default_table_ends(self, t):
        # a count, not a time: refinement that does not end runs past the
        # budget of rate calls.  Past about |t| = 3e3 the pieces are
        # accepted at their rounding floor; R at 1e4 takes 14 calls
        src = _BudgetSource(RateModel.from_expression("2+sin(x)").source, 1000)
        ci = CumulativeIntensity(RateModel(source=src))
        err = abs(ci(t) - (2.0 * t - math.cos(t) + 1.0))
        assert err <= 2 * DEFAULT_TOL + (2.0 + math.sin(t)) * math.ulp(t)

    def test_far_nth_draws_end(self):
        # 1000 draws of the 3rd point above 1e4 on a fresh default table,
        # under a budget of rate calls (they take 14)
        src = _BudgetSource(RateModel.from_expression("2+sin(x)").source, 100)
        query = NthPointQuery(1e4, 3, "above")
        xs = sample_nth_point(RateModel(source=src), query, RngState(1), size=1000)
        steps = RngState(1).erlang(3, size=1000)
        err = np.abs(2.0 * xs - np.cos(xs) - (2e4 - math.cos(1e4)) - steps)
        assert np.all(err <= 2 * DEFAULT_TOL + (2.0 + np.sin(xs)) * np.spacing(xs))

    def test_concurrent_queries_agree_with_serial(self):
        reference = CumulativeIntensity(SIN_MODEL)
        probes = np.linspace(-8.0, 12.0, 40)
        want = reference(probes)
        shared = CumulativeIntensity(SIN_MODEL)
        results = {}

        def worker(idx, chunk):
            results[idx] = shared(chunk)

        threads = [
            threading.Thread(target=worker, args=(i, probes[i::4])) for i in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        for i in range(4):
            assert np.array_equal(results[i], want[i::4])


def _sin_mass(a, b):
    """Closed-form mass of 2 + sin(x) over [a, b]."""
    return 2.0 * (b - a) - np.cos(b) + np.cos(a)


class TestWindowTable:
    """The private table of the time-change sampler and the location CDF:
    origin at the window's lower end, the window's partition as its first
    checkpoints."""

    WINDOWS = ((0.0, 20.0), (-3.7, 11.2), (300.0, 350.0), (1e4, 1e4 + 50.0), (1e6, 1e6 + 50.0))

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_checkpoints_are_the_window_partition(self, lo, hi):
        ci = CumulativeIntensity._windowed(SIN_MODEL, DEFAULT_TOL, Interval(lo, hi))
        ts, rs = map(np.array, zip(*ci.checkpoints))
        assert ts.tobytes() == _partition(lo, hi).tobytes()
        assert rs[0] == 0.0 and np.all(np.diff(rs) > 0)

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_edges_make_no_rate_call(self, lo, hi):
        src = _CountingSource(SIN_MODEL.source)
        ci = _window_intensity(RateModel(source=src), DEFAULT_TOL, Interval(lo, hi))
        assert src.calls == 1  # the window's 1024 segments in one call
        edges = ci(np.array([lo, hi]))
        assert ci(lo) == 0.0 and edges[0] == 0.0 and ci(hi) == edges[1]
        assert src.calls == 1

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_R_matches_closed_form(self, lo, hi):
        # inside the window, and past both ends, where the table grows by
        # batches as every table does
        ci = _window_intensity(SIN_MODEL, DEFAULT_TOL, Interval(lo, hi))
        width = hi - lo
        ab = np.random.default_rng(3).uniform(lo - 0.4 * width, hi + 0.4 * width, (40, 2))
        a, b = ab.min(axis=1), ab.max(axis=1)
        err = np.abs(ci(b) - ci(a) - _sin_mass(a, b))
        assert np.max(err) <= 2 * DEFAULT_TOL
        assert abs(ci(hi) - _sin_mass(lo, hi)) <= 2 * DEFAULT_TOL

    @pytest.mark.parametrize(
        "text, lo, hi",
        [
            ("2+sin(x)", 300.0, 350.0),
            ("1+0.5*x", 7.5, 47.5),
            ("1 + 50*exp(-((x-3)^2)/0.5)", -1.0, 9.0),
            (SPIKE, -0.3, 10.2),
            ("max(0, sin(x))", 62.57996794623284, 112.57996794623284),
        ],
    )
    def test_path_mass_is_expected_count(self, text, lo, hi):
        # the same segment masses, summed in order rather than pairwise
        model = RateModel.from_expression(text)
        window = Interval(lo, hi)
        mass = sample_path_time_change(model, window, RngState(4)).meta["mass"]
        want = expected_count(model, window)
        assert abs(mass - want) <= 4 * math.ulp(want)
        assert location_cdf(model, window, hi) == 1.0
        assert location_cdf(model, window, lo) == 0.0

    @pytest.mark.parametrize("lo, hi", WINDOWS)
    def test_path_mass_is_R_at_hi(self, lo, hi):
        # read off the table, with the bits of a query at the checkpoint
        window = Interval(lo, hi)
        mass = sample_path_time_change(SIN_MODEL, window, RngState(6)).meta["mass"]
        fresh = CumulativeIntensity._windowed(SIN_MODEL, DEFAULT_TOL, window)
        assert type(mass) is float
        assert mass == fresh.r_hi == fresh(hi) == _window_intensity(SIN_MODEL, DEFAULT_TOL, window)(hi)

    def test_growth_panels_go_with_the_first_build(self):
        window = Interval(300.0, 350.0)
        ci = CumulativeIntensity._windowed(SIN_MODEL, DEFAULT_TOL, window)
        edges = _partition(300.0, 350.0)
        rows = _panels(SIN_MODEL._rate, edges[:-1], edges[1:])[2]
        ((_, _, (counts, *_, kept)),) = ci._pending
        assert ci._used == 0 and np.all(counts == 1)
        assert kept.tobytes() == rows.tobytes()
        # the window's edges are checkpoints: no piece is built
        ci(np.array([300.0, 350.0]))
        assert ci._used == 0 and ci._pending
        ci(325.01)
        assert _built(ci).size == 1 and not ci._pending
        # a path builds only the segments its points land in; a source of
        # its own, so that no cached table holds the window
        model = RateModel(source=_CountingSource(SIN_MODEL.source))
        es = sample_path_time_change(model, window, RngState(7))
        table = _window_intensity(model, DEFAULT_TOL, window)
        assert 0 < _built(table).size <= len(es)

    def test_cold_order_statistic_density_integrates_once(self, monkeypatch):
        # its density and its CDF read the one window table
        calls = []
        masses = quadrature._masses
        monkeypatch.setattr(
            quadrature, "_masses", lambda *a: calls.append(len(a[1])) or masses(*a)
        )
        # a source of its own, so that no cached table holds the window
        model = RateModel(source=_CountingSource(RateModel.from_expression(BUMP).source))
        order_statistic_density(model, Interval(0.0, 10.0), 2, 5, np.linspace(0.0, 10.0, 11))
        assert calls == [_SEGMENTS]

    def test_expected_count_after_a_path_makes_no_rate_call(self):
        src = _CountingSource(SIN_MODEL.source)
        model, window = RateModel(source=src), Interval(300.0, 350.0)
        sample_path_time_change(model, window, RngState(5))
        calls = src.calls
        assert expected_count(model, window) == integrate(SIN_MODEL, 300.0, 350.0)
        assert src.calls == calls

    def test_far_paths_cost_what_a_path_at_zero_costs(self):
        # rate points per point, a count: it does not depend on machine
        # load.  An origin-0 table took 1520 per point at lo = 1e4.
        def cost(lo):
            src = _CountingSource(SIN_MODEL.source)
            es = sample_path_time_change(
                RateModel(source=src), Interval(lo, lo + 50.0), RngState(9)
            )
            # one rate call: the table's growth, whose panels the pieces
            # the path lands in are built from
            assert src.calls == 1
            return src.points / len(es)

        near = cost(0.0)
        for lo in (1e4, 1e5, 1e6):
            assert cost(lo) <= 1.5 * near, lo

    @pytest.mark.parametrize("lo, width", [(1e6, 500.0), (1e5, 2000.0)])
    def test_far_wide_windows_end(self, lo, width):
        # far out and wide, the pieces are accepted at their rounding
        # floors: a path returns, at the cost in rate points of a window of
        # the same width at 0, or raises ToleranceNotMet naming its misses
        def cost(lo):
            src = _BudgetSource(SIN_MODEL.source, 100)
            es = sample_path_time_change(
                RateModel(source=src), Interval(lo, lo + width), RngState(9)
            )
            return src.points / len(es)

        try:
            far = cost(lo)
        except ToleranceNotMet as err:
            assert err.achieved > err.requested == DEFAULT_TOL
        else:
            assert far <= 1.5 * cost(0.0)

    def test_round_trip_far_out(self):
        # each point's closed-form mass from lo is its target within 2 tol
        lo = 1e6
        window = Interval(lo, lo + 50.0)
        rng, replay = RngState(11), RngState(11)
        es = sample_path_time_change(SIN_MODEL, window, rng)
        ys = np.cumsum(replay.exponential(size=len(es)))
        assert np.max(np.abs(_sin_mass(lo, es.points) - ys)) <= 2 * DEFAULT_TOL

    def test_one_bounded_cache(self):
        window = Interval(300.0, 350.0)
        table = _window_intensity(SIN_MODEL, DEFAULT_TOL, window)
        assert table is _window_intensity(SIN_MODEL, DEFAULT_TOL, window)
        assert table is not cumulative_intensity(SIN_MODEL, span=window)
        # the public table keeps origin 0
        assert cumulative_intensity(SIN_MODEL, span=window)(0.0) == 0.0
        assert _cached_intensity.cache_info().maxsize == 64


class TestInverse:
    def test_constant_rate(self):
        ci = CumulativeIntensity(RateModel.constant(2.0))
        assert ci.inverse(5.0) == pytest.approx(2.5, abs=1e-8)

    def test_identity(self):
        ci = CumulativeIntensity(UNIT_MODEL)
        assert ci.inverse(5.0) == pytest.approx(5.0, abs=1e-8)

    def test_negative_branch(self):
        ci = CumulativeIntensity(UNIT_MODEL)
        assert ci.inverse(-3.0) == pytest.approx(-3.0, abs=1e-8)

    def test_linear_half_line(self):
        m = RateModel.linear(0.0, 1.0, domain=Domain(0.0, math.inf))
        ci = CumulativeIntensity(m)
        assert ci.inverse(8.0) == pytest.approx(4.0, abs=1e-8)

    def test_round_trip(self):
        ci = CumulativeIntensity(SIN_MODEL)
        ys = np.linspace(-30.0, 30.0, 41)
        ts = ci.inverse_many(ys)
        back = ci(ts)
        assert np.max(np.abs(back - ys)) <= 2 * DEFAULT_TOL

    def test_monotone(self):
        ci = CumulativeIntensity(SIN_MODEL)
        ys = np.sort(np.random.default_rng(3).uniform(-20.0, 20.0, size=300))
        ts = ci.inverse_many(ys)
        assert np.all(np.diff(ts) >= 0.0)

    def test_plateau_left_edge(self):
        m = RateModel.piecewise_constant([0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 1.0])
        ci = CumulativeIntensity(m)
        # R hits 1.0 at x=1 and stays flat until 2: infimum convention
        assert ci.inverse(1.0) == pytest.approx(1.0, abs=1e-6)
        # just past the plateau's worth of mass the answer jumps across it
        assert ci.inverse(1.0 + 1e-4) == pytest.approx(2.0 + 1e-4, abs=1e-6)

    def test_bottom_tie_returns_domain_edge(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 3.0))
        ci = CumulativeIntensity(m)
        assert ci.inverse(0.0) == 0.0

    def test_jump_just_past_a_lane_end(self):
        # the solve's lanes end a few ulps short of the jump at 2; nodes
        # that rounded past a lane's end saw the jump from outside, so the
        # lane never met its budget and the inverse raised ToleranceNotMet
        m = RateModel.piecewise_constant([0.0, 2.0, 5.0, 8.0], [3.0, 1.0, 4.0])
        ci = CumulativeIntensity(m, span=Interval(-2.0, 3.0))
        y = float.fromhex("0x1.7ff0dcc106adbp+2")
        assert abs(3.0 * ci.inverse(y) - y) <= 2 * DEFAULT_TOL

    def test_out_of_range_above_bounded_domain(self):
        m = RateModel.piecewise_constant([0.0, 1.0], [2.0], domain=Domain(0.0, 1.0))
        ci = CumulativeIntensity(m)
        with pytest.raises(OutOfRange) as err:
            ci.inverse(2.5)
        assert err.value.y == 2.5
        assert err.value.sup == pytest.approx(2.0, abs=1e-6)
        want = f"2.5 is above the reachable range (highest mass explored: {err.value.sup!r})"
        assert want in str(err.value)

    def test_out_of_range_below(self):
        # the bound reported is R's bottom, the lowest mass explored
        m = RateModel.constant(1.0, domain=Domain(0.0, 3.0))
        ci = CumulativeIntensity(m)
        with pytest.raises(OutOfRange) as err:
            ci.inverse(-0.5)
        assert err.value.y == -0.5
        assert err.value.sup == 0.0
        assert "-0.5 is below the reachable range (lowest mass explored: 0.0)" in str(err.value)
        assert "supremum" not in str(err.value)

    def test_out_of_range_with_unbounded_domain(self):
        # support ends at 1 but the domain is the whole line: the probe
        # must give up at its cap and report the reachable supremum
        m = RateModel.piecewise_constant([0.0, 1.0], [2.0])
        ci = CumulativeIntensity(m)
        with pytest.raises(OutOfRange) as err:
            ci.inverse(2.5)
        assert err.value.sup == pytest.approx(2.0, abs=1e-6)

    def test_inverse_many_nan_policy(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 3.0))
        ci = CumulativeIntensity(m)
        out = ci.inverse_many(np.array([0.5, 4.0]), missing="nan")
        assert out[0] == pytest.approx(0.5, abs=1e-8)
        assert math.isnan(out[1])
        with pytest.raises(OutOfRange):
            ci.inverse_many(np.array([0.5, 4.0]))

    def test_inverse_many_matches_scalar(self):
        # bitwise, and a lane does not depend on the lanes beside it
        cases = [(SIN_MODEL, np.array([-7.0, -0.5, 1.0, 12.0]))]
        for text in ("2+sin(x)", SPIKE, "max(0, sin(x))"):
            ci = CumulativeIntensity(RateModel.from_expression(text))
            ys = np.random.default_rng(5).uniform(ci(0.5), ci(9.5), size=300)
            cases.append((RateModel.from_expression(text), ys))
        for model, ys in cases:
            ci = CumulativeIntensity(model)
            batch = ci.inverse_many(ys)
            singles = np.array([ci.inverse(float(y)) for y in ys])
            assert np.array_equal(batch, singles), model.describe()
            assert np.array_equal(ci.inverse_many(ys[::-1])[::-1], batch)

    def test_monotone_for_near_ties(self):
        # 64 targets tol/8 apart at 200 offsets; the solve must keep
        # their order although each lane stops on its own
        offsets = np.random.default_rng(7).uniform(0.3, 9.7, size=200)
        steps = np.arange(64) * (DEFAULT_TOL / 8)
        for text in ("2+sin(x)", SPIKE, "max(0, sin(x))", "x^2+0.01"):
            ci = CumulativeIntensity(RateModel.from_expression(text))
            for y0 in ci(offsets):
                ts = ci.inverse_many(y0 + steps)
                assert np.all(np.diff(ts) >= 0.0), (text, y0)

    def test_near_ties_far_out(self):
        # R from 1e3 to 1e4, where the gap's rounding floor 2 eps |y| is
        # above 1e-4 tol but 4 eps |y| is still below tol/8
        offsets = np.random.default_rng(19).uniform(62.0, 198.0, size=12)
        steps = np.arange(64) * (DEFAULT_TOL / 8)
        model = RateModel.linear(1.0, 0.5)
        for span in (None, Interval(0.0, 200.0)):
            ci = CumulativeIntensity(model, span=span)
            for y0 in ci(offsets):
                assert 1e3 <= y0 <= 1e4
                ys = y0 + steps
                ts = ci.inverse_many(ys)
                assert np.all(np.diff(ts) >= 0.0), (span, y0)
                singles = np.array([ci.inverse(float(y)) for y in ys])
                assert np.array_equal(ts, singles), (span, y0)

    def test_round_trip_on_spike_flank(self):
        m = RateModel.from_expression(SPIKE)
        ci = CumulativeIntensity(m, span=Interval(-0.5, 10.0))
        ys = np.random.default_rng(11).uniform(ci(4.99), ci(5.01), size=20_000)
        ts = ci.inverse_many(ys)
        assert np.max(np.abs(ci(ts) - ys)) <= 2 * DEFAULT_TOL

    def test_removable_singularity_at_a_checkpoint(self):
        # 0/0 at the anchor or at another checkpoint, where the panels
        # never evaluate: R must not need the rate there, and it must be
        # the R of the same rate with the limit filled in
        cases = [
            ("2 + sin(x)/x", 0.0, 3.0, None),
            ("x/(exp(x)-1)", 0.0, 1.0, Interval(-3.0, 5.0)),
            ("2 + sin(x-1)/(x-1)", 1.0, 3.0, None),
        ]
        points = np.random.default_rng(23).uniform(-3.0, 5.0, size=200)
        for text, point, limit, span in cases:
            model = RateModel.from_expression(text)
            with pytest.raises(EvalError):
                model.evaluate(point)
            patched = RateModel(source=_PatchedSource(model.source, point, limit))
            ci = CumulativeIntensity(model, span=span)
            ref = CumulativeIntensity(patched, span=span)
            assert np.array_equal(ci(points), ref(points)), text
            assert ci.checkpoints == ref.checkpoints, text
            assert ci(4.5) == pytest.approx(integrate(model, 0.0, 4.5), abs=4 * DEFAULT_TOL)
            ys = np.sort(np.random.default_rng(29).uniform(ci(-2.9), ci(4.9), size=300))
            ts = ci.inverse_many(ys)
            assert np.max(np.abs(ci(ts) - ys)) <= 2 * DEFAULT_TOL, text
            assert np.all(np.diff(ts) >= 0.0), text
            assert np.array_equal(ts, [ci.inverse(float(y)) for y in ys]), text

    def test_checkpoint_query_reads_the_table(self):
        # R at a checkpoint is its stored value, with no rate call; the
        # rate is not evaluated at the point, where 2 + sin(x)/x is 0/0
        singular = RateModel.from_expression("2 + sin(x)/x")
        assert CumulativeIntensity(singular)(0.0) == 0.0
        src = _CountingSource(RateModel.from_expression("2+sin(x)").source)
        ci = CumulativeIntensity(RateModel(source=src))
        ci(3.0)
        ts, rs = map(np.array, zip(*ci.checkpoints))
        src.calls = 0
        assert np.array_equal(ci(ts), rs)
        assert src.calls == 0
        # lanes off the checkpoints keep their own bits in a mixed batch
        mixed = np.concatenate([ts, ts[:-1] + 1e-3])
        singles = [ci(float(t)) for t in mixed]
        assert np.array_equal(ci(mixed), singles)

    def test_round_trip_at_small_tol_and_large_targets(self):
        # R about 8100 at tol 1e-12: 2 eps |y| = 3.6e-12 is above 2 tol,
        # so the gap's rounding floor must be capped at tol.  Targets just
        # past a plateau are reached by bisection, whose gaps pass through
        # every scale.
        model = RateModel.piecewise_constant([0.0, 3.0, 3.5, 5.0], [2700.0, 0.0, 1.0])
        ci = CumulativeIntensity(model, tol=1e-12)
        ys = ci(3.25) + np.random.default_rng(5).uniform(0.0, 1e-8, size=2000)
        ts = ci.inverse_many(ys)
        assert np.max(np.abs(ci(ts) - ys)) <= 2e-12

    def test_rate_points_per_target(self):
        # a count, not a time: it does not depend on machine load
        src = _CountingSource(RateModel.from_expression("2+sin(x)").source)
        ci = CumulativeIntensity(RateModel(source=src))
        lo, hi = ci(0.0), ci(20.0)
        ys = np.random.default_rng(13).uniform(lo, hi, size=10_000)
        src.points = 0
        ci.inverse_many(ys)
        assert src.points / ys.size <= 16

    def test_rate_points_per_target_far_out(self):
        # |y| up to 2.5e5, where one ulp of y exceeds 1e-4 tol: each lane
        # must stop at the rounding floor of its gap instead of bisecting
        src = _CountingSource(RateModel.linear(1.0, 0.5).source)
        ci = CumulativeIntensity(RateModel(source=src), span=Interval(900.0, 1000.0))
        lo, hi = ci(900.0), ci(1000.0)
        ys = np.random.default_rng(13).uniform(lo, hi, size=10_000)
        src.points = 0
        ts = ci.inverse_many(ys)
        assert src.points / ys.size <= 20
        assert np.max(np.abs(ci(ts) - ys)) <= 2 * DEFAULT_TOL

    def test_directional_mass(self):
        ci = CumulativeIntensity(UNIT_MODEL)
        assert ci.directional_mass(0.0, 1, 5.0) == pytest.approx(5.0, abs=1e-9)
        m = RateModel.piecewise_constant([0.0, 1.0], [2.0], domain=Domain(-1.0, 2.0))
        ci2 = CumulativeIntensity(m)
        assert ci2.directional_mass(0.0, 1, 10.0) == pytest.approx(2.0, abs=1e-8)
        assert ci2.directional_mass(1.0, -1, 10.0) == pytest.approx(2.0, abs=1e-8)
        assert ci2.directional_mass(0.0, -1, 10.0) == pytest.approx(0.0, abs=1e-8)

    def test_rejects_nonfinite_targets(self):
        ci = CumulativeIntensity(UNIT_MODEL)
        with pytest.raises(InvalidParameter):
            ci.inverse(math.nan)
        with pytest.raises(InvalidParameter):
            ci.inverse_many(np.array([1.0, math.inf]))


def _built(ci):
    """The store columns of the pieces a table has built, in order."""
    segs = np.flatnonzero(ci._count > 0)
    cols = [np.arange(f, f + n) for f, n in zip(ci._first[segs], ci._count[segs])]
    return np.sort(np.concatenate([[], *cols])).astype(int)


def _same_bits(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLaneOrder:
    """inverse_many solves its lanes in ascending target order and returns
    them in input order: a batch's result must not depend on the order
    its targets come in."""

    # a bounded domain gives R a bottom and a top, with lanes past both
    DOMAIN = Domain(-3.0, 12.0)
    RATES = ("2+sin(x)", SPIKE2, "max(0, sin(x))")

    def _tables(self, text):
        m = RateModel.from_expression(text, domain=self.DOMAIN)
        return {
            "default": CumulativeIntensity(m),
            "span": CumulativeIntensity(m, span=Interval(0.0, 1.0)),
            "window": _window_intensity(m, DEFAULT_TOL, Interval(0.0, 1.0)),
        }

    def _range(self, ci):
        # grown over the whole domain, so R's bottom and top are final
        ci(np.array([self.DOMAIN.lo, self.DOMAIN.hi]))
        return np.array([r for _, r in ci.checkpoints])

    @pytest.mark.parametrize("text", RATES)
    def test_permuted_batch_gives_permuted_result(self, text):
        rng = np.random.default_rng(18)
        for kind, ci in self._tables(text).items():
            r = self._range(ci)
            lo, hi = r[0], r[-1]
            ys = np.concatenate(
                [
                    rng.uniform(lo, hi, 600),
                    rng.choice(r, 60),  # on checkpoints
                    [lo, lo, hi],
                    rng.uniform(lo - 5.0, lo, 20),
                    hi + rng.uniform(0.5, 5.0, 20),
                ]
            )
            ys = np.concatenate([ys, ys[::7]])  # duplicates
            want = ci.inverse_many(ys, missing="nan")
            assert np.isnan(want).sum() >= 40, kind
            assert np.all(want[ys == lo] == self.DOMAIN.lo), kind
            for seed in range(3):
                perm = np.random.default_rng(seed).permutation(ys.size)
                got = ci.inverse_many(ys[perm], missing="nan")
                assert _same_bits(got, want[perm]), (kind, seed)
            m = ys.size // 4 * 4
            got = ci.inverse_many(ys[perm][:m].reshape(4, -1), missing="nan")
            assert _same_bits(got, want[perm][:m].reshape(4, -1)), kind

    # batches as (kind, offset) lanes: "in" at the fraction ``offset`` of
    # R's range, "below" that far under its bottom, "above" that far over
    # its top; with the index of the target OutOfRange names, the first
    # below the range in input order or, failing that, the first above it
    RAISES = [
        ([("above", 1.0), ("in", 0.5), ("below", 2.0), ("below", 0.5), ("above", 3.0)], 2),
        ([("below", 0.5), ("in", 0.2), ("below", 2.0)], 0),
        ([("in", 0.9), ("below", 2.0), ("below", 0.5)], 1),
        ([("above", 1.0), ("in", 0.5), ("above", 3.0)], 0),
        ([("in", 0.1), ("above", 3.0), ("above", 1.0), ("above", 3.0)], 1),
    ]

    @pytest.mark.parametrize("lanes, named", RAISES)
    def test_raise_names_the_same_target(self, lanes, named):
        for kind, ci in self._tables("2+sin(x)").items():
            r = self._range(ci)
            lo, hi = r[0], r[-1]
            where = {
                "in": lambda f: lo + f * (hi - lo),
                "below": lambda d: lo - d,
                "above": lambda d: hi + d,
            }
            ys = np.array([where[side](offset) for side, offset in lanes])
            with pytest.raises(OutOfRange) as err:
                ci.inverse_many(ys)
            assert err.value.y == ys[named], kind
            assert err.value.sup == (lo if lanes[named][0] == "below" else hi), kind


class TestDenseOutput:
    """The pieces between checkpoints that R and its inverse read."""

    def test_piece_antiderivative_is_the_kronrod_interpolant(self):
        # through degree 14 the interpolant is the rate itself, so the
        # piece's antiderivative is exact, and over the whole piece it is
        # the K15 rule
        rows = np.array([_XK**k for k in range(15)])[:, None, :]
        coefs = _dense(rows, np.ones(15), np.zeros(15))
        s = np.linspace(-1.0, 1.0, 9)
        for k, coef in enumerate(coefs):
            want = (s ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.max(np.abs(np.polyval(coef[::-1], s) - want)) < 1e-13, k
        assert np.max(np.abs(coefs.sum(axis=1) - rows[:, 0] @ _WK)) < 1e-13
        # the estimate reads the tail: |K15 - G7| is 0 through degree 13
        ones = np.ones(15)
        _, _, estimates = _judged(-ones, ones, np.zeros(15), rows, 0.0)
        assert np.all(estimates[:13] < 1e-13) and np.all(estimates[13:] > 1e-9)

    def test_cut_coefficients_stay_within_budget(self):
        # coefficients within budget/256 are cut: exact zeros above the
        # piece's degree, and R moved by at most budget/16
        rows = np.exp(-_XK)[None, None, :] * np.ones((3, 1, 1))
        budgets = np.array([0.0, 1e-12, 1e-3])
        coefs = _dense(rows, np.full(3, 0.5), budgets)
        s = np.linspace(-1.0, 1.0, 101)
        full = np.polyval(coefs[0][::-1], s)
        assert np.count_nonzero(coefs[1]) < np.count_nonzero(coefs[0])
        assert np.count_nonzero(coefs[2]) < np.count_nonzero(coefs[1])
        for coef, budget in zip(coefs[1:], budgets[1:]):
            assert np.max(np.abs(np.polyval(coef[::-1], s) - full)) <= budget / 16 + 1e-15

    def test_warm_table_makes_no_rate_calls(self):
        src = _CountingSource(RateModel.from_expression("2+sin(x)").source)
        model = RateModel(source=src)
        query = NthPointQuery(3.0, 5, "above")
        grid = np.linspace(3.0, 43.0, 4001)
        sample_nth_point(model, query, RngState(1), size=10_000)
        nth_point_density(model, query, grid)
        src.calls = 0
        sample_nth_point(model, query, RngState(1), size=10_000)
        assert src.calls == 0
        cumulative_intensity(model)(grid)
        assert src.calls == 0
        # the density's own r(x) is its one rate call
        nth_point_density(model, query, grid)
        assert src.calls == 1

    def test_first_touch_makes_no_rate_call(self):
        # it builds the pieces of the touched segments, and no others
        src = _CountingSource(RateModel.from_expression("2+sin(x)").source)
        ci = CumulativeIntensity(RateModel(source=src))
        ci._cover(0.0, 20.0)
        ts = np.random.default_rng(3).uniform(0.0, 20.0, size=500)
        src.calls = 0
        ci(ts)
        touched = len(set(np.searchsorted(ci._t, ts).tolist()))
        assert src.calls == 0 and _built(ci).size == touched

    def test_segment_pieces_do_not_depend_on_their_batch(self):
        for text in ("2+sin(x)", SPIKE, "max(0, sin(x))"):
            model = RateModel.from_expression(text)
            ts = np.random.default_rng(9).uniform(0.0, 10.0, size=200)
            together = CumulativeIntensity(model)
            together(ts)
            alone = CumulativeIntensity(model)
            for t in ts[::-1]:
                alone(float(t))
            for ci in (together, alone):
                assert ci._used == int(ci._count.sum())
            for i in np.flatnonzero(together._count):
                first, n = together._first[i], together._count[i]
                other = alone._first[i]
                assert n == alone._count[i]
                assert np.array_equal(
                    together._pieces[:, first : first + n], alone._pieces[:, other : other + n]
                ), text

    # (model, window, whether some segment is refined into several pieces)
    TABLES = [
        (lambda: RateModel.from_expression("2+sin(x)"), (0.0, 20.0), False),
        (lambda: RateModel.from_expression(BUMP), (0.0, 10.0), False),
        (lambda: RateModel.from_expression(SPIKE2), (0.0, 1.0), True),
        (lambda: RateModel.piecewise_constant([0, 2, 5, 8], [3, 1, 4]), (0.0, 8.0), False),
        (lambda: RateModel.from_expression("max(0, sin(x))"), (0.0, 20.0), False),
    ]

    @pytest.mark.parametrize("make, window, refines", TABLES)
    def test_dropped_pieces_build_again_the_same(self, make, window, refines):
        # a segment whose kept pieces were dropped is integrated again, in
        # a batch of other segments than its growth's, into the same pieces
        lo, hi = window
        xs = np.random.default_rng(4).uniform(lo, hi, size=300)
        for grow in (
            lambda: CumulativeIntensity._windowed(make(), DEFAULT_TOL, Interval(lo, hi)),
            lambda: CumulativeIntensity(make(), span=Interval(lo, hi)),
        ):
            kept, again = grow(), grow()
            again._cover(lo, hi)
            again._pending = []
            kept(xs), again(xs)
            assert np.array_equal(kept._count, again._count)
            assert np.max(kept._count) > 1 or not refines
            for i in np.flatnonzero(kept._count):
                a, b, n = kept._first[i], again._first[i], kept._count[i]
                want, got = kept._pieces[:, a : a + n], again._pieces[:, b : b + n]
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def _grown(make, window, refines):
        """Default, span and window tables of the model, with R and the
        inverse read across the window."""
        model, span = make(), Interval(*window)
        for ci in (
            CumulativeIntensity(model),
            CumulativeIntensity(model, span=span),
            CumulativeIntensity._windowed(model, DEFAULT_TOL, span),
        ):
            rs = ci(np.linspace(span.lo, span.hi, 257))
            ci.inverse_many(np.random.default_rng(4).uniform(rs[0], rs[-1], 257))
            assert ci._used == int(ci._count.sum()) > 0
            if refines:
                assert np.max(ci._count) > 1
            yield ci

    @pytest.mark.parametrize("make, window, refines", TABLES)
    def test_pieces_from_the_growth_panels_match_a_fresh_panel_call(
        self, make, window, refines, monkeypatch
    ):
        # the first build reads the node rates growth kept, with no rate
        # call: the pieces are those of panels taken afresh on their edges
        span = Interval(*window)
        edges = _partition(span.lo, span.hi)
        xs = 0.5 * (edges[:-1] + edges[1:])  # a point inside every segment
        calls = []
        monkeypatch.setattr(
            quadrature, "_panels", lambda *a: calls.append(len(a[1])) or _panels(*a)
        )
        model = make()
        ci = CumulativeIntensity._windowed(model, DEFAULT_TOL, span)
        calls.clear()
        ci(xs)
        assert calls == []
        cols = _built(ci)
        assert cols.size == ci._used == int(ci._count.sum())
        a, b = ci._pieces[quadrature._LOW, cols], ci._pieces[quadrature._HIGH, cols]
        seg = np.searchsorted(ci._t, a, side="right") - 1
        share = DEFAULT_TOL / _SEGMENTS * ((b - a) / (ci._t[seg + 1] - ci._t[seg]))
        want = _dense(_panels(model._rate, a, b)[2], 0.5 * (b - a), share)
        assert ci._pieces[:16, cols].T.tobytes() == want.tobytes()
        if refines:
            assert np.max(ci._count) > 1

    # the rates of the benchmark mix (bench/mix.py), each with a window
    BENCH_RATES = {
        "const2": (lambda: RateModel.constant(2.0), (0.0, 5.0)),
        "pwconst": (lambda: RateModel.piecewise_constant([0, 2, 5, 8], [3, 1, 4]), (0.0, 8.0)),
        "pwconst_offgrid": (
            lambda: RateModel.piecewise_constant([0, 2.1, 5.3, 8], [3, 1, 4]),
            (0.0, 8.0),
        ),
        "linear": (lambda: RateModel.linear(1.0, 0.5), (0.0, 40.0)),
        "sin": (lambda: RateModel.sinusoidal(2.0, 1.0), (300.0, 350.0)),
        "bigsin": (lambda: RateModel.sinusoidal(20.0, 5.0, 0.1), (0.0, 100.0)),
        "sinexpr": (lambda: RateModel.from_expression("2+sin(x)"), (0.0, 50.0)),
        "bump": (lambda: RateModel.from_expression(BUMP), (-2.0, 8.0)),
        "gauss": (lambda: RateModel.from_expression("exp(-x^2/2)"), (-1.5, 8.5)),
        "plateau": (lambda: RateModel.from_expression("max(0, sin(x))"), (0.0, 60.0)),
        "spike": (lambda: RateModel.from_expression(SPIKE), (-0.3, 10.2)),
        "spike2": (lambda: RateModel.from_expression(SPIKE2), (0.0, 1.0)),
    }

    @pytest.mark.parametrize("name", BENCH_RATES)
    def test_first_build_makes_no_rate_call(self, name):
        make, (lo, hi) = self.BENCH_RATES[name]
        src = _CountingSource(make().source)
        model, window = RateModel(source=src), Interval(lo, hi)
        edges = _partition(lo, hi)
        xs = 0.5 * (edges[:-1] + edges[1:])
        default = CumulativeIntensity(model)
        default._cover(lo, hi)
        ts = default._t[(default._t >= lo) & (default._t <= hi)]
        for ci, xs in (
            (CumulativeIntensity._windowed(model, DEFAULT_TOL, window), xs),
            (default, 0.5 * (ts[:-1] + ts[1:])),
        ):
            # R in every segment, then the inverse there
            src.calls = 0
            rs = ci(xs)
            ci.inverse_many(np.linspace(rs[0], rs[-1], 1000))
            assert src.calls == 0, name

    def test_one_column_mass_is_summed_from_the_top_row_down(self):
        # a build of one segment stores one column; its mass adds rows 15
        # down to 0 in order, as Horner's rule at s = 1 does.  numpy's
        # pairwise reduce of the same 16 numbers rounds some differently,
        # and at least one of these pieces shows it
        model = RateModel.from_expression("2+sin(x)")
        pairwise_differs = 0
        for t in np.random.default_rng(8).uniform(0.0, 1.0, 200):
            ci = CumulativeIntensity(model)
            ci(float(t))
            (col,) = _built(ci)
            coef = ci._pieces[:16, col]
            want = float(coef[15])
            for c in coef[14::-1].tolist():
                want += c
            assert ci._pieces[quadrature._MASS, col] == want
            pairwise_differs += float(np.add.reduce(coef[::-1].copy())) != want
        assert pairwise_differs > 0

    @staticmethod
    def _degrees(ci, cols=None):
        """The highest power of s with a coefficient that is not 0, at
        least 1, of the pieces in columns ``cols`` (every built piece by
        default), read off their coefficients."""
        coef = ci._pieces[:16, _built(ci) if cols is None else cols]
        return np.array([np.flatnonzero(c).max(initial=1) for c in coef.T])

    @pytest.mark.parametrize("make, window, refines", TABLES)
    def test_stored_mass_is_the_polynomial_at_one(self, make, window, refines):
        # the mass the inverse starts from has the bits of Horner's rule at
        # s = 1 over the piece's own degree, on every kind of table
        for ci in self._grown(make, window, refines):
            cols = _built(ci)
            degree = ci._pieces[quadrature._DEGREE, cols].astype(int)
            for d in np.unique(degree):
                cols = _built(ci)[degree == d]
                want = quadrature._horner(ci._pieces[: d + 1, cols], np.ones(cols.size))
                assert ci._pieces[quadrature._MASS, cols].tobytes() == want.tobytes()

    @pytest.mark.parametrize("make, window, refines", TABLES)
    def test_degree_row_is_the_highest_power(self, make, window, refines):
        for ci in self._grown(make, window, refines):
            got = ci._pieces[quadrature._DEGREE, _built(ci)]
            assert np.array_equal(got, self._degrees(ci))

    @classmethod
    def _far_tables(cls):
        # a default table grown to +-68, whose far pieces set a degree the
        # pieces near 0 do not reach, and the plateau, whose kinked pieces
        # reach degree 15
        sin = CumulativeIntensity(RateModel.from_expression("2+sin(x)"))
        sin(np.linspace(-68.0, 68.0, 4001))
        plateau = CumulativeIntensity(RateModel.from_expression("max(0, sin(x))"))
        plateau(np.linspace(-68.0, 68.0, 4001))
        built = _built(sin)
        near = built[np.abs(sin._pieces[quadrature._LOW, built]) < 4.0]
        assert cls._degrees(sin, near).max() < cls._degrees(sin).max()
        assert cls._degrees(plateau).max() == 15
        return sin, plateau

    def test_batch_degree_keeps_the_bits(self, monkeypatch):
        # Horner's rule over all 16 rows of every piece is the reference
        ys = np.random.default_rng(20).uniform(0.0, 10.0, 10_000)
        ts = np.linspace(-10.0, 10.0, 2001)
        for ci in self._far_tables():
            got = ci.inverse_many(ys), ci(ts)
            with monkeypatch.context() as m:
                m.setattr(
                    CumulativeIntensity,
                    "_coefficients",
                    lambda self, cols: np.take(self._pieces[:16], cols, axis=1),
                )
                want = ci.inverse_many(ys), ci(ts)
            assert _same_bits(got[0], want[0]) and _same_bits(got[1], want[1])

    def test_horner_runs_at_the_batch_degree(self, monkeypatch):
        ys = np.random.default_rng(20).uniform(0.0, 10.0, 10_000)
        ts = np.linspace(-10.0, 10.0, 2001)
        for ci in self._far_tables():
            # warm: the calls below build no piece
            ci.inverse_many(ys), ci(ts)
            located, rows = [], []
            locate, horner = CumulativeIntensity._locate, quadrature._horner

            def spy_locate(table, *args):
                located.append(locate(table, *args))
                return located[-1]

            def spy_horner(coef, *args, **kwargs):
                rows.append((len(coef), int(self._degrees(ci, located[-1]).max())))
                return horner(coef, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(CumulativeIntensity, "_locate", spy_locate)
                m.setattr(quadrature, "_horner", spy_horner)
                ci.inverse_many(ys), ci(ts)
            assert len(rows) >= 4
            assert all(n <= degree + 1 for n, degree in rows), rows

    def test_warm_batch_takes_four_horner_calls(self, monkeypatch):
        # R at the anchor (off the checkpoints), two start steps and one
        # round of the root solve, in which every lane converges; the
        # chord's mass is stored, not evaluated
        src = _CountingSource(RateModel.from_expression("2+sin(x)").source)
        model = RateModel(source=src)
        query = NthPointQuery(3.1, 5, "above")
        sample_nth_point(model, query, RngState(1), size=10_000)
        calls = []
        horner = quadrature._horner
        monkeypatch.setattr(
            quadrature, "_horner", lambda *a, **k: calls.append(1) or horner(*a, **k)
        )
        src.calls = 0
        sample_nth_point(model, query, RngState(1), size=10_000)
        assert src.calls == 0
        assert len(calls) <= 4

    def test_tail_catches_content_odd_about_a_piece(self):
        # the window's first segment [-5, 5] is centred on 0, where sin is
        # odd: K15 and G7 both give it no mass, so |K15 - G7| cannot see it
        # and only the interpolant's tail refines the piece
        ci = _window_intensity(SIN_MODEL, DEFAULT_TOL, Interval(-5.0, 10235.0))
        assert ci.checkpoints[1][0] == 5.0
        xs = np.linspace(-4.9, 4.9, 99)
        assert np.max(np.abs(ci(xs) - _sin_mass(-5.0, xs))) <= 2 * DEFAULT_TOL

    def test_R_of_generated_expressions_matches_quad(self):
        # smooth rates from the parser's generator: no kinks (abs, min,
        # max), no singular points (sqrt, log, division)
        rng = random.Random(2019)
        checked = 0
        while checked < 25:
            text = random_expression(rng, depth=3)
            if any(word in text for word in ("abs", "min", "max", "sqrt", "log", "/")):
                continue
            model = RateModel.from_expression(f"2 + sin({text})")
            ci = CumulativeIntensity(model)
            ts = np.linspace(-1.0, 2.0, 13)
            got = ci(ts)
            for t, r in zip(ts, got):
                a, b = sorted((0.0, t))
                want, err = scipy.integrate.quad(
                    lambda x: float(model.evaluate(x)), a, b, epsabs=1e-13, epsrel=1e-13, limit=500
                )
                want = want if t >= 0 else -want
                assert abs(r - want) <= 2 * DEFAULT_TOL + err, (text, t)
            checked += 1


class TestDomainEdges:
    """Rates that cannot be evaluated past a finite domain edge: every
    point the integration and rejection routes evaluate must lie inside
    the domain, up to and at the edge."""

    # (model, closed-form R anchored where 0 clamps into the domain, the
    # edge, a step from the edge into the domain)
    CASES = (
        (
            RateModel.from_expression("sqrt(x)", domain=Domain(0.0, math.inf)),
            lambda t: 2.0 / 3.0 * t**1.5,
            0.0,
            4.0,
        ),
        (
            RateModel.from_expression("sqrt(1-x)", domain=Domain(-math.inf, 1.0)),
            lambda t: 2.0 / 3.0 * (1.0 - (1.0 - t) ** 1.5),
            1.0,
            -4.0,
        ),
        # below 1 the floats are twice as dense, so the nodes of a lane one
        # ulp wide starting at 1 round below it unless clipped
        (
            RateModel.from_expression("sqrt(x-1)", domain=Domain(1.0, math.inf)),
            lambda t: 2.0 / 3.0 * (t - 1.0) ** 1.5,
            1.0,
            4.0,
        ),
    )

    @staticmethod
    def _ulps_from(edge, k, towards):
        x = edge
        for _ in range(k):
            x = math.nextafter(x, towards)
        return x

    def test_integrate_up_to_the_edge(self):
        for model, big_r, edge, inward in self.CASES:
            for k in (1, 3, 1000):
                near = self._ulps_from(edge, k, inward)
                a, b = sorted((near, edge))
                want = abs(big_r(b) - big_r(a))
                assert abs(integrate(model, a, b) - want) <= 2 * DEFAULT_TOL
            a, b = sorted((edge, edge + inward))
            want = big_r(b) - big_r(a)
            assert abs(integrate(model, a, b) - want) <= 2 * DEFAULT_TOL

    def test_table_and_inverse_up_to_the_edge(self):
        for model, big_r, edge, inward in self.CASES:
            near = [self._ulps_from(edge, k, inward) for k in (1, 2, 5)]
            ts = np.array([edge, *near, edge + 0.5 * inward, edge + inward])
            for span in (None, Interval(*sorted((edge, edge + 0.001 * inward)))):
                ci = CumulativeIntensity(model, span=span)
                got = ci(ts)
                assert np.max(np.abs(got - big_r(ts))) <= 2 * DEFAULT_TOL
                # targets up to R at the edge, where the mass runs out
                lo, hi = sorted((ci(edge), ci(edge + inward)))
                ys = np.sort(np.append(got, np.linspace(lo, hi, 40)))
                roots = ci.inverse_many(ys)
                assert np.all((roots >= model.domain.lo) & (roots <= model.domain.hi))
                assert np.max(np.abs(big_r(roots) - ys)) <= 2 * DEFAULT_TOL

    def test_inverse_of_r_an_ulp_inside_the_edge(self):
        # one segment's mass from the last checkpoint but one used to round
        # R there above R at the edge, a target the inverse then refused
        model, big_r, edge, _ = self.CASES[1]
        ci = CumulativeIntensity(model)
        y = ci(edge - 2.0**-53)
        assert y <= ci(edge)
        assert abs(big_r(ci.inverse(y)) - y) <= 2 * DEFAULT_TOL

    def test_rejection_up_to_the_edge(self):
        for model, big_r, edge, inward in self.CASES:
            window = Interval(*sorted((edge, edge + inward)))
            es = simulate_window(model, window, RngState(3))
            want = abs(big_r(window.hi) - big_r(window.lo))
            assert abs(es.meta["mean"] - want) <= 2 * DEFAULT_TOL
            # next to 0, a few ulps are subnormal and hold no mass that a
            # float can show
            ulps = 1e-150 if edge == 0.0 else self._ulps_from(edge, 64, inward)
            for near in (edge + 1e-12 * inward, ulps):
                narrow = Interval(*sorted((near, edge)))
                xs = sample_location(model, narrow, RngState(5), size=200)
                assert np.all((xs >= narrow.lo) & (xs <= narrow.hi))
