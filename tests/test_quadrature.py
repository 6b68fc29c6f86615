"""Tests for adaptive integration and the cumulative intensity map.

The Gauss-Kronrod panel is checked for polynomial exactness (the 15-point
rule must integrate degree <= 22 exactly); running integrals are
cross-checked against scipy.integrate.quad as an independent oracle.
"""

import math
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
    _DEPTH_CAP,
    _SEGMENTS,
    DEFAULT_TOL,
    CumulativeIntensity,
    _adaptive,
    _dense,
    _panels,
    _WG,
    _WK,
    _XK,
    cumulative_intensity,
    integrate,
)
from ippp.rate_model import Domain, Interval, RateModel
from ippp.rng import RngState
from ippp.sampling_bounded import sample_location, simulate_window
from ippp.sampling_line import NthPointQuery, nth_point_density, sample_nth_point

from expr_gen import random_expression

SIN_MODEL = RateModel.sinusoidal(2.0, 1.0)
UNIT_MODEL = RateModel.constant(1.0)
SPIKE = "1 + 1000*exp(-((x-5.0003)^2)/1e-6)"
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
    """_adaptive as one piece per interval per round: the reference.

    Each interval's stack holds its pieces in position order; a round pops
    the top (rightmost) piece, accepts it within budget or pushes its two
    halves, right half on top, and adds accepted values as they come.
    """
    lows = np.asarray(lows, dtype=float).tolist()
    highs = np.asarray(highs, dtype=float).tolist()
    seg_tol = tol / _SEGMENTS
    totals = [0.0] * len(lows)
    stacks = [[(a, b, 0)] if a != b else [] for a, b in zip(lows, highs)]
    live = [i for i, stack in enumerate(stacks) if stack]
    while live:
        pieces = [stacks[i].pop() for i in live]
        vals, errs, _ = _panels(f, [p[0] for p in pieces], [p[1] for p in pieces])
        results = zip(live, pieces, vals.tolist(), errs.tolist())
        for i, (a, b, depth), value, err in results:
            if err <= seg_tol * (b - a) / (highs[i] - lows[i]):
                totals[i] += value
                continue
            if depth >= _DEPTH_CAP:
                raise ToleranceNotMet(err, tol)
            mid = 0.5 * (a + b)
            stacks[i].append((a, mid, depth + 1))
            stacks[i].append((mid, b, depth + 1))
        live = [i for i in live if stacks[i]]
    return np.array(totals)


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
        with pytest.raises(EvalError):
            integrate(RateModel.from_expression("1/(x-1)^2"), 0.0, 2.0)

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
                try:
                    want = _adaptive_one_piece(model.evaluate, [a], [b], DEFAULT_TOL)
                except ToleranceNotMet:
                    # a jump inside a piece: the known defect, in both
                    with pytest.raises(ToleranceNotMet):
                        _adaptive(model.evaluate, [a], [b], DEFAULT_TOL)
                    continue
                got = _adaptive(model.evaluate, [a], [b], DEFAULT_TOL)
                assert np.array_equal(got, want)
                ok.append((a, b, float(want[0])))
            assert len(ok) >= 20, model.describe()
            a, b, want = map(np.array, zip(*ok))
            assert np.array_equal(_adaptive(model.evaluate, a, b, DEFAULT_TOL), want)

    def test_first_panel_reused(self, monkeypatch):
        # intervals whose depth-0 panel is over budget start at their two
        # halves: the same bits and the same reported error, one panel
        # call fewer
        for tol in (DEFAULT_TOL, 1e-18):
            f = RateModel.from_expression("2+sin(40*x)").evaluate
            lows = np.linspace(3.0, 6.0, 7)
            highs = lows + 0.75
            _, errs, _ = _panels(f, lows, highs)
            assert np.all(errs > tol / _SEGMENTS)
            results = []
            for first in (None, errs):
                calls = []
                monkeypatch.setattr(
                    quadrature, "_panels", lambda *a: calls.append(a) or _panels(*a)
                )
                try:
                    got = _adaptive(f, lows, highs, tol, first)
                except ToleranceNotMet as err:
                    got = err.achieved
                results.append((got, len(calls)))
            (want, n_want), (got, n_got) = results
            assert np.array_equal(got, want), tol
            assert n_got == n_want - 1, tol

    def test_depth_cap_still_raises(self):
        with pytest.raises(ToleranceNotMet) as err:
            _adaptive(SIN_MODEL.evaluate, [0.0], [1.0], 1e-18)
        assert err.value.requested == 1e-18

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

    def test_fresh_table_grows_in_one_rate_call(self, monkeypatch):
        calls = []
        masses = quadrature._masses
        monkeypatch.setattr(
            quadrature, "_masses", lambda *a: calls.append(len(a[1])) or masses(*a)
        )
        ci = CumulativeIntensity(SIN_MODEL, span=Interval(-0.5, 10.0))
        ci._cover(-0.5, 10.0)
        # 1024 segments of the span above the anchor and one batch below
        assert calls == [1024 + 128]
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
        # rate call that took 2.2 MiB of temporaries
        model = RateModel.from_expression("2+sin(x)")
        CumulativeIntensity(model)(1.0)
        ci = CumulativeIntensity(model)
        tracemalloc.start()
        try:
            ci(np.array([0.0, 300.0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    def test_out_of_range_below(self):
        m = RateModel.constant(1.0, domain=Domain(0.0, 3.0))
        ci = CumulativeIntensity(m)
        with pytest.raises(OutOfRange):
            ci.inverse(-0.5)

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


class TestDenseOutput:
    """The pieces between checkpoints that R and its inverse read."""

    def test_piece_antiderivative_is_the_kronrod_interpolant(self):
        # through degree 14 the interpolant is the rate itself, so the
        # piece's antiderivative is exact, and over the whole piece it is
        # the K15 rule
        rows = np.array([_XK**k for k in range(15)])[:, None, :]
        coefs, tails = _dense(rows, np.ones(15), np.zeros(15))
        s = np.linspace(-1.0, 1.0, 9)
        for k, coef in enumerate(coefs):
            want = (s ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.max(np.abs(np.polyval(coef[::-1], s) - want)) < 1e-13, k
        assert np.max(np.abs(coefs.sum(axis=1) - rows[:, 0] @ _WK)) < 1e-13
        assert np.all(tails[:13] < 1e-13) and np.all(tails[13:] > 1e-9)

    def test_cut_coefficients_stay_within_budget(self):
        # coefficients within budget/256 are cut: exact zeros above the
        # piece's degree, and R moved by at most budget/16
        rows = np.exp(-_XK)[None, None, :] * np.ones((3, 1, 1))
        budgets = np.array([0.0, 1e-12, 1e-3])
        coefs, _ = _dense(rows, np.full(3, 0.5), budgets)
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

    def test_first_touch_is_one_rate_call(self):
        src = _CountingSource(RateModel.from_expression("2+sin(x)").source)
        ci = CumulativeIntensity(RateModel(source=src))
        ci._cover(0.0, 20.0)
        ts = np.random.default_rng(3).uniform(0.0, 20.0, size=500)
        src.calls = src.points = 0
        ci(ts)
        touched = len(set(np.searchsorted(ci._t, ts).tolist()))
        assert src.calls == 1 and src.points == 15 * touched

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
                    together._pieces[first : first + n], alone._pieces[other : other + n]
                ), text

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
