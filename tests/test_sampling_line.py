"""Tests for the time-change sampler and n-th point queries."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from ippp.errors import InvalidParameter
from ippp.quadrature import cumulative_intensity
from ippp.rate_model import Domain, Interval, RateModel
from ippp.rng import RngState
from ippp.sampling_bounded import simulate_window
from ippp.sampling_line import (
    Direction,
    NthPointQuery,
    _erlang_cap,
    _erlang_cdf,
    nth_point_density,
    nth_point_mass,
    sample_nth_point,
    sample_path_time_change,
)

from stat_checks import ks_distance, ks_threshold, two_sample_ks


UNIT_RATE = RateModel.constant(1.0)

# rate 0.5 on [0, 1], zero elsewhere: total mass one half
HALF_MASS = RateModel.piecewise_constant([0.0, 1.0], [0.5])


def above(anchor, n):
    return NthPointQuery(anchor, n, Direction.ABOVE)


def below(anchor, n):
    return NthPointQuery(anchor, n, Direction.BELOW)


# ------------------------------------------------------------ query types


def test_direction_signs():
    assert Direction.ABOVE.sign == 1
    assert Direction.BELOW.sign == -1


def test_query_accepts_direction_strings():
    q = NthPointQuery(0.0, 2, "below")
    assert q.direction is Direction.BELOW
    assert q.n == 2
    assert q.anchor == 0.0


def test_query_validation():
    with pytest.raises(InvalidParameter):
        NthPointQuery(0.0, 0, Direction.ABOVE)
    with pytest.raises(InvalidParameter):
        NthPointQuery(0.0, 1.5, Direction.ABOVE)
    with pytest.raises(InvalidParameter):
        NthPointQuery(0.0, True, Direction.ABOVE)
    with pytest.raises(InvalidParameter):
        NthPointQuery(math.inf, 1, Direction.ABOVE)
    with pytest.raises(InvalidParameter):
        NthPointQuery(0.0, 1, "sideways")
    with pytest.raises(InvalidParameter):
        NthPointQuery(0.0, 1, 42)


def test_anchor_must_lie_in_domain():
    model = RateModel.constant(1.0, domain=Domain(0.0, 5.0))
    with pytest.raises(InvalidParameter):
        sample_nth_point(model, above(9.0, 1), RngState(1))
    with pytest.raises(InvalidParameter):
        nth_point_density(model, above(9.0, 1), 9.5)
    with pytest.raises(InvalidParameter):
        nth_point_mass(model, above(9.0, 1))


# ------------------------------------------------------------- time change


def test_time_change_zero_rate_empty():
    model = RateModel.piecewise_constant([0.0, 1.0], [0.0])
    es = sample_path_time_change(model, Interval(0.0, 1.0), RngState(3))
    assert len(es) == 0
    assert es.meta["mass"] == pytest.approx(0.0, abs=1e-12)


def test_time_change_basic_realization():
    model = RateModel.constant(2.0)
    window = Interval(0.0, 5.0)
    es = sample_path_time_change(model, window, RngState(4))
    assert es.meta["method"] == "time-change"
    assert es.meta["mass"] == pytest.approx(10.0, abs=1e-8)
    assert np.all(np.diff(es.points) >= 0.0)
    assert np.all((es.points >= 0.0) & (es.points <= 5.0))


def test_time_change_deterministic():
    model = RateModel.sinusoidal(2.0, 1.0)
    window = Interval(0.0, 9.0)
    a = sample_path_time_change(model, window, RngState(5))
    b = sample_path_time_change(model, window, RngState(5))
    assert a == b
    assert a != sample_path_time_change(model, window, RngState(6))


def _loop_arrivals(rng, start, stop):
    ys = []
    y = start + rng.exponential()
    while y <= stop:
        ys.append(y)
        y += rng.exponential()
    return np.asarray(ys)


@pytest.mark.parametrize(
    "start, stop", [(0.3, 0.0), (1.5, 2.5), (-7.25, 1e4 - 7.25), (0.0, 7e4)]
)
def test_block_arrivals_match_scalar_loop(start, stop):
    # empty, short, 10^4-point and multi-block paths: same values and words
    fast, slow = RngState(21, 4), RngState(21, 4)
    got = fast.arrivals(start, stop)
    want = _loop_arrivals(slow, start, stop)
    assert got.tobytes() == want.tobytes()
    assert fast.uniform01() == slow.uniform01()


@pytest.mark.parametrize("hi", [0.01, 3.0, 2000.0])
def test_time_change_matches_scalar_gap_loop(hi):
    model = RateModel.sinusoidal(2.0, 1.0)
    window = Interval(0.0, hi)
    fast, slow = RngState(8), RngState(8)
    es = sample_path_time_change(model, window, fast)
    ci = cumulative_intensity(model, span=window)
    ys = _loop_arrivals(slow, ci(window.lo), ci(window.hi))
    want = np.clip(ci.inverse_many(ys), window.lo, window.hi)
    assert es.points.tobytes() == want.tobytes()
    assert fast.uniform01() == slow.uniform01()


def test_unit_rate_gaps_are_exponential():
    window = Interval(0.0, 10_200.0)
    es = sample_path_time_change(UNIT_RATE, window, RngState(8))
    gaps = np.diff(es.points)
    assert gaps.size >= 10_000
    d = ks_distance(gaps[:10_000], lambda t: 1.0 - np.exp(-t))
    assert d <= ks_threshold(10_000)


def test_time_change_mean_count_matches_rejection_method():
    model = RateModel.sinusoidal(2.0, 1.0)
    window = Interval(0.0, 20.0)
    reps = 400
    tc = np.array(
        [
            len(sample_path_time_change(model, window, RngState(s, stream=1)))
            for s in range(reps)
        ]
    )
    rj = np.array(
        [len(simulate_window(model, window, RngState(s, stream=2))) for s in range(reps)]
    )
    lam = 40.0
    sigma = math.sqrt(2.0 * lam / reps)
    assert abs(tc.mean() - rj.mean()) <= 3.0 * sigma


def test_time_change_locations_match_rejection_method():
    model = RateModel.sinusoidal(2.0, 1.0)
    window = Interval(0.0, 20.0)
    tc = np.concatenate(
        [
            sample_path_time_change(model, window, RngState(s, stream=3)).points
            for s in range(150)
        ]
    )
    rj = np.concatenate(
        [simulate_window(model, window, RngState(s, stream=4)).points for s in range(150)]
    )
    d, thresh = two_sample_ks(tc, rj)
    assert d <= thresh


@pytest.mark.parametrize(
    "text, window, reps",
    [
        # a spike 0.0007 wide: most segments of the span table miss it
        ("1 + 1000*exp(-((x-5.0003)^2)/1e-6)", (0.0, 10.0), 2000),
        # about 20000 points a path, so R reaches 2e4
        ("20 + 5*sin(0.1*x)", (0.0, 1000.0), 30),
    ],
)
def test_time_change_matches_rejection_on_adversarial_rates(text, window, reps):
    # the two routes share no code past the rate: each is the other's oracle
    model = RateModel.from_expression(text)
    window = Interval(*window)
    tc = [sample_path_time_change(model, window, RngState(s, stream=5)).points for s in range(reps)]
    rj = [simulate_window(model, window, RngState(s, stream=6)).points for s in range(reps)]
    tc_counts = np.array([len(p) for p in tc])
    rj_counts = np.array([len(p) for p in rj])
    sigma = math.sqrt(tc_counts.var(ddof=1) / reps + rj_counts.var(ddof=1) / reps)
    assert abs(tc_counts.mean() - rj_counts.mean()) <= 3.0 * sigma
    d, thresh = two_sample_ks(np.concatenate(tc), np.concatenate(rj))
    assert d <= thresh, (d, thresh)


# -------------------------------------------------------------- nth point


def test_nth_point_scalar_draw_unit_rate():
    x = sample_nth_point(UNIT_RATE, above(0.0, 1), RngState(10))
    assert isinstance(x, float)
    assert x > 0.0


def test_nth_point_batch_matches_scalar():
    q = above(0.0, 3)
    scalar = sample_nth_point(UNIT_RATE, q, RngState(11))
    batch = sample_nth_point(UNIT_RATE, q, RngState(11), size=1)
    assert batch.shape == (1,)
    assert scalar == batch[0]


def test_nth_point_unit_rate_is_erlang():
    n_draws = 20_000
    draws = sample_nth_point(UNIT_RATE, above(0.0, 3), RngState(12), size=n_draws)
    assert np.all(np.isfinite(draws))
    mean = draws.mean()
    assert abs(mean - 3.0) <= 3.0 * math.sqrt(3.0 / n_draws)
    d = ks_distance(draws, scipy.stats.gamma(3).cdf)
    assert d <= ks_threshold(n_draws)


def test_nth_point_first_point_exponential_below():
    # unit rate is symmetric, so the first point below 0 mirrors Exp(1)
    draws = sample_nth_point(UNIT_RATE, below(0.0, 1), RngState(13), size=4000)
    d = ks_distance(-draws, lambda t: 1.0 - np.exp(-t))
    assert d <= ks_threshold(4000)


def test_nth_point_no_point_on_exhausted_mass():
    for s in range(10):
        assert sample_nth_point(HALF_MASS, above(1.0, 1), RngState(s)) is None
        assert sample_nth_point(HALF_MASS, below(0.0, 1), RngState(s)) is None


def test_nth_point_nan_lanes_in_batches():
    draws = sample_nth_point(HALF_MASS, above(0.0, 1), RngState(14), size=200)
    finite = draws[np.isfinite(draws)]
    # half the mass lies above 0, so roughly 40% of lanes produce a point
    assert 0 < finite.size < 200
    assert np.all((finite > 0.0) & (finite <= 1.0))


def test_nth_point_mirror_symmetry():
    # even rate about 0: the n-th point below mirrors the n-th point above
    model = RateModel.sinusoidal(2.0, 1.0, phase=math.pi / 2.0)
    n_draws = 4000
    up = sample_nth_point(model, above(0.0, 2), RngState(15), size=n_draws)
    dn = sample_nth_point(model, below(0.0, 2), RngState(16), size=n_draws)
    d, thresh = two_sample_ks(up, -dn)
    assert d <= thresh


def test_nth_point_nesting_under_shared_increments():
    model = RateModel.linear(1.0, 0.5)
    ci = cumulative_intensity(model, 1e-9)
    rng = RngState(17)
    anchor_mass = ci(2.0)
    y = anchor_mass
    prev = 2.0
    for _ in range(5):
        y += rng.exponential()
        nxt = ci.inverse(y)
        assert nxt > prev
        prev = nxt


# ---------------------------------------------------------------- density


def test_density_pinned_exponential():
    got = nth_point_density(UNIT_RATE, above(0.0, 1), 1.0)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-8)
    assert got == pytest.approx(0.36788, abs=5e-6)


def test_density_pinned_erlang2():
    got = nth_point_density(UNIT_RATE, above(0.0, 2), 2.0)
    assert got == pytest.approx(2.0 * math.exp(-2.0), abs=1e-8)
    assert got == pytest.approx(0.27067, abs=5e-6)


def test_density_zero_on_wrong_side():
    assert nth_point_density(UNIT_RATE, above(1.0, 1), 0.5) == 0.0
    assert nth_point_density(UNIT_RATE, above(1.0, 1), 1.0) == 0.0
    assert nth_point_density(UNIT_RATE, below(1.0, 1), 1.5) == 0.0
    got = nth_point_density(UNIT_RATE, above(0.0, 1), np.array([-1.0, 0.0, 1.0]))
    np.testing.assert_allclose(got, [0.0, 0.0, math.exp(-1.0)], atol=1e-8)


def test_density_below_direction():
    got = nth_point_density(UNIT_RATE, below(5.0, 1), 4.0)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-8)


def test_density_linear_family_against_analytic_mass():
    # r(x) = x on x >= 0: mass between a and x is (x^2 - a^2)/2
    model = RateModel.linear(0.0, 1.0, domain=Domain(0.0))
    anchor = 1.0
    xs = np.linspace(1.1, 4.0, 30)
    for n in (1, 3):
        got = nth_point_density(model, above(anchor, n), xs)
        u = (xs * xs - anchor * anchor) / 2.0
        want = xs * scipy.stats.gamma(n).pdf(u)
        np.testing.assert_allclose(got, want, atol=1e-7)


def test_density_scalar_matches_vector():
    xs = np.array([0.5, 2.0, 3.5])
    vec = nth_point_density(UNIT_RATE, above(0.0, 2), xs)
    for x, v in zip(xs, vec):
        assert nth_point_density(UNIT_RATE, above(0.0, 2), float(x)) == v


def test_density_rejects_nonfinite_x():
    with pytest.raises(InvalidParameter):
        nth_point_density(UNIT_RATE, above(0.0, 1), math.nan)


def test_density_histogram_consistency():
    # draws conditioned on existing match the density normalized by its mass
    model = HALF_MASS
    q = above(0.0, 1)
    draws = sample_nth_point(model, q, RngState(18), size=30_000)
    draws = draws[np.isfinite(draws)]
    mass = nth_point_mass(model, q)
    edges = np.linspace(0.0, 1.0, 21)
    observed, _ = np.histogram(draws, bins=edges)
    probs = np.empty(edges.size - 1)
    for i in range(probs.size):
        val, _ = scipy.integrate.quad(
            lambda t: nth_point_density(model, q, t), edges[i], edges[i + 1]
        )
        probs[i] = val / mass
    expected = probs * draws.size
    stat = np.sum((observed - expected) ** 2 / expected)
    assert stat <= scipy.stats.chi2.ppf(0.99, probs.size - 1)


# ------------------------------------------------------------------- mass


def test_mass_one_on_unbounded_direction():
    assert nth_point_mass(UNIT_RATE, above(0.0, 1)) == 1.0
    assert nth_point_mass(UNIT_RATE, below(0.0, 4)) == 1.0


def test_mass_erlang_cdf_of_directional_total():
    for n in (1, 2, 3):
        got = nth_point_mass(HALF_MASS, above(0.0, n))
        assert got == pytest.approx(scipy.stats.gamma(n).cdf(0.5), abs=1e-8)
    got_below = nth_point_mass(HALF_MASS, below(2.0, 1))
    assert got_below == pytest.approx(scipy.stats.gamma(1).cdf(0.5), abs=1e-8)


def test_mass_zero_when_nothing_reachable():
    assert nth_point_mass(HALF_MASS, above(1.0, 1)) == pytest.approx(0.0, abs=1e-12)


def test_mass_matches_density_integral():
    for n in (1, 2):
        q = above(0.25, n)
        total, _ = scipy.integrate.quad(
            lambda t: nth_point_density(HALF_MASS, q, t), 0.25, 1.0, limit=200
        )
        assert total == pytest.approx(nth_point_mass(HALF_MASS, q), abs=1e-6)


def test_erlang_cdf_against_scipy_small_n():
    for n in range(1, 101):
        cap = _erlang_cap(n)
        ms = np.linspace(0.0, cap, 200, endpoint=False)
        got = np.array([_erlang_cdf(n, float(m)) for m in ms])
        want = scipy.special.gammainc(n, ms)
        assert np.max(np.abs(got - want)) <= 1e-13, n


@pytest.mark.parametrize("n", [1000, 10_000])
def test_erlang_cdf_against_scipy_large_n(n):
    ms = np.linspace(0.0, _erlang_cap(n), 600, endpoint=False)
    got = np.array([_erlang_cdf(n, float(m)) for m in ms])
    want = scipy.special.gammainc(n, ms)
    keep = want >= 1e-300
    assert np.count_nonzero(keep) > 100
    assert np.max(np.abs(got[keep] / want[keep] - 1.0)) <= 1e-10


def test_erlang_cap_against_scipy():
    for n in [*range(1, 101), 1000, 10_000]:
        want = scipy.special.gammainccinv(n, 1e-12)
        assert abs(_erlang_cap(n) / want - 1.0) <= 1e-12, n


def test_erlang_cdf_edges():
    for n in (1, 5, 1000):
        cap = _erlang_cap(n)
        assert _erlang_cdf(n, 0.0) == 0.0
        assert _erlang_cdf(n, cap) == 1.0
        assert _erlang_cdf(n, 2.0 * cap) == 1.0
        assert _erlang_cdf(n, float(n)) == pytest.approx(scipy.special.gammainc(n, n), abs=1e-13)


def test_mass_fraction_of_batch_matches():
    q = above(0.0, 1)
    draws = sample_nth_point(HALF_MASS, q, RngState(19), size=20_000)
    frac = np.mean(np.isfinite(draws))
    mass = nth_point_mass(HALF_MASS, q)
    assert abs(frac - mass) <= 3.0 * math.sqrt(mass * (1.0 - mass) / 20_000)


def test_nth_point_spike_band_time_change():
    # the time-change route on the spike the rejection route is tested
    # on: the first point above 0 falls within +-5e-4 of the spike with
    # probability exp(-R(mu - b)) - exp(-R(mu + b))
    model = RateModel.from_expression("1 + 200*exp(-((x-0.50049)^2)/1e-8)")
    mu, band, w = 0.50049, 5e-4, 1e-8

    def R(t):
        s = math.sqrt(w)
        return t + 200.0 * math.sqrt(math.pi * w) / 2.0 * (math.erf((t - mu) / s) - math.erf(-mu / s))

    p = math.exp(-R(mu - band)) - math.exp(-R(mu + band))
    draws = sample_nth_point(model, above(0.0, 1), RngState(19), size=20_000)
    inside = int(np.count_nonzero(np.abs(draws - mu) <= band))
    assert scipy.stats.binomtest(inside, draws.size, p).pvalue > 0.01


@pytest.mark.parametrize("bad", [2.5, True, -1])
def test_nth_point_size_validated(bad):
    with pytest.raises(InvalidParameter):
        sample_nth_point(UNIT_RATE, above(0.0, 1), RngState(1), size=bad)


def test_nth_point_numpy_integer_size():
    draws = sample_nth_point(UNIT_RATE, above(0.0, 1), RngState(1), size=np.int64(3))
    assert draws.shape == (3,)
