"""Tests for bounded-window simulation and the location/order-stat laws."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

import ippp.quadrature as quadrature
import ippp.sampling_bounded as sb
from ippp.errors import (
    BoundViolation,
    DomainViolation,
    InvalidIndex,
    InvalidParameter,
    NonTermination,
    ZeroMass,
    ZeroRate,
)
from ippp.rate_model import Domain, Interval, RateModel
from ippp.rng import RngState
from ippp.sampling_bounded import (
    EventSet,
    expected_count,
    location_cdf,
    location_density,
    order_statistic_density,
    sample_count,
    sample_location,
    simulate_conditional,
    simulate_window,
)
from ippp.sampling_line import sample_path_time_change

from stat_checks import ks_distance, ks_threshold


UNIT = Interval(0.0, 1.0)


# ---------------------------------------------------------------- EventSet


def test_event_set_sorts_and_freezes():
    es = EventSet(Interval(0.0, 10.0), [3.0, 1.0, 2.0])
    assert list(es) == [1.0, 2.0, 3.0]
    assert len(es) == 3
    with pytest.raises(ValueError):
        es.points[0] = 5.0


def test_event_set_rejects_points_outside_window():
    with pytest.raises(InvalidParameter):
        EventSet(UNIT, [0.5, 1.5])
    with pytest.raises(InvalidParameter):
        EventSet(UNIT, [-0.1])


def test_event_set_leaves_the_callers_array_alone():
    # the public constructor copies: it sorts and freezes its own array
    arr = np.array([0.75, 0.25, 0.5])
    es = EventSet(UNIT, arr)
    assert arr.tolist() == [0.75, 0.25, 0.5] and arr.flags.writeable
    assert es.points.tolist() == [0.25, 0.5, 0.75] and not es.points.flags.writeable
    arr[0] = 0.125
    assert es.points.tolist() == [0.25, 0.5, 0.75]
    bad = np.array([0.5, 1.5, 0.25])
    with pytest.raises(InvalidParameter):
        EventSet(UNIT, bad)
    assert bad.tolist() == [0.5, 1.5, 0.25] and bad.flags.writeable


@pytest.mark.parametrize(
    "draw",
    [
        lambda m, w, rng: simulate_window(m, w, rng),
        lambda m, w, rng: simulate_conditional(m, w, 40, rng),
        lambda m, w, rng: sample_path_time_change(m, w, rng),
    ],
    ids=["window", "conditional", "time_change"],
)
def test_sampler_result_is_sorted_and_read_only(draw):
    # samplers hand EventSet the array they built, sorted in place
    es = draw(RateModel.from_expression("1 + 30*exp(-(x-5)^2)"), Interval(0.0, 10.0), RngState(4))
    assert len(es) > 1 and np.all(np.diff(es.points) >= 0.0)
    assert not es.points.flags.writeable
    with pytest.raises(ValueError):
        es.points[0] = 0.0


def test_event_set_empty_ok():
    es = EventSet(UNIT, [])
    assert len(es) == 0
    assert list(es) == []


def test_event_set_equality_and_repr():
    a = EventSet(UNIT, [0.25, 0.5], {"method": "test"})
    b = EventSet(UNIT, [0.5, 0.25], {"method": "test"})
    c = EventSet(UNIT, [0.25, 0.5], {"method": "other"})
    assert a == b
    assert a != c
    assert a != "not an event set"
    assert "method='test'" in repr(a)


# ---------------------------------------------------------- expected count


def test_expected_count_constant():
    model = RateModel.constant(2.0)
    assert expected_count(model, Interval(0.0, 5.0)) == pytest.approx(10.0, abs=1e-9)


def test_expected_count_linear():
    model = RateModel.linear(0.0, 1.0)
    assert expected_count(model, Interval(0.0, 4.0)) == pytest.approx(8.0, abs=1e-9)


def test_expected_count_is_cached():
    # the second call reads the cached window table, with no rate call
    calls = []
    inner = RateModel.constant(3.0).source
    model = RateModel(lambda x: calls.append(1) or inner(x))
    window = Interval(0.0, 7.0)
    want = expected_count(model, window)
    hits, made = quadrature._cached_intensity.cache_info().hits, len(calls)
    assert expected_count(model, window) == want
    assert quadrature._cached_intensity.cache_info().hits == hits + 1
    assert len(calls) == made


def test_expected_count_window_must_fit_domain():
    model = RateModel.constant(1.0, domain=Domain(0.0, 1.0))
    with pytest.raises(DomainViolation):
        expected_count(model, Interval(0.0, 2.0))


# ------------------------------------------------------------ sample count


def test_sample_count_deterministic():
    model = RateModel.constant(2.0)
    window = Interval(0.0, 5.0)
    a = sample_count(model, window, RngState(11))
    b = sample_count(model, window, RngState(11))
    assert a == b
    assert isinstance(a, int)


def test_sample_count_moments():
    model = RateModel.constant(2.0)
    window = Interval(0.0, 5.0)
    n = 20_000
    counts = sample_count(model, window, RngState(5), size=n)
    mean = counts.mean()
    var = counts.var(ddof=1)
    lam = 10.0
    assert abs(mean - lam) <= 3.0 * math.sqrt(lam / n)
    assert abs(var - lam) <= 3.0 * math.sqrt((lam + 2.0 * lam * lam) / n)


# --------------------------------------------------------- sample location


def test_sample_location_scalar_in_window():
    model = RateModel.constant(4.0)
    window = Interval(2.0, 3.0)
    x = sample_location(model, window, RngState(1))
    assert isinstance(x, float)
    assert 2.0 <= x <= 3.0


def test_sample_location_batch_shape_and_range():
    model = RateModel.linear(0.0, 1.0)
    window = Interval(0.0, 4.0)
    xs = sample_location(model, window, RngState(2), size=500)
    assert xs.shape == (500,)
    assert np.all((xs >= 0.0) & (xs <= 4.0))


def test_sample_location_deterministic():
    model = RateModel.constant(1.0)
    a = sample_location(model, UNIT, RngState(9), size=32)
    b = sample_location(model, UNIT, RngState(9), size=32)
    assert np.array_equal(a, b)


def test_constant_rate_locations_are_uniform():
    model = RateModel.constant(3.0)
    window = Interval(1.0, 3.0)
    n = 4000
    xs = sample_location(model, window, RngState(20), size=n)
    d = ks_distance(xs, lambda t: (t - 1.0) / 2.0)
    assert d <= ks_threshold(n)


def test_linear_rate_locations_match_quadratic_cdf():
    model = RateModel.linear(0.0, 1.0)
    window = Interval(0.0, 4.0)
    n = 4000
    xs = sample_location(model, window, RngState(21), size=n)
    d = ks_distance(xs, lambda t: t * t / 16.0)
    assert d <= ks_threshold(n)


def test_sample_location_zero_rate_raises():
    model = RateModel.piecewise_constant([0.0, 1.0], [0.0])
    with pytest.raises(ZeroRate):
        sample_location(model, UNIT, RngState(3))


@dataclass(frozen=True)
class _LowSupremum:
    """The linear rate x with a supremum that under-reports by half."""

    inner: object = RateModel.from_expression("x").source

    def __call__(self, x):
        return self.inner(x)

    def supremum(self, lo, hi):
        return 0.5 * self.inner.supremum(lo, hi)

    def describe(self):
        return "linear rate x with a low supremum"


def test_low_envelope_raises_bound_violation():
    # an envelope below the rate is a broken contract, never doubled
    model = RateModel(_LowSupremum())
    with pytest.raises(BoundViolation) as info:
        sample_location(model, Interval(0.0, 4.0), RngState(13), size=200)
    assert info.value.value > info.value.bound


SPIKE2 = "1 + 200*exp(-((x-0.50049)^2)/1e-8)"


def _words(rng):
    # Philox words drawn so far: four per counter step, less the buffer
    st = rng._bits.state
    ctr = sum(int(v) << (64 * i) for i, v in enumerate(st["state"]["counter"]))
    return 4 * ctr + int(st["buffer_pos"]) - 4


@dataclass(frozen=True)
class _Counted:
    """A rate source that counts its calls and points."""

    inner: object
    tally: list = field(default_factory=lambda: [0, 0], compare=False, hash=False)

    def __call__(self, x):
        self.tally[0] += 1
        self.tally[1] += np.size(x)
        return self.inner(x)

    def supremum(self, lo, hi):
        return self.inner.supremum(lo, hi)

    def describe(self):
        return self.inner.describe()


@pytest.mark.parametrize(
    "model, window",
    [
        (RateModel.sinusoidal(2.0, 1.0), Interval(0.0, 50.0)),
        (RateModel.from_expression(SPIKE2), UNIT),
        (RateModel.piecewise_constant([0.0, 1e-3, 1.0], [1.0, 0.0]), UNIT),
    ],
)
@pytest.mark.parametrize("size", [None, 1, 7, 3000])
def test_two_words_per_candidate(model, window, size):
    counted = RateModel(_Counted(model.source))
    rng = RngState(3)
    sample_location(counted, window, rng, size=size)
    assert _words(rng) == 2 * counted.source.tally[1]


def test_window_is_count_then_locations():
    model = RateModel.from_expression("2 + sin(3*x)")
    window = Interval(0.0, 40.0)
    for s in range(5):
        es = simulate_window(model, window, RngState(s))
        rng = RngState(s)
        count = rng.poisson(es.meta["mean"])
        want = np.sort(sample_location(model, window, rng, size=count))
        assert es.points.tobytes() == want.tobytes()
        cond = simulate_conditional(model, window, 37, RngState(s, 1))
        want = np.sort(sample_location(model, window, RngState(s, 1), size=37))
        assert cond.points.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [2.5, True, -1, "3"])
def test_sample_location_size_validated(bad):
    model = RateModel.sinusoidal(2.0, 1.0)
    with pytest.raises(InvalidParameter):
        sample_location(model, Interval(0.0, 5.0), RngState(1), size=bad)


def test_sample_location_numpy_integer_size():
    model = RateModel.sinusoidal(2.0, 1.0)
    xs = sample_location(model, Interval(0.0, 5.0), RngState(1), size=np.int64(3))
    assert xs.shape == (3,)
    assert sample_location(model, Interval(0.0, 5.0), RngState(1), size=0).shape == (0,)


# ------------------------------------------------------ spiky rates (laws)


def _bump_mass(c, a, mu, w, lo, hi):
    """Closed-form mass of c + a*exp(-(x-mu)^2/w) over [lo, hi]."""
    s = math.sqrt(w)
    return c * (hi - lo) + a * math.sqrt(math.pi * w) / 2.0 * (
        math.erf((hi - mu) / s) - math.erf((lo - mu) / s)
    )


def _binom_p(k, n, p):
    return scipy.stats.binomtest(k, n, p).pvalue


def test_spike_share_conditional():
    # 100 x 200 points: the share within +-5e-4 of the spike is 3.52%
    # (the grid-and-doubling envelope put 0.05% there)
    model = RateModel.from_expression(SPIKE2)
    mu, band = 0.50049, 5e-4
    pts = np.concatenate(
        [simulate_conditional(model, UNIT, 200, RngState(11, s)).points for s in range(100)]
    )
    share = _bump_mass(1.0, 200.0, mu, 1e-8, mu - band, mu + band) / _bump_mass(
        1.0, 200.0, mu, 1e-8, 0.0, 1.0
    )
    assert share == pytest.approx(0.0352, abs=1e-4)
    inside = int(np.count_nonzero(np.abs(pts - mu) <= band))
    assert _binom_p(inside, pts.size, share) > 0.01


def test_spike_share_simulate_window():
    # 1 + 1000*exp(-((x-5.0003)^2)/1e-6) on [0, 10]: counts and band share
    model = RateModel.from_expression("1 + 1000*exp(-((x-5.0003)^2)/1e-6)")
    window = Interval(0.0, 10.0)
    mu, band = 5.0003, 5e-3
    pts = np.concatenate([simulate_window(model, window, RngState(12, s)).points for s in range(1500)])
    mass = _bump_mass(1.0, 1000.0, mu, 1e-6, 0.0, 10.0)
    share = _bump_mass(1.0, 1000.0, mu, 1e-6, mu - band, mu + band) / mass
    inside = int(np.count_nonzero(np.abs(pts - mu) <= band))
    assert _binom_p(inside, pts.size, share) > 0.01
    assert abs(pts.size - 1500 * mass) <= 3.0 * math.sqrt(1500 * mass)


def test_spike_window_rate_calls():
    # the envelope is built from supremum, not the rate: the rejection
    # draws of a spike window take a handful of rate calls (about 1800
    # under the grid-and-doubling envelope)
    source = _Counted(RateModel.from_expression("1 + 1000*exp(-((x-5.0003)^2)/1e-6)").source)
    model = RateModel(source)
    window = Interval(0.0, 10.0)
    expected_count(model, window)
    before = source.tally[0]
    es = simulate_window(model, window, RngState(1))
    assert len(es) > 0
    assert source.tally[0] - before <= 4


def test_non_termination_guard(monkeypatch):
    # acceptance probability ~1e-9: the streak cap must fire, not spin
    monkeypatch.setattr(sb, "_MAX_REJECTIONS", 500)
    model = RateModel.piecewise_constant([0.0, 1e-9, 1.0], [1.0, 0.0])
    with pytest.raises(NonTermination) as info:
        sample_location(model, UNIT, RngState(4))
    assert info.value.rejections > 500


# --------------------------------------------------------------- simulate


def test_simulate_window_basic():
    model = RateModel.constant(2.0)
    window = Interval(0.0, 5.0)
    es = simulate_window(model, window, RngState(30))
    assert es.window == window
    assert np.all(np.diff(es.points) >= 0.0)
    assert np.all((es.points >= 0.0) & (es.points <= 5.0))
    assert es.meta["seed"] == 30
    assert es.meta["stream"] == 0
    assert es.meta["method"] == "count-location"
    assert es.meta["mean"] == pytest.approx(10.0, abs=1e-9)


def test_simulate_window_mean_on_narrow_spike():
    model = RateModel.from_expression("1 + 1000*exp(-((x-5.0003)^2)/1e-6)")
    es = simulate_window(model, Interval(0.0, 10.0), RngState(3))
    assert abs(es.meta["mean"] - (10.0 + math.sqrt(math.pi))) <= 2e-9


def test_simulate_window_deterministic():
    model = RateModel.linear(1.0, 0.5)
    window = Interval(0.0, 3.0)
    assert simulate_window(model, window, RngState(31)) == simulate_window(
        model, window, RngState(31)
    )
    a = simulate_window(model, window, RngState(31))
    b = simulate_window(model, window, RngState(31, stream=1))
    assert a != b


def test_simulate_window_count_moments():
    model = RateModel.constant(1.0)
    window = Interval(0.0, 6.0)
    reps = 2000
    counts = np.array(
        [len(simulate_window(model, window, RngState(s))) for s in range(reps)]
    )
    lam = 6.0
    assert abs(counts.mean() - lam) <= 3.0 * math.sqrt(lam / reps)


def test_simulate_window_zero_rate_piece_gives_empty():
    model = RateModel.piecewise_constant([0.0, 1.0, 2.0], [0.0, 3.0])
    es = simulate_window(model, Interval(0.0, 1.0), RngState(7))
    assert len(es) == 0


def test_simulate_conditional_exact_count():
    model = RateModel.linear(0.0, 1.0)
    window = Interval(0.0, 4.0)
    es = simulate_conditional(model, window, 17, RngState(40))
    assert len(es) == 17
    assert es.meta["method"] == "conditional"
    assert es.meta["count"] == 17
    assert np.all((es.points >= 0.0) & (es.points <= 4.0))


def test_simulate_conditional_zero_points():
    es = simulate_conditional(RateModel.constant(1.0), UNIT, 0, RngState(1))
    assert len(es) == 0


def test_simulate_conditional_validates_m():
    model = RateModel.constant(1.0)
    with pytest.raises(InvalidParameter):
        simulate_conditional(model, UNIT, -1, RngState(1))
    with pytest.raises(InvalidParameter):
        simulate_conditional(model, UNIT, 2.5, RngState(1))
    with pytest.raises(InvalidParameter):
        simulate_conditional(model, UNIT, True, RngState(1))


def test_simulate_conditional_never_integrates(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("integration is not allowed here")

    monkeypatch.setattr(quadrature, "_masses", boom)
    monkeypatch.setattr(sb, "_window_intensity", boom)
    model = RateModel.sinusoidal(2.0, 1.0)
    es = simulate_conditional(model, Interval(0.0, 8.0), 25, RngState(41))
    assert len(es) == 25


def test_conditional_locations_match_location_law():
    model = RateModel.linear(0.0, 1.0)
    window = Interval(0.0, 4.0)
    es = simulate_conditional(model, window, 4000, RngState(42))
    d = ks_distance(es.points, lambda t: t * t / 16.0)
    assert d <= ks_threshold(4000)


# ---------------------------------------------------------- location laws


def test_location_density_constant():
    model = RateModel.constant(5.0)
    window = Interval(0.0, 2.0)
    assert location_density(model, window, 1.0) == pytest.approx(0.5, abs=1e-9)
    assert location_density(model, window, -0.5) == 0.0
    assert location_density(model, window, 2.5) == 0.0


def test_location_density_linear_and_vector():
    model = RateModel.linear(0.0, 1.0)
    window = Interval(0.0, 4.0)
    xs = np.array([-1.0, 0.0, 1.0, 2.0, 4.0, 5.0])
    got = location_density(model, window, xs)
    want = np.array([0.0, 0.0, 1.0 / 8.0, 2.0 / 8.0, 4.0 / 8.0, 0.0])
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_location_density_integrates_to_one():
    model = RateModel.sinusoidal(2.0, 1.0)
    window = Interval(0.0, 7.0)
    total, _ = scipy.integrate.quad(
        lambda t: location_density(model, window, t), 0.0, 7.0
    )
    assert total == pytest.approx(1.0, abs=1e-7)


def test_location_density_zero_mass():
    model = RateModel.piecewise_constant([0.0, 1.0], [0.0])
    with pytest.raises(ZeroMass):
        location_density(model, UNIT, 0.5)


def test_location_density_rejects_nonfinite_x():
    model = RateModel.constant(2.0)
    for x in (math.nan, math.inf, np.array([0.5, math.inf])):
        for f in (location_density, location_cdf):
            with pytest.raises(InvalidParameter, match="x must be finite"):
                f(model, UNIT, x)


def test_location_cdf_quadratic():
    model = RateModel.linear(0.0, 1.0)
    window = Interval(0.0, 4.0)
    xs = np.linspace(0.0, 4.0, 9)
    got = location_cdf(model, window, xs)
    np.testing.assert_allclose(got, xs * xs / 16.0, atol=1e-8)


def test_location_cdf_cubic_expression():
    model = RateModel.from_expression("x^2", domain=Domain(0.0, 2.0))
    window = Interval(0.0, 2.0)
    assert location_cdf(model, window, 1.0) == pytest.approx(1.0 / 8.0, abs=1e-8)


def test_location_cdf_clamps_and_ends():
    model = RateModel.constant(2.0)
    window = Interval(1.0, 3.0)
    assert location_cdf(model, window, 0.0) == 0.0
    assert location_cdf(model, window, 1.0) == 0.0
    assert location_cdf(model, window, 3.0) == pytest.approx(1.0, abs=1e-9)
    assert location_cdf(model, window, 9.0) == pytest.approx(1.0, abs=1e-9)


def test_location_cdf_zero_mass():
    model = RateModel.piecewise_constant([0.0, 1.0], [0.0])
    with pytest.raises(ZeroMass):
        location_cdf(model, UNIT, 0.5)


# ------------------------------------------------------- order statistics


def test_order_stat_pinned_value():
    # uniform locations: first of two points has density 2*(1-x) at 0.25
    model = RateModel.constant(1.0)
    got = order_statistic_density(model, UNIT, 1, 2, 0.25)
    assert got == pytest.approx(scipy.stats.beta(1, 2).pdf(0.25), abs=1e-9)
    assert got == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("k,m", [(1, 1), (1, 5), (3, 5), (5, 5), (2, 3)])
def test_order_stat_matches_beta_for_uniform(k, m):
    model = RateModel.constant(2.0)
    xs = np.linspace(0.001, 0.999, 101)
    got = order_statistic_density(model, UNIT, k, m, xs)
    want = scipy.stats.beta(k, m - k + 1).pdf(xs)
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_order_stat_scaled_window():
    # uniform on [2, 6]: order stat is a Beta density rescaled by 1/4
    model = RateModel.constant(3.0)
    window = Interval(2.0, 6.0)
    xs = np.linspace(2.0, 6.0, 41)
    got = order_statistic_density(model, window, 2, 4, xs)
    want = scipy.stats.beta(2, 3).pdf((xs - 2.0) / 4.0) / 4.0
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_order_stat_log_space_branch():
    model = RateModel.constant(1.0)
    xs = np.linspace(0.01, 0.99, 99)
    got = order_statistic_density(model, UNIT, 50, 100, xs)
    want = scipy.stats.beta(50, 51).pdf(xs)
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_order_stat_integrates_to_one_nonuniform():
    model = RateModel.linear(0.5, 1.0)
    window = Interval(0.0, 3.0)
    total, _ = scipy.integrate.quad(
        lambda t: order_statistic_density(model, window, 2, 4, t), 0.0, 3.0
    )
    assert total == pytest.approx(1.0, abs=1e-7)


def test_order_stat_zero_outside_window():
    model = RateModel.constant(1.0)
    got = order_statistic_density(model, UNIT, 1, 3, np.array([-0.5, 1.5]))
    np.testing.assert_array_equal(got, [0.0, 0.0])


def test_order_stat_edge_values_finite():
    model = RateModel.constant(1.0)
    ends = order_statistic_density(model, UNIT, 1, 4, np.array([0.0, 1.0]))
    assert np.all(np.isfinite(ends))
    assert ends[0] == pytest.approx(4.0, abs=1e-9)
    assert ends[1] == pytest.approx(0.0, abs=1e-9)
    big = order_statistic_density(model, UNIT, 1, 100, np.array([0.0, 1.0]))
    assert np.all(np.isfinite(big))
    assert big[0] == pytest.approx(100.0, rel=1e-9)


def test_order_stat_index_validation():
    model = RateModel.constant(1.0)
    for k, m in [(0, 3), (4, 3), (-1, 2)]:
        with pytest.raises(InvalidIndex):
            order_statistic_density(model, UNIT, k, m, 0.5)
    with pytest.raises(InvalidIndex):
        order_statistic_density(model, UNIT, 1.5, 3, 0.5)


def test_order_stat_histogram_matches_density():
    # empirical middle order statistic of m=3 against the predicted density
    model = RateModel.constant(1.0)
    reps = 3000
    rng = RngState(55)
    mids = np.array(
        [np.sort(sample_location(model, UNIT, rng, size=3))[1] for _ in range(reps)]
    )
    d = ks_distance(mids, lambda t: scipy.stats.beta(2, 2).cdf(t))
    assert d <= ks_threshold(reps)
