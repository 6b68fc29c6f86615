"""The one rule for inputs, at every entry point that checks them.

Points x come as a scalar or an array of any shape: a scalar (or a 0-d
array) gives a float, an array gives an array of its shape, and NaN,
±inf, bools, strs or None raise InvalidParameter.  A numeric parameter
is a Python or numpy int or float (an integer parameter: an int only);
a bool, a str or a 0-d array raise the class that the site raises for
any bad value, and a numpy scalar gives what the equal Python number
gives.
"""

import math

import numpy as np
import pytest

from ippp import (
    CumulativeIntensity,
    Domain,
    Interval,
    NthPointQuery,
    RateModel,
    RngState,
    cumulative_intensity,
    expected_count,
    integrate,
    location_cdf,
    location_density,
    nth_point_density,
    order_statistic_density,
    rate_expr,
    sample_location,
    sample_nth_point,
    simulate_conditional,
)
from ippp.errors import InvalidIndex, InvalidMean, InvalidParameter, InvalidShape

MODEL = RateModel.sinusoidal(2.0, 1.0)
WINDOW = Interval(0.0, 4.0)
QUERY = NthPointQuery(0.0, 2, "above")
SIN = rate_expr.parse_text("2 + sin(x)")

# entry point -> a call on its points
X_SITES = {
    "RateModel.evaluate": MODEL.evaluate,
    "rate_expr.evaluate": lambda x: rate_expr.evaluate(SIN, x),
    "CumulativeIntensity.__call__": CumulativeIntensity(MODEL),
    "CumulativeIntensity.inverse_many": CumulativeIntensity(MODEL).inverse_many,
    "location_density": lambda x: location_density(MODEL, WINDOW, x),
    "location_cdf": lambda x: location_cdf(MODEL, WINDOW, x),
    "nth_point_density": lambda x: nth_point_density(MODEL, QUERY, x),
    "order_statistic_density": lambda x: order_statistic_density(MODEL, WINDOW, 2, 3, x),
}


@pytest.mark.parametrize("site", sorted(X_SITES))
def test_points_keep_their_shape(site):
    f = X_SITES[site]
    xs = np.linspace(0.5, 3.5, 6).reshape(2, 3)
    singles = [f(x) for x in xs.ravel().tolist()]
    assert all(type(v) is float for v in singles)
    out = f(xs)
    assert isinstance(out, np.ndarray) and out.shape == (2, 3)
    assert out.ravel().tolist() == singles
    for scalar in (np.array(xs[0, 0]), np.float32(0.5), np.int64(3)):
        got = f(scalar)
        assert type(got) is float and got == f(float(scalar))
    assert f(np.empty((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("site", sorted(X_SITES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, "1.5", None])
def test_points_that_are_not_finite_reals_raise(site, bad):
    with pytest.raises(InvalidParameter):
        X_SITES[site](bad)
    with pytest.raises(InvalidParameter):
        X_SITES[site](np.array([[bad, bad]]))


@pytest.mark.parametrize("site", sorted(X_SITES))
@pytest.mark.parametrize("bad", [[1.5, True], (0.5, np.True_), [[0.5, 1.0], [False, 2.0]]])
def test_point_lists_holding_a_bool_raise(site, bad):
    # numpy would turn the bool into 1.0 or 0.0 beside the floats
    with pytest.raises(InvalidParameter):
        X_SITES[site](bad)


CONTAINS = {"Interval.contains": Interval(0.0, 1.0).contains, "Domain.contains": Domain(0.0, 1.0).contains}


@pytest.mark.parametrize("site", sorted(CONTAINS))
def test_contains_takes_points(site):
    contains = CONTAINS[site]
    assert contains(0.5) is True and contains(1.0) is True and contains(-0.5) is False
    for scalar in (np.float32(0.5), np.int64(1), np.array(0.5)):
        assert contains(scalar) is True
    got = contains(np.array([[-1.0, 0.5], [1.0, 2.0]]))
    assert got.tolist() == [[False, True], [True, False]]
    assert contains([0.25, 3]).tolist() == [True, False]


@pytest.mark.parametrize("site", sorted(CONTAINS))
@pytest.mark.parametrize("bad", ["0.5", math.nan, math.inf, True, None, [0.5, True]])
def test_contains_rejects_what_is_not_a_point(site, bad):
    with pytest.raises(InvalidParameter):
        CONTAINS[site](bad)


# parameter -> (a call taking it, a valid value, the class a bad value raises)
REAL_SITES = {
    "Interval.lo": (lambda v: Interval(v, 5.0), 0.5, InvalidParameter),
    "Interval.hi": (lambda v: Interval(0.0, v), 0.5, InvalidParameter),
    "Domain.lo": (lambda v: Domain(v, 5.0), 0.5, InvalidParameter),
    "Domain.hi": (lambda v: Domain(0.0, v), 0.5, InvalidParameter),
    "RateModel.declared_bound": (
        lambda v: RateModel.constant(1.0, declared_bound=v),
        2.0,
        InvalidParameter,
    ),
    "RateModel.constant": (RateModel.constant, 2.0, InvalidParameter),
    "RateModel.linear.intercept": (lambda v: RateModel.linear(v, 0.5), 1.0, InvalidParameter),
    "RateModel.linear.slope": (lambda v: RateModel.linear(1.0, v), 0.5, InvalidParameter),
    "RateModel.sinusoidal.offset": (lambda v: RateModel.sinusoidal(v, 1.0), 2.0, InvalidParameter),
    "RateModel.sinusoidal.amplitude": (
        lambda v: RateModel.sinusoidal(2.0, v),
        1.0,
        InvalidParameter,
    ),
    "RateModel.sinusoidal.frequency": (
        lambda v: RateModel.sinusoidal(2.0, 1.0, v),
        0.5,
        InvalidParameter,
    ),
    "RateModel.sinusoidal.phase": (
        lambda v: RateModel.sinusoidal(2.0, 1.0, 1.0, v),
        0.5,
        InvalidParameter,
    ),
    "RateModel.piecewise_constant.breakpoint": (
        lambda v: RateModel.piecewise_constant([0.0, v], [1.0]),
        2.0,
        InvalidParameter,
    ),
    "RateModel.piecewise_constant.level": (
        lambda v: RateModel.piecewise_constant([0.0, 1.0], [v]),
        2.0,
        InvalidParameter,
    ),
    "integrate.a": (lambda v: integrate(MODEL, v, 2.0), 0.5, InvalidParameter),
    "integrate.b": (lambda v: integrate(MODEL, 0.0, v), 0.5, InvalidParameter),
    "integrate.tol": (lambda v: integrate(MODEL, 0.0, 1.0, v), 2.0**-20, InvalidParameter),
    "CumulativeIntensity.tol": (
        lambda v: CumulativeIntensity(MODEL, v)(1.0),
        2.0**-20,
        InvalidParameter,
    ),
    "cumulative_intensity.tol": (
        lambda v: cumulative_intensity(MODEL, v)(1.0),
        2.0**-20,
        InvalidParameter,
    ),
    "CumulativeIntensity.directional_mass.sign": (
        lambda v: CumulativeIntensity(MODEL).directional_mass(0.0, v, 2.0),
        1.0,
        InvalidParameter,
    ),
    "CumulativeIntensity.directional_mass.cap": (
        lambda v: CumulativeIntensity(MODEL).directional_mass(0.0, 1, v),
        2.0,
        InvalidParameter,
    ),
    "expected_count.tol": (lambda v: expected_count(MODEL, WINDOW, v), 2.0**-20, InvalidParameter),
    "RngState.poisson.mean": (lambda v: RngState(1).poisson(v), 2.0, InvalidMean),
    "NthPointQuery.anchor": (lambda v: NthPointQuery(v, 1, "above"), 0.5, InvalidParameter),
}

# parameter -> (a call taking a sequence of real numbers, a valid one, the
# class anything but a list, tuple or 1-D array raises)
REALS_SITES = {
    "RateModel.piecewise_constant.breakpoints": (
        lambda v: RateModel.piecewise_constant(v, [1.0, 2.0]),
        [0.0, 1.0, 3.0],
        InvalidParameter,
    ),
    "RateModel.piecewise_constant.levels": (
        lambda v: RateModel.piecewise_constant([0.0, 1.0, 3.0], v),
        [1.0, 2.0],
        InvalidParameter,
    ),
}

INTEGER_SITES = {
    "RngState.seed": (lambda v: RngState(v).uniform01(), 3, InvalidParameter),
    "RngState.stream": (lambda v: RngState(1, v).uniform01(), 3, InvalidParameter),
    "RngState.uniform01.size": (
        lambda v: RngState(1).uniform01(size=v).tolist(),
        3,
        InvalidParameter,
    ),
    "RngState.exponential.size": (
        lambda v: RngState(1).exponential(size=v).tolist(),
        3,
        InvalidParameter,
    ),
    "RngState.erlang.shape": (lambda v: RngState(1).erlang(v), 3, InvalidShape),
    "RngState.erlang.size": (lambda v: RngState(1).erlang(2, size=v).tolist(), 3, InvalidParameter),
    "RngState.poisson.size": (
        lambda v: RngState(1).poisson(2.0, size=v).tolist(),
        3,
        InvalidParameter,
    ),
    "sample_location.size": (
        lambda v: sample_location(MODEL, WINDOW, RngState(1), size=v).tolist(),
        3,
        InvalidParameter,
    ),
    "simulate_conditional.m": (
        lambda v: simulate_conditional(MODEL, WINDOW, v, RngState(1)),
        3,
        InvalidParameter,
    ),
    "order_statistic_density.k": (
        lambda v: order_statistic_density(MODEL, WINDOW, v, 3, 1.5),
        2,
        InvalidIndex,
    ),
    "order_statistic_density.m": (
        lambda v: order_statistic_density(MODEL, WINDOW, 1, v, 1.5),
        3,
        InvalidIndex,
    ),
    "NthPointQuery.n": (lambda v: NthPointQuery(0.0, v, "above"), 2, InvalidParameter),
    "sample_nth_point.size": (
        lambda v: sample_nth_point(MODEL, QUERY, RngState(1), size=v).tolist(),
        3,
        InvalidParameter,
    ),
}


@pytest.mark.parametrize("site", sorted(REAL_SITES))
def test_real_parameters(site):
    call, good, error = REAL_SITES[site]
    want = call(good)
    assert call(np.float32(good)) == want
    assert call(np.float64(good)) == want
    if good == int(good):
        assert call(int(good)) == want
        assert call(np.int64(good)) == want
    for bad in (True, False, str(good), np.array(good)):
        with pytest.raises(error):
            call(bad)


@pytest.mark.parametrize("site", sorted(REALS_SITES))
def test_real_sequences(site):
    call, good, error = REALS_SITES[site]
    want = call(good)
    for same in (tuple(good), np.array(good), np.array(good, dtype=np.float32)):
        assert call(same) == want
    first = good[0]
    for bad in (first, int(first), np.float64(first), np.array(first), np.array([good]), str(good), None):
        with pytest.raises(error):
            call(bad)
    # an element that is not a real number keeps its own message
    with pytest.raises(error, match="must be a real number"):
        call([[v] for v in good])


@pytest.mark.parametrize("make", [CumulativeIntensity, cumulative_intensity])
def test_span_is_an_interval_or_none(make):
    assert make(MODEL, span=None)(1.0) == make(MODEL)(1.0)
    assert make(MODEL, span=WINDOW)(1.0) == pytest.approx(make(MODEL)(1.0), abs=2e-9)
    # a list must be refused before it reaches a cache, which cannot hash it
    for bad in ((0.0, 4.0), [0.0, 4.0], 4.0, "0:4"):
        with pytest.raises(InvalidParameter, match="span must be an Interval"):
            make(MODEL, span=bad)


@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_parameters(site):
    call, good, error = INTEGER_SITES[site]
    assert call(np.int64(good)) == call(good)
    assert call(np.int32(good)) == call(good)
    for bad in (True, False, str(good), float(good), np.float32(good)):
        with pytest.raises(error):
            call(bad)


def test_huge_ints_are_out_of_range_not_overflow():
    with pytest.raises(InvalidParameter):
        Interval(0.0, 10**400)
    assert Domain(0.0, 10**400).hi == math.inf
    with pytest.raises(InvalidParameter):
        RngState(2**64)
