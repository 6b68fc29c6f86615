"""Simulation on a bounded window: counts, locations, order statistics.

The point process restricted to a window A decomposes into a Poisson
count with mean equal to the window's intensity mass and, given the
count, i.i.d. locations with density r(x) / mass.  Locations come from
thinning under a piecewise-constant envelope (Lewis & Shedler, *Naval
Res. Logistics Q.* 26, 1979): :meth:`RateModel.envelope` bounds the rate
on each of the window's 1024 segments, soundly (the upper end of the
rate expression's interval enclosure, or the declared bound).  A
candidate takes two words: one uniform picks a segment in proportion to
its envelope mass and a position inside it, through an alias table, and
the other accepts it with probability r(x) / level.  No integration is
needed, which is what makes :func:`simulate_conditional` (fixed count)
integration-free.

The envelope is a contract, not an estimate: a candidate whose rate is
above its segment's level raises :class:`~ippp.errors.BoundViolation`
(the rate source or its ``supremum`` is wrong) rather than being
absorbed.

Scalar draws follow the per-candidate accept/reject loop literally.
``size=`` batches draw candidates in blocks; they consume the stream in a
different order than repeated scalar calls but are deterministic for a
given (seed, stream, size) and sample the same law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    BoundViolation,
    InvalidIndex,
    InvalidParameter,
    NonTermination,
    ZeroMass,
    ZeroRate,
    _integer,
    _points,
    _real,
    _shaped,
)
from .quadrature import DEFAULT_TOL, cumulative_intensity, integrate
from .rate_model import Interval, RateModel
from .rng import RngState, _check_size

__all__ = [
    "EventSet",
    "expected_count",
    "sample_count",
    "sample_location",
    "simulate_window",
    "simulate_conditional",
    "location_density",
    "location_cdf",
    "order_statistic_density",
]

# give up after this many consecutive rejected candidates
_MAX_REJECTIONS = 1_000_000

# largest candidate block drawn per rejection round; at 65536 the fresh
# 512 KiB temporaries of a round cost more in page faults than the
# rounds they save (a 20000-point draw faulted 422 pages against 193)
_MAX_BATCH = 8192


@dataclass(frozen=True, eq=False)
class EventSet:
    """An immutable realization of the process on a window.

    ``points`` is a sorted, read-only float array inside the window.
    ``meta`` records seed, stream, method and model so a run can be
    reproduced exactly (replay the same call on a fresh RngState).
    """

    window: Interval
    points: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.sort(np.asarray(self.points, dtype=float).reshape(-1))
        if pts.size and not (
            pts[0] >= self.window.lo and pts[-1] <= self.window.hi
        ):
            raise InvalidParameter("points must lie within the window")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return int(self.points.size)

    def __iter__(self):
        return iter(self.points.tolist())

    def __eq__(self, other):
        if not isinstance(other, EventSet):
            return NotImplemented
        return (
            self.window == other.window
            and np.array_equal(self.points, other.points)
            and self.meta == other.meta
        )

    def __repr__(self):
        return (
            f"EventSet(window={self.window}, n={len(self)}, "
            f"method={self.meta.get('method')!r})"
        )


def _base_meta(model: RateModel, rng: RngState, method: str) -> dict:
    return {"method": method, "model": model.describe(), "seed": rng.seed, "stream": rng.stream}


@lru_cache(maxsize=256)
def _expected_count_cached(model: RateModel, lo: float, hi: float, tol: float):
    return integrate(model, lo, hi, tol)


def expected_count(model: RateModel, window: Interval, tol: float = DEFAULT_TOL):
    """The window's intensity mass: the mean number of points in it."""
    model.require_window(window)
    tol = _real(tol, "tol", low=0.0, strict=True)
    return _expected_count_cached(model, window.lo, window.hi, tol)


def sample_count(
    model: RateModel,
    window: Interval,
    rng: RngState,
    tol: float = DEFAULT_TOL,
    size: int | None = None,
):
    """Poisson point count(s) for the window, drawn by ``rng.poisson``.

    A scalar count is the number of unit-rate arrivals in (0, m], m the
    window's expected count, and uses count + 1 words; ``size=n`` cuts one
    arrival path on (0, n*m] into n windows of length m, giving n i.i.d.
    counts.
    """
    return rng.poisson(expected_count(model, window, tol), size=size)


def _rejection_sample(model, window, rng, count):
    """``count`` accepted locations by thinning under the model's envelope.

    Each candidate uses exactly two words: one for its segment and
    position, one to accept it when u * level < r(x).  A candidate whose
    rate exceeds its segment's level raises BoundViolation: the envelope
    is sound by construction, so the rate source (or its ``supremum``)
    broke its contract; the envelope is never lifted to absorb it.
    """
    env = model.envelope(window)
    if env.mass <= 0.0:
        raise ZeroRate(
            f"rate envelope on {window} is 0; the location law is undefined"
        )
    out = np.empty(count)
    filled = drawn = block = 0
    rejected_streak = 0
    while filled < count:
        if count > 1:
            # candidates per point seen so far, plus 1/16 and 32 spare, so
            # that most draws take one round; one per point at first (a
            # sound envelope fits closely), twice the last block while
            # none is accepted
            need = count - filled
            per_point = drawn / filled if filled else (2.0 * block / need if block else 1.0)
            block = min(_MAX_BATCH, int(need * per_point * 1.0625) + 32)
        else:
            block = 1
        drawn += block
        levels, xs = env.locate(rng.uniform01(size=block))
        us = rng.uniform01(size=block)
        rates = model._rate(xs)
        over = np.nonzero(rates > levels)[0]
        if over.size:
            i = int(over[0])
            raise BoundViolation(float(xs[i]), float(rates[i]), float(levels[i]))
        accepted = xs[us * levels < rates]
        if accepted.size:
            take = min(accepted.size, count - filled)
            out[filled : filled + take] = accepted[:take]
            filled += take
            rejected_streak = block - accepted.size
        else:
            rejected_streak += block
            if rejected_streak > _MAX_REJECTIONS:
                raise NonTermination(rejected_streak)
    return out


def sample_location(
    model: RateModel,
    window: Interval,
    rng: RngState,
    size: int | None = None,
):
    """Location(s) distributed as the normalized rate over the window.

    No integration happens here; normalization is implicit in the
    accept/reject step.  ``size`` follows RngState's rule: None for a
    float, else an integer >= 0 (InvalidParameter for a bool, a
    non-integer or a negative value).
    """
    count = _check_size(size)
    model.require_window(window)
    out = _rejection_sample(model, window, rng, count)
    return float(out[0]) if size is None else out


def simulate_window(
    model: RateModel,
    window: Interval,
    rng: RngState,
    tol: float = DEFAULT_TOL,
) -> EventSet:
    """One realization on the window: Poisson count, then i.i.d. locations."""
    mean = expected_count(model, window, tol)
    count = rng.poisson(mean)
    if count:
        pts = _rejection_sample(model, window, rng, count)
    else:
        pts = np.empty(0)
    meta = _base_meta(model, rng, "count-location")
    meta["mean"] = mean
    return EventSet(window, pts, meta)


def simulate_conditional(
    model: RateModel,
    window: Interval,
    m: int,
    rng: RngState,
) -> EventSet:
    """A realization conditioned on containing exactly ``m`` points.

    Performs no integration: given the count, locations are plain
    rejection draws, so no normalizing mass is ever computed.
    """
    m = _integer(m, "m", low=0)
    model.require_window(window)
    pts = _rejection_sample(model, window, rng, m) if m else np.empty(0)
    meta = _base_meta(model, rng, "conditional")
    meta["count"] = m
    return EventSet(window, pts, meta)


def location_density(model: RateModel, window: Interval, x, tol: float = DEFAULT_TOL):
    """Density of a single point's location: r(x)/mass inside, 0 outside."""
    model.require_window(window)
    arr = _points(x)
    mass = expected_count(model, window, tol)
    if mass <= tol:
        raise ZeroMass(mass, tol)
    flat = arr.reshape(-1)
    out = np.zeros(flat.shape)
    inside = (flat >= window.lo) & (flat <= window.hi)
    if np.any(inside):
        out[inside] = model._rate(flat[inside]) / mass
    return _shaped(out, arr)


def location_cdf(model: RateModel, window: Interval, x, tol: float = DEFAULT_TOL):
    """CDF of a single point's location, clamped to [0, 1]."""
    model.require_window(window)
    arr = _points(x)
    ci = cumulative_intensity(model, tol, span=window)
    r_lo = ci(window.lo)
    mass = ci(window.hi) - r_lo
    if mass <= tol:
        raise ZeroMass(mass, tol)
    clipped = np.clip(arr, window.lo, window.hi)
    return _shaped(np.clip((ci(clipped) - r_lo) / mass, 0.0, 1.0), arr)


# above this m the binomial factor is computed in log space
_LOG_SPACE_M = 60


def order_statistic_density(
    model: RateModel,
    window: Interval,
    k: int,
    m: int,
    x,
    tol: float = DEFAULT_TOL,
):
    """Density of the k-th smallest of m points on the window.

    k * C(m,k) * F(x)^(k-1) * (1-F(x))^(m-k) * f(x), with F and f the
    numeric location CDF/density above; zero outside the window.
    """
    m = _integer(m, "m", InvalidIndex)
    k = _integer(k, "k", InvalidIndex, low=1, high=m)
    f = location_density(model, window, x, tol)
    cdf = location_cdf(model, window, x, tol)
    f_arr = np.asarray(f, dtype=float)
    cdf_arr = np.asarray(cdf, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if m <= _LOG_SPACE_M:
            coeff = float(k * math.comb(m, k))
            out = coeff * cdf_arr ** (k - 1) * (1.0 - cdf_arr) ** (m - k) * f_arr
        else:
            log_coeff = (
                math.log(k)
                + math.lgamma(m + 1)
                - math.lgamma(k + 1)
                - math.lgamma(m - k + 1)
            )
            # F^(k-1) and (1-F)^(m-k) via logs; 0^0 edges handled explicitly
            lo_part = np.where(
                (k == 1) & (cdf_arr == 0.0), 0.0, (k - 1) * np.log(cdf_arr)
            )
            hi_part = np.where(
                (m == k) & (cdf_arr == 1.0), 0.0, (m - k) * np.log1p(-cdf_arr)
            )
            out = np.exp(log_coeff + lo_part + hi_part) * f_arr
    return _shaped(np.where(f_arr == 0.0, 0.0, out), f_arr)
