"""Simulation on a bounded window: counts, locations, order statistics.

The point process restricted to a window A decomposes into a Poisson
count with mean equal to the window's intensity mass and, given the
count, i.i.d. locations with density r(x) / mass.  Locations come from
rejection sampling against a flat envelope at the model's bound, which
needs no integration at all; that is what makes
:func:`simulate_conditional` (fixed count) integration-free.

Scalar draws follow the per-candidate accept/reject loop literally.
``size=`` batches draw candidates in blocks; they consume the stream in a
different order than repeated scalar calls but are deterministic for a
given (seed, stream, size) and sample the same law.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import InvalidIndex, InvalidParameter, NonTermination, ZeroMass, ZeroRate
from .quadrature import DEFAULT_TOL, cumulative_intensity, integrate
from .rate_model import Interval, RateModel
from .rng import RngState

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

logger = logging.getLogger(__name__)

# give up after this many consecutive rejected candidates
_MAX_REJECTIONS = 1_000_000

# largest candidate block drawn per rejection round
_MAX_BATCH = 65_536


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


def _base_meta(model: RateModel, rng: RngState | None, method: str) -> dict:
    meta = {"method": method, "model": model.describe()}
    if rng is not None:
        meta["seed"] = rng.seed
        meta["stream"] = rng.stream
    return meta


@lru_cache(maxsize=256)
def _expected_count_cached(model: RateModel, lo: float, hi: float, tol: float):
    return integrate(model, lo, hi, tol)


def expected_count(model: RateModel, window: Interval, tol: float = DEFAULT_TOL):
    """The window's intensity mass: the mean number of points in it."""
    model.require_window(window)
    return _expected_count_cached(model, window.lo, window.hi, float(tol))


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
    """``count`` accepted locations via rejection against a flat envelope.

    The envelope level doubles (with a log message) whenever a candidate
    exposes a rate above it, so a too-low grid estimate self-corrects;
    earlier acceptances are kept.
    """
    bound = model.bound_on(window)
    if bound <= 0.0:
        raise ZeroRate(
            f"rate bound on {window} is {bound!r}; the location law is undefined"
        )
    out = np.empty(count)
    filled = 0
    rejected_streak = 0
    width = window.width
    while filled < count:
        block = 1 if count == 1 else min(_MAX_BATCH, 2 * (count - filled))
        xs = window.lo + width * rng.uniform01(size=block)
        us = rng.uniform01(size=block)
        rates = np.asarray(model.evaluate(xs), dtype=float)
        over = rates > bound
        if np.any(over):
            bound *= 2.0
            logger.warning(
                "rate %g exceeds the envelope; doubling the bound to %g",
                float(rates[over][0]),
                bound,
            )
            rejected_streak += block
            if rejected_streak > _MAX_REJECTIONS:
                raise NonTermination(rejected_streak)
            continue
        accepted = xs[us * bound <= rates]
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
    accept/reject step.
    """
    model.require_window(window)
    if size is None:
        return float(_rejection_sample(model, window, rng, 1)[0])
    return _rejection_sample(model, window, rng, int(size))


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
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise InvalidParameter(f"m must be an integer, got {m!r}")
    if m < 0:
        raise InvalidParameter(f"m must be >= 0, got {m}")
    model.require_window(window)
    pts = _rejection_sample(model, window, rng, int(m)) if m else np.empty(0)
    meta = _base_meta(model, rng, "conditional")
    meta["count"] = int(m)
    return EventSet(window, pts, meta)


def _window_mass_or_raise(model, window, tol):
    mass = expected_count(model, window, tol)
    if mass <= tol:
        raise ZeroMass(mass, tol)
    return mass


def location_density(model: RateModel, window: Interval, x, tol: float = DEFAULT_TOL):
    """Density of a single point's location: r(x)/mass inside, 0 outside."""
    model.require_window(window)
    mass = _window_mass_or_raise(model, window, tol)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = arr.reshape(-1)
    out = np.zeros(flat.shape)
    inside = (flat >= window.lo) & (flat <= window.hi)
    if np.any(inside):
        out[inside] = np.asarray(model.evaluate(flat[inside]), dtype=float) / mass
    out = out.reshape(arr.shape)
    return float(out) if scalar else out


def location_cdf(model: RateModel, window: Interval, x, tol: float = DEFAULT_TOL):
    """CDF of a single point's location, clamped to [0, 1]."""
    model.require_window(window)
    ci = cumulative_intensity(model, tol, span=window)
    r_lo = ci(window.lo)
    mass = ci(window.hi) - r_lo
    if mass <= tol:
        raise ZeroMass(mass, tol)
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    clipped = np.clip(arr, window.lo, window.hi)
    vals = np.clip((ci(clipped) - r_lo) / mass, 0.0, 1.0)
    return float(vals) if scalar else vals


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
    for name, value in (("k", k), ("m", m)):
        if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
            raise InvalidIndex(f"{name} must be an integer, got {value!r}")
    if k < 1 or k > m:
        raise InvalidIndex(f"need 1 <= k <= m, got k={k}, m={m}")
    k = int(k)
    m = int(m)
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
    out = np.where(f_arr == 0.0, 0.0, out)
    return float(out) if np.ndim(x) == 0 else out
