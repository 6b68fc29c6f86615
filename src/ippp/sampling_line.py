"""Simulation along the line via the time change, and n-th point queries.

Pushing a unit-rate homogeneous process through the inverse cumulative
intensity yields the inhomogeneous process, which gives a second,
integration-based sampler for any window (useful as a cross-check on the
rejection route) plus direct access to the n-th point above or below a
known point: its image under R sits an Erlang(n, 1) step away.

When the intensity mass reachable in the chosen direction is finite the
n-th point may not exist; that is a normal outcome, reported as None
(NaN in batch output), and the corresponding conditional density
integrates to the Erlang CDF of the directional mass rather than to 1.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidParameter, _integer, _points, _real, _shaped
from .quadrature import DEFAULT_TOL, cumulative_intensity
from .rate_model import Interval, RateModel
from .rng import RngState
from .sampling_bounded import EventSet, _base_meta

__all__ = [
    "Direction",
    "NthPointQuery",
    "sample_path_time_change",
    "sample_nth_point",
    "sample_nth_points",
    "nth_point_density",
    "nth_point_mass",
]

# Erlang tail probability below which the directional mass scan stops
_TAIL_EPS = 1e-12


class Direction(enum.Enum):
    """Which side of the anchor an n-th point query looks at."""

    ABOVE = "above"
    BELOW = "below"

    @property
    def sign(self) -> int:
        return 1 if self is Direction.ABOVE else -1


@dataclass(frozen=True)
class NthPointQuery:
    """Ask for the n-th process point above or below ``anchor``."""

    anchor: float
    n: int
    direction: Direction

    def __post_init__(self):
        object.__setattr__(self, "anchor", _real(self.anchor, "anchor"))
        object.__setattr__(self, "n", _integer(self.n, "n", low=1))
        try:
            object.__setattr__(self, "direction", Direction(self.direction))
        except ValueError:
            raise InvalidParameter(
                f"direction must be a Direction, 'above' or 'below', got {self.direction!r}"
            ) from None


def _require_anchor(model: RateModel, query: NthPointQuery) -> None:
    if not model.domain.contains(query.anchor):
        raise InvalidParameter(
            f"anchor {query.anchor:g} lies outside the domain {model.domain}"
        )


def sample_path_time_change(
    model: RateModel,
    window: Interval,
    rng: RngState,
    tol: float = DEFAULT_TOL,
) -> EventSet:
    """One realization on the window via the time change.

    A unit-rate path on (R(lo), R(hi)] is laid down with Exp(1) gaps and
    mapped back through the inverse; the result is sorted by
    construction and distributed exactly like simulate_window's output.
    """
    model.require_window(window)
    ci = cumulative_intensity(model, tol, span=window)
    r_lo, r_hi = ci(np.array([window.lo, window.hi])).tolist()
    ys = rng.arrivals(r_lo, r_hi)
    pts = ci.inverse_many(ys)
    # the inverse is accurate to ~tol; pull edge round-off back inside
    pts = np.clip(pts, window.lo, window.hi)
    meta = _base_meta(model, rng, "time-change")
    meta["mass"] = r_hi - r_lo
    return EventSet(window, pts, meta)


def sample_nth_point(
    model: RateModel,
    query: NthPointQuery,
    rng: RngState,
    tol: float = DEFAULT_TOL,
    size: int | None = None,
):
    """The n-th point above/below the anchor, or None when absent.

    The anchor's image y_i = R(anchor) is shifted by an Erlang(n, 1)
    draw in the query direction and mapped back through the inverse.  A
    shift past the reachable mass means the process has fewer than n
    points on that side: scalar calls return None, batch calls mark the
    lane NaN.  ``size`` follows RngState's rule: None for one value, else
    an integer >= 0 (InvalidParameter for a bool, a non-integer or a
    negative value).
    """
    _require_anchor(model, query)
    steps = rng.erlang(query.n, size=1 if size is None else size)
    out = _nth_from_steps(model, query, steps, tol)
    if size is None:
        val = float(out[0])
        return None if math.isnan(val) else val
    return out


def sample_nth_points(
    model: RateModel,
    query: NthPointQuery,
    rngs,
    tol: float = DEFAULT_TOL,
):
    """One n-th point per random source, NaN where absent.

    Lane i is bitwise ``sample_nth_point(model, query, rngs[i], tol)``
    (NaN for None); all lanes share one inverse call.
    """
    _require_anchor(model, query)
    steps = np.array([rng.erlang(query.n) for rng in rngs], dtype=float)
    return _nth_from_steps(model, query, steps, tol)


def _nth_from_steps(model, query, steps, tol):
    """Map Erlang steps from the anchor's image back through the inverse."""
    ci = cumulative_intensity(model, tol)
    targets = ci(query.anchor) + query.direction.sign * steps
    return ci.inverse_many(targets, missing="nan")


def _erlang_log_pdf(u, n: int):
    """log of the Erlang(n, 1) pdf at u >= 0 (elementwise, -inf at 0 edge)."""
    with np.errstate(divide="ignore"):
        if n == 1:
            return -u
        return (n - 1) * np.log(u) - u - math.lgamma(n)


def nth_point_density(
    model: RateModel,
    query: NthPointQuery,
    x,
    tol: float = DEFAULT_TOL,
):
    """Conditional density of the n-th point at x; 0 off the query's side.

    r(x) times the Erlang(n, 1) pdf of the intensity mass between the
    anchor and x.  Sub-probability when the directional mass is finite;
    see :func:`nth_point_mass` for its total.
    """
    _require_anchor(model, query)
    ci = cumulative_intensity(model, tol)
    arr = _points(x)
    flat = arr.reshape(-1)
    out = np.zeros(flat.shape)
    sign = query.direction.sign
    onside = (
        (sign * (flat - query.anchor) > 0)
        & (flat >= model.domain.lo)
        & (flat <= model.domain.hi)
    )
    if np.any(onside):
        xs = flat[onside]
        # table round-off can leave a tiny negative mass on a plateau
        u = np.maximum(sign * (ci(xs) - ci(query.anchor)), 0.0)
        out[onside] = model._rate(xs) * np.exp(_erlang_log_pdf(u, query.n))
    return _shaped(out, arr)


def _poisson_term(k: int, m: float) -> float:
    """P(Poisson(m) = k) for m > 0, from its logarithm."""
    return math.exp(k * math.log(m) - m - math.lgamma(k + 1))


def _poisson_below(n: int, m: float) -> float:
    """P(Poisson(m) < n) for m >= n > 0, summed downward from k = n - 1.

    The terms shrink by k / m <= (n - 1) / m < 1 going down, and the sum
    stops once a term no longer changes it (the term after k = 0 is 0).
    """
    term = _poisson_term(n - 1, m)
    total = 0.0
    k = n - 1
    while term > sys.float_info.epsilon * total:
        total += term
        term *= k / m
        k -= 1
    return total


def _poisson_from(n: int, m: float) -> float:
    """P(Poisson(m) >= n) for 0 < m < n, summed upward from k = n.

    The terms shrink by m / (k + 1) < 1 going up.
    """
    term = _poisson_term(n, m)
    total = 0.0
    k = n
    while term > sys.float_info.epsilon * total:
        total += term
        k += 1
        term *= m / k
    return total


@lru_cache(maxsize=256)
def _erlang_cap(n: int) -> float:
    """The mass past which the Erlang(n, 1) tail is below _TAIL_EPS.

    Bisects P(Poisson(m) < n) = _TAIL_EPS for m >= n, where that tail
    falls as m grows, to the last float.
    """
    lo = float(n)
    step = 1.0
    while _poisson_below(n, lo + step) > _TAIL_EPS:
        lo += step
        step *= 2.0
    hi = lo + step
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if _poisson_below(n, mid) > _TAIL_EPS:
            lo = mid
        else:
            hi = mid


def _erlang_cdf(n: int, m: float) -> float:
    """The Erlang(n, 1) CDF at m, which is P(Poisson(m) >= n); 1.0 from
    the cap on.

    Below the mean (m < n) it sums the upper Poisson series, otherwise it
    takes 1 minus the lower one, so neither branch cancels: the lower sum
    is at most about 1/2 when m >= n.
    """
    if m <= 0.0:
        return 0.0
    if m >= _erlang_cap(n):
        return 1.0
    if m < n:
        return _poisson_from(n, m)
    return 1.0 - _poisson_below(n, m)


def nth_point_mass(
    model: RateModel,
    query: NthPointQuery,
    tol: float = DEFAULT_TOL,
) -> float:
    """Total probability that the n-th point exists on the query's side.

    The Erlang(n, 1) CDF of the directional intensity mass m, which is the
    Poisson tail P(Poisson(m) >= n): the sum over k >= n of
    e^-m m^k / k! below the mean, and 1 minus the sum over k < n above it,
    each summed from its largest term in log space.  The mass scan stops
    once the Erlang tail beyond it is below 1e-12, at which point the
    result is 1 to well past any reported precision.
    """
    _require_anchor(model, query)
    ci = cumulative_intensity(model, tol)
    cap = _erlang_cap(query.n)
    return _erlang_cdf(query.n, ci.directional_mass(query.anchor, query.direction.sign, cap))
