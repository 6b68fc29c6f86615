"""Adaptive integration of rate functions and the cumulative intensity map.

One integrator serves the whole library.  :func:`_masses` splits each
segment of a partition where the rate may not be smooth, at the points
one walk over its expression finds (:func:`ippp.rate_expr._switch_points`:
a step's breaks, and where an argument of abs, max or min switches), as
QUADPACK's QAGP splits at breakpoints its caller supplies (Piessens et
al., 1983), so no error estimate has to see a kink or a jump.  It takes
a Gauss-Kronrod 7-15 panel over each part, and bisects, as QUADPACK
does, each piece that fails the one test of :func:`_judged`: the larger
of |K15 - G7| (G7 the embedded Gauss rule) and the tail (the
interpolant's last two Legendre coefficients times the half-width, which
sees content odd about the midpoint) must be within the larger of the
piece's share of its segment's budget tol / 1024 (its share of the
segment's width) and its rounding floor c s, s = eps half (max|x| L +
max|r|), L = (max r - min r) / half: rounded nodes and sums leave noise
in both estimates that no bisection lowers, so refinement ends at any
distance from 0.  Against long-double closed forms of 2 + sin(x), 3 +
x/2 and 2 + cos(2x) (x from 0 to 1e6, half-widths 1e-5 to 0.1, five
OpenBLAS kernels) an estimate read at most 8.3 s, so c = 16; the
root-sum-square of K15's misses was at most 1.02 times that of s, so a
piece accepted past its share counts a miss of 2 s.  Misses of distinct
pieces are independent and add in quadrature: ToleranceNotMet is raised
where their root-sum-square over an integral, or over a table's growth
on one side of its origin, passes tol, or where a part takes over 1024
pieces.  A rate call takes up to 16 pieces of every open part;
acceptance depends on the piece alone, so the pieces, and the order they
are summed in, are those of one piece per call.  The nodes and weights
come from a high-precision Newton solve of the moment equations (the
15-point rule integrates degree 22 exactly, as the tests verify).
:func:`integrate` sums the masses of the 1024 equal segments of [a, b]: a
single panel could step over a narrow spike with all 15 nodes.

:class:`CumulativeIntensity` is the signed antiderivative of the rate
from the table's origin o: R(t) is the mass on (o, t] for t >= o and
minus the mass on (t, o] for t < o.  The public tables have origin 0.
The time-change sampler, the location CDF and the expected count read a
private window table instead, whose origin is the window's lower end and
whose first 1024 segments are the window's own partition, the one
:func:`integrate` sums: R at both window edges is a stored checkpoint,
the table keeps the sum of those segment masses (:func:`integrate`'s
bits) and R at the upper edge, which the sampler and the CDF read with
no query, and its cost does not grow with the window's distance from 0.
A table memoizes integrals on a deterministic grid of checkpoints, so
repeated path simulation costs O(path length), and values never depend
on query order.  A query grows each side of the origin on its own,
planning every batch of checkpoints it needs there first and
integrating their segments in rate calls of at most 1536 segments, so
the temporaries of a large growth stay small.

Between its checkpoints the table keeps dense output, as in the PINV
method of Derflinger, Hörmann & Leydold (ACM TOMACS 20(4), 2010), on the
pieces its growth accepted.  Growth keeps each piece's node rates, edges
and K15 mass; the next query builds the pieces of the segments it lands
in, with no rate call, and drops the rest, and a later query into a
dropped segment integrates it again, which gives the same pieces.  A
fresh window so costs one rate call where no segment is refined.  A
piece keeps the antiderivative of the degree-14 polynomial through its
node rates, its K15 mass over the whole piece (the rule is
interpolatory), as a Legendre series whose coefficients within 1/256 of
the piece's share are set to 0 (R moves by at most 1/16 of it), in
powers of the piece's coordinate s in [-1, 1].  Its degree is its
highest power of s with a coefficient that is not 0 (at least 1);
Horner's rule runs up to the highest degree among the pieces a call
reads, so a batch near the origin does not pay for wide pieces far out.
A built piece is one column of a store with one row per field.  R at a
point is R at the left edge of its piece plus the piece's antiderivative
there; the panels never evaluate at a checkpoint, so R does not need the
rate there.

Its generalized inverse inf{t : R(t) >= y} supports the time-change
sampler: :meth:`CumulativeIntensity._solve` solves it on the pieces'
polynomials with no rate call, and
:meth:`CumulativeIntensity.inverse_many` states what its results satisfy.
The sampler's arrivals come ascending and within R's range on its table,
so :meth:`CumulativeIntensity._path` hands them to the solve directly,
past inverse_many's sort and probe.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import (
    DomainViolation,
    InvalidParameter,
    OutOfRange,
    ToleranceNotMet,
    _points,
    _real,
    _shaped,
)
from .rate_model import _SEGMENTS, Interval, RateModel, _partition

__all__ = [
    "DEFAULT_TOL",
    "integrate",
    "CumulativeIntensity",
    "cumulative_intensity",
]

DEFAULT_TOL = 1e-9

# Kronrod 15 abscissae on [-1, 1] (ascending); odd indices 1,3,...,13 are
# the embedded Gauss 7 nodes.
_XK = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)

_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)

# Gauss 7 weights, aligned with _XK[1::2].
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)

# c of the rounding floor, and a piece's miss, in units of s (see above)
_FLOOR, _MISS = 16.0, 2.0
# pieces an interval may be cut into before ToleranceNotMet
_PIECE_CAP = 1024
# pieces that each interval's stack gives up to one round of _refine
_ROUND_PIECES = 16
# segments per rate call when a table grows, which bounds the temporaries
# of a default table's growth; no fewer than a window table's first 1024
_GROWTH_SEGMENTS = 1536

# Newton steps on a piece's polynomial that start each inverse lane
_START_STEPS = 2

_EPS = float(np.finfo(float).eps)

# How far the inverse will probe for mass on an unbounded domain before
# declaring the target unreachable.
_MAX_PROBE = 1e15


@lru_cache(maxsize=None)
def _dense_matrices():
    """The maps from a piece's 15 node rates to its dense output, made on
    first use so that importing the package does not pay for them.

    On the piece mapped to s in [-1, 1], the first maps the node rates to
    the Legendre coefficients of the integral from -1 of their degree-14
    interpolant, per unit half-width (16 columns), and to the
    interpolant's own coefficients of degree 13 and 14, its tail; the
    second is those two columns as rows.
    Those solve the Vandermonde system of P_0..P_14 at the nodes; the
    integral from -1 of P_0 is P_0 + P_1, and of P_k, k >= 1, is
    (P_{k+1} - P_{k-1}) / (2k + 1).  The third maps Legendre coefficients
    to coefficients of powers of s; its entries are exact binary
    fractions, which the recurrence reaches without rounding.  Converting
    after the Legendre step rounds in proportion to the Legendre
    coefficients, which fall off fast on an accepted piece.
    """
    vander = np.ones((15, 15))  # P_k at the nodes
    vander[:, 1] = _XK
    for k in range(1, 14):
        vander[:, k + 1] = (2 * k + 1) * _XK * vander[:, k] - k * vander[:, k - 1]
        vander[:, k + 1] /= k + 1
    interp = np.linalg.inv(vander)
    anti = np.zeros((16, 15))
    anti[0, 0] = anti[1, 0] = 1.0
    for k in range(1, 15):
        anti[k + 1, k] = 1.0 / (2 * k + 1)
        anti[k - 1, k] = -1.0 / (2 * k + 1)
    powers = np.zeros((16, 16))  # row k: P_k in powers of s
    powers[0, 0] = powers[1, 1] = 1.0
    for k in range(1, 15):
        powers[k + 1, 1:] = (2 * k + 1) * powers[k, :-1]
        powers[k + 1] -= k * powers[k - 1]
        powers[k + 1] /= k + 1
    to_legendre = np.concatenate([anti @ interp, interp[13:]]).T
    return to_legendre, interp[13:].copy(), powers


# the store's rows, one column per built piece: 16 coefficients, then its
# edges, R at its left edge, its mass (its polynomial at s = 1) and degree
_LOW, _HIGH, _R, _MASS, _DEGREE = 16, 17, 18, 19, 20


def _panels(f, lows, highs):
    """Vectorized panels over parallel arrays of interval edges.

    Returns the K15 value, the |K15 - G7| estimate and the rate at the
    nodes, as an (n, 1, 15) array.  Each lane's weighted sums are rounded
    the same way whatever the number of lanes, so a lane's result does
    not depend on the batch it sits in.  Nodes lie within their lane's
    ends, so inside the domain with them.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    half = 0.5 * (highs - lows)
    nodes = np.multiply.outer(half, _XK)
    nodes += (0.5 * (highs + lows))[:, None]
    # a few ulps wide, a lane's outer nodes can round past its ends.  A
    # node is off by a few ulps of the lane's magnitude at most, and lies
    # 0.0085 half-widths inside: lanes with a half-width over 1e-12 of
    # their magnitude need no clamp
    if not (half > 1e-12 * np.maximum(np.abs(lows), np.abs(highs))).all():
        np.maximum(nodes, np.minimum(lows, highs)[:, None], out=nodes)
        np.minimum(nodes, np.maximum(lows, highs)[:, None], out=nodes)
    fx = np.asarray(f(nodes.reshape(-1)), dtype=float)
    # one dot product per row: a 2-D matmul blocks rows together and
    # rounds a row differently depending on its neighbours
    rows = fx.reshape(len(lows), 1, 15)
    k15 = half * np.matmul(rows, _WK)[:, 0]
    g7 = half * np.matmul(rows[:, :, 1::2], _WG)[:, 0]
    return k15, np.abs(k15 - g7), rows


def _judged(lows, highs, errs, rows, shares):
    """The one acceptance test, on panels (``errs`` and ``rows`` as
    :func:`_panels` returns them) and their shares of the budget: whether
    each is accepted; its miss, _MISS s where its estimate is past its
    share and 0 elsewhere; and its estimate, the larger of |K15 - G7| and
    its tail, which numpy sums in the same order whatever the batch."""
    half = 0.5 * (highs - lows)
    r = rows[:, 0]
    tails = _dense_matrices()[1]
    estimates = np.abs(np.einsum("nj,j->n", r, tails[0]))
    estimates += np.abs(np.einsum("nj,j->n", r, tails[1]))
    estimates *= half
    np.maximum(estimates, errs, out=estimates)
    ok = estimates <= shares
    misses = np.zeros(len(estimates))
    if not ok.all():
        over = np.flatnonzero(~ok)
        top, bottom = r[over].max(axis=1), r[over].min(axis=1)
        edge = np.maximum(np.abs(lows[over]), np.abs(highs[over]))
        top = half[over] * np.maximum(np.abs(top), np.abs(bottom)) + edge * (top - bottom)
        ok[over] = estimates[over] <= _FLOOR * _EPS * top
        misses[over] = _MISS * _EPS * top
    return ok, misses, estimates


def _dense(rows, half, budget):
    """Dense output of pieces from their node rates (as :func:`_panels`
    returns them), half-widths and shares of the budget.

    Returns the (n, 16) coefficients, in powers of s, of each piece's mass
    from its left edge.  Each of the mass's 16 Legendre coefficients
    within 1/256 of the piece's share is set to 0, which moves R by at
    most 1/16 of it; on a smooth piece the top ones fall off fast, so
    above its degree the coefficients are exactly 0 and :func:`_horner`
    can stop short of them.  Computed row by row, so a row does not
    depend on its neighbours; the product keeps the tail's two columns,
    as a narrower one rounds the coefficients differently.
    """
    to_legendre, _, to_powers = _dense_matrices()
    mass = half[:, None] * np.matmul(rows, to_legendre)[:, 0, :16]
    mass[np.abs(mass) <= np.divide(budget, 256.0)[:, None]] = 0.0
    return np.matmul(mass[:, None, :], to_powers)[:, 0]


def _horner(coef, s, slope=False):
    """The polynomial with coefficients ``coef`` (one row per power of s
    from 0, at least two rows, one column per lane) at s, and with
    ``slope`` its derivative too, by Horner's rule."""
    value = coef[-1] * s
    value += coef[-2]
    deriv = coef[-1].copy()
    for j in range(len(coef) - 3, -1, -1):
        if slope:
            deriv *= s
            deriv += value
        value *= s
        value += coef[j]
    return (value, deriv) if slope else value


def _refine(f, lows, highs, spans, tol: float):
    """Adaptive bisection, one rate call per round, of intervals whose
    first panels failed.

    Each interval keeps a stack of pieces in position order, the rightmost
    on top, starting at its two halves; a piece's share of the budget
    tol / _SEGMENTS is its share of ``spans``, the width of the segment
    the interval lies in (the interval's own, unless :func:`_masses` split
    the segment at a switch point).  A round pops up to _ROUND_PIECES
    pieces off every open stack, accepts each that passes
    :func:`_judged` and pushes both halves of every other back in order.
    The accepted pieces are those a round of one piece would accept, summed
    from the rightmost leftward: a total depends on neither the round width
    nor the intervals beside it.  Depths never decrease up a stack, so at
    most 2 * _ROUND_PIECES pieces of one depth wait on it.  An interval
    cut into more than _PIECE_CAP pieces raises ToleranceNotMet.

    Returns each interval's mass, its pieces' squared misses summed, and
    the pieces of the intervals, as :func:`_masses` returns them.
    """
    seg_tol = tol / _SEGMENTS
    mids = 0.5 * (lows + highs)
    stacks = [[(a, m), (m, b)] for a, m, b in zip(lows.tolist(), mids.tolist(), highs.tolist())]
    cuts = [2] * len(lows)
    accepted = [[] for _ in stacks]
    live, kept, k = list(range(len(stacks))), [], 0
    while live:
        groups = []
        for i in live:
            groups.append(stacks[i][-_ROUND_PIECES:])
            del stacks[i][-_ROUND_PIECES:]
        a_s, b_s = np.array([p for group in groups for p in group]).T
        widths = np.repeat(spans[live], list(map(len, groups)))
        vals, errs, rows = _panels(f, a_s, b_s)
        ok, misses, errs = _judged(a_s, b_s, errs, rows, seg_tol * ((b_s - a_s) / widths))
        kept.append(rows[ok])
        results = iter(zip(ok.tolist(), vals.tolist(), misses.tolist(), errs.tolist()))
        for i, group in zip(live, groups):
            for (a, b), (good, value, miss, err) in zip(group, results):
                if good:
                    accepted[i].append((a, b, value, k, miss))
                    k += 1
                    continue
                cuts[i] += 1
                if cuts[i] > _PIECE_CAP:
                    raise ToleranceNotMet(err, tol)
                mid = 0.5 * (a + b)
                stacks[i] += [(a, mid), (mid, b)]
        live = [i for i in live if stacks[i]]
    for pieces in accepted:
        pieces.sort(key=lambda p: p[:2])
    # a total adds its pieces one at a time from the rightmost leftward
    totals = [np.cumsum([p[2] for p in reversed(pieces)])[-1] for pieces in accepted]
    misses = [sum(p[4] ** 2 for p in pieces) for pieces in accepted]
    lows, highs, k15, index, _ = map(np.array, zip(*(p for pieces in accepted for p in pieces)))
    counts = np.array([len(pieces) for pieces in accepted])
    return totals, misses, (counts, lows, highs, k15, np.concatenate(kept)[index])


def _lanes(pieces, lanes):
    """The pieces (:func:`_masses`) of the given lanes."""
    counts, *rest = pieces
    if len(rest[0]) == len(counts):
        return (counts[lanes], *(a[lanes] for a in rest))
    counts, starts = counts[lanes], (np.cumsum(counts) - counts)[lanes]
    runs = np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
    return (counts, *(a[runs] for a in rest))


def _masses(model: RateModel, lows, highs, tol: float):
    """Signed mass of the rate over each [low, high]: split at the switch
    points its source finds there (an expression's ``_switch_points``;
    other sources have none), one panel per piece, refined
    (:func:`_refine`) where it fails :func:`_judged` against its share of
    the lane's budget tol / _SEGMENTS, its share of the lane's width.  A
    lane with no switch point so keeps the bits of one panel on it.
    Returns the masses, the pieces over [min(low, high), max(low, high)],
    each lane's in position order, as (pieces per lane, lows, highs, K15
    values, node rates as :func:`_panels` gives), and the squares of each
    lane's pieces' misses (:func:`_judged`) summed."""
    # lanes with low > high, from growth below a table's origin and points
    # below its lowest checkpoint, have minus the mass of [high, low]
    sign = None if (lows <= highs).all() else np.where(lows <= highs, 1.0, -1.0)
    if sign is not None:
        lows, highs = np.minimum(lows, highs), np.maximum(lows, highs)
    spans, shares, starts = highs - lows, tol / _SEGMENTS, None
    walk = getattr(model.source, "_switch_points", None)
    cuts = None if walk is None else walk(lows, highs)
    if cuts is not None and cuts[0].size:
        # each lane's pieces, from its low through its switch points in order
        seg, points = cuts
        parts = np.bincount(seg, minlength=len(lows)) + 1
        starts, owner = np.cumsum(parts) - parts, np.repeat(np.arange(len(lows)), parts)
        lows, highs = np.insert(lows, seg + 1, points), np.insert(highs, seg, points)
        spans = spans[owner]
        split = np.flatnonzero(parts[owner] > 1)
        shares = np.full(len(lows), shares)
        shares[split] *= (highs[split] - lows[split]) / spans[split]
    k15, errs, rows = _panels(model._rate, lows, highs)
    ok, misses, errs = _judged(lows, highs, errs, rows, shares)
    vals, counts, sq = k15, np.ones(len(lows), dtype=np.int64), np.square(misses)
    pieces = (lows, highs, k15, rows)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        totals, sq[bad], (counts[bad], *refined) = _refine(
            model._rate, lows[bad], highs[bad], spans[bad], tol
        )
        vals = k15.copy()
        vals[bad] = totals
        good = np.flatnonzero(ok)
        # the refined pieces in the place of their first panels
        order = np.argsort(np.concatenate([good, np.repeat(bad, counts[bad])]), kind="stable")
        pieces = tuple(np.concatenate([a[good], b])[order] for a, b in zip(pieces, refined))
    if starts is not None:
        # a split lane's mass sums its parts', whatever lanes sit beside it
        vals, counts, sq = (np.add.reduceat(a, starts) for a in (vals, counts, sq))
    return vals if sign is None else sign * vals, (counts, *pieces), sq


def _rounding(sq: float, lanes, tol: float) -> float:
    """``sq`` plus the squared misses ``lanes`` of :func:`_masses`, added in
    order: misses add in quadrature, and past tol raise ToleranceNotMet."""
    sq = float(np.cumsum(np.concatenate([[sq], lanes]))[-1])
    if math.sqrt(sq) > tol:
        raise ToleranceNotMet(math.sqrt(sq), tol)
    return sq


def integrate(model: RateModel, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Integral of the rate over [a, b] with estimated absolute error <= tol
    plus the root-sum-square of its pieces' misses, itself within tol.

    [a, b] is split into 1024 equal segments, the first checkpoints of
    the window table on [a, b], with error budgets tol / 1024 that sum to
    tol, and a segment is split again where an expression rate may not be
    smooth (a step's break, a switch of abs, max or min), each part with
    its share of the budget; a piece whose estimate passes its share is
    accepted within its rounding floor with a miss, and misses past tol
    raise ToleranceNotMet (see the module docstring).  Both endpoints
    must lie in the model's domain (DomainViolation), so every panel node
    does.  Negative rates and expression evaluation failures propagate.
    """
    a = _real(a, "a")
    b = _real(b, "b", low=a)
    tol = _real(tol, "tol", low=0.0, strict=True)
    for point in (a, b):
        if not model.domain.contains(point):
            raise DomainViolation(point)
    if a == b:
        return 0.0
    edges = _partition(a, b)
    vals, _, sq = _masses(model, edges[:-1], edges[1:], tol)
    _rounding(0.0, sq, tol)
    return float(np.sum(vals))


def _span(span):
    if span is None or isinstance(span, Interval):
        return span
    raise InvalidParameter(f"span must be an Interval or None, got {span!r}")


class CumulativeIntensity:
    """The map t -> R(t), the signed mass from the table's origin (0 for
    every public table), memoized on a deterministic checkpoint grid.

    Checkpoints sit at fixed positions (uniform steps of a base width near
    the origin, geometrically widening further out, clipped at domain
    edges), so the table's values are independent of the order in which
    queries arrive.  All public methods take a lock; concurrent callers
    see identical values for identical inputs.

    Use :func:`cumulative_intensity` to construct these; it caches one
    instance per (model, tol, span).
    """

    # segments per side before the width starts doubling, and the number
    # of segments per doubling
    _UNIFORM_SEGMENTS = 4096
    _SEGMENTS_PER_OCTAVE = 64
    _BATCH = 128
    # rounds of the inverse's root solve, and the mass gap (in units of
    # tol) that each lane is polished below before it stops
    _MAX_ROUNDS = 96
    _POLISH = 1e-4

    def __init__(
        self,
        model: RateModel,
        tol: float = DEFAULT_TOL,
        span: Interval | None = None,
    ):
        tol = _real(tol, "tol", low=0.0, strict=True)
        # the origin is 0 clamped into the domain, which changes nothing
        # (no mass lies between 0 and the nearer edge)
        origin = model.domain.clamp(0.0)
        h0 = 1.0 / _SEGMENTS
        if _span(span) is not None:
            lo = model.domain.clamp(min(span.lo, origin))
            hi = model.domain.clamp(max(span.hi, origin))
            if hi > lo:
                h0 = (hi - lo) / _SEGMENTS
        self._start(model, tol, h0, np.array([origin]), np.array([0.0]))

    @classmethod
    def _windowed(cls, model: RateModel, tol: float, window: Interval):
        """The window table: origin ``window.lo``, base width
        window.width / 1024, and first 1024 segments the window's
        partition, set in one step from one rate call; ``mass`` is their
        masses' sum, :func:`integrate` over the window bit for bit, and
        ``r_hi`` is R at ``window.hi``, the checkpoint that adds them up in
        order.  The window must lie in the domain and ``tol`` be checked."""
        self = cls.__new__(cls)
        edges = _partition(window.lo, window.hi)
        vals, pieces, sq = _masses(model, edges[:-1], edges[1:], tol)
        r = np.add.accumulate(np.concatenate([[0.0], vals]))
        self._start(model, tol, window.width / _SEGMENTS, edges, r)
        self._pending.append((0, 1, pieces))
        if sq.any():
            self._misses[1] = _rounding(0.0, sq, tol)
        self.mass = float(np.add.reduce(vals))  # np.sum, at less call cost
        self.r_hi = float(self._r[-1])
        return self

    def _start(self, model: RateModel, tol: float, h0: float, t, r):
        """A table on the checkpoints ``t`` from its origin t[0] up, R(t) =
        ``r`` (r[0] = 0), growing h0 apart near the origin; no piece built."""
        self.model = model
        self.tol = tol
        self._lock = threading.RLock()
        self._h0 = h0
        self._t, self._r = t, r
        # the built pieces of the segment right of each checkpoint: the
        # store column of the first one and their count (0 until built)
        self._first = np.zeros(len(t), dtype=np.int32)
        self._count = np.zeros(len(t), dtype=np.int32)
        # one column per built piece; _LOW and the others name its rows
        self._pieces = np.empty((21, 0))
        self._used = 0
        # the growths since the last build: (the first lane's segment,
        # counted from the origin's, the lanes' direction, their pieces)
        self._pending = []
        self._added = {1: len(t) - 1, -1: 0}  # segments above (1) and below (-1)
        self._misses = {1: 0.0, -1: 0.0}  # their squared misses, summed

    # -- grid bookkeeping ------------------------------------------------

    def _limit(self, sign: int) -> float:
        if sign > 0:
            return min(self.model.domain.hi, _MAX_PROBE)
        return max(self.model.domain.lo, -_MAX_PROBE)

    def _exhausted(self, sign: int) -> bool:
        return sign * self._t[-1 if sign > 0 else 0] >= sign * self._limit(sign)

    def _batch(self, sign: int, start: float, added: int):
        """The next batch of checkpoints past ``start``, the outermost of
        the ``added`` segments so far on one side (sign > 0: above)."""
        j = added + np.arange(self._BATCH)
        octave = np.maximum(0, j - self._UNIFORM_SEGMENTS) // self._SEGMENTS_PER_OCTAVE
        edges = start + sign * np.cumsum(np.ldexp(self._h0, octave))
        dom_edge = self.model.domain.hi if sign > 0 else self.model.domain.lo
        edges = edges[sign * edges <= sign * dom_edge]
        if len(edges) < self._BATCH and math.isfinite(dom_edge):
            # close the last partial segment exactly at the domain edge
            if len(edges) == 0 or sign * edges[-1] < sign * dom_edge:
                edges = np.append(edges, dom_edge)
        return edges

    def _plan(self, sign: int, target: float):
        """The batches of checkpoints that extend one side of the grid
        (sign > 0: above) past ``target`` or to its limit, lazily."""
        start = self._t[-1 if sign > 0 else 0]
        added = self._added[sign]
        limit = self._limit(sign)
        while sign * start < sign * target and sign * start < sign * limit:
            edges = self._batch(sign, start, added)
            yield edges
            start = edges[-1]
            added += len(edges)

    def _extend(self, sign: int, batches):
        """Add planned batches of checkpoints to one side of the grid
        (sign > 0: above), integrating their segments (:func:`_masses`) in
        rate calls of at most _GROWTH_SEGMENTS segments, each call's batches
        added before the next call; :func:`_rounding` adds their squared
        misses to the side's.  Below the origin a segment's signed mass is
        minus its mass.

        A segment's mass and pieces do not depend on the call they sit in,
        and R accumulates batch by batch from the checkpoint each batch
        starts at, so the values are those of adding the batches one at a
        time.
        """
        step, end = _GROWTH_SEGMENTS // self._BATCH, -1 if sign > 0 else 0
        for k in range(0, len(batches), step):
            edges = np.concatenate(batches[k : k + step])
            inner = np.concatenate([[self._t[end]], edges[:-1]])
            vals, pieces, sq = _masses(self.model, inner, edges, self.tol)
            self._misses[sign] = _rounding(self._misses[sign], sq, self.tol)
            r, last, j = [], self._r[end], 0
            for batch in batches[k : k + step]:
                r.append(last + np.cumsum(vals[j : j + len(batch)]))
                last, j = r[-1][-1], j + len(batch)
            pad = np.zeros(len(edges), dtype=np.int32)
            self._added[sign] += len(edges)
            # above the origin the old top checkpoint starts the first lane's
            # segment; below it each new checkpoint starts its own
            below = self._added[-1] - (0 if sign > 0 else len(edges))
            first = len(self._t) - 1 - below if sign > 0 else -1 - below
            self._pending.append((first, sign, pieces))
            # the checkpoints below the grid go in farthest first
            old = (self._t, self._r, self._first, self._count)
            new = (edges, np.concatenate(r), pad, pad)
            self._t, self._r, self._first, self._count = (
                np.concatenate([a, b] if sign > 0 else [b[::-1], a]) for a, b in zip(old, new)
            )

    def _build(self, segs):
        """Dense output for the segments right of the checkpoints ``segs``
        that have none yet, from the pieces growth accepted since the last
        build, with no rate call, or else integrated again (:func:`_masses`,
        the same pieces) in one rate call.  The pieces of the other
        segments are dropped: a table grown between queries far apart would
        otherwise keep them all.
        """
        new = segs[self._count[segs] == 0]
        if new.size:
            new.sort()
            new = new[np.concatenate([[True], new[1:] != new[:-1]])]
            rel, rest, parts = new - self._added[-1], np.ones(len(new), dtype=bool), []
            for rel0, sign, pieces in reversed(self._pending):
                lane = (rel - rel0) * sign
                hit = rest & (lane >= 0) & (lane < len(pieces[0]))
                if hit.any():
                    parts.append((new[hit], _lanes(pieces, lane[hit])))
                    rest &= ~hit
                    if not rest.any():
                        break
            else:
                lows, highs = self._t[new[rest]], self._t[new[rest] + 1]
                parts.append((new[rest], _masses(self.model, lows, highs, self.tol)[1]))
            if len(parts) > 1:
                segs, fields = zip(*parts)
                parts = [(np.concatenate(segs), [np.concatenate(f) for f in zip(*fields)])]
            self._make(*parts[0])
        self._pending = []

    def _make(self, segs, pieces):
        """Build the pieces (:func:`_masses`) of the segments right of the
        checkpoints ``segs`` into the store: :func:`_dense` with each
        piece's share of the budget; R at its left edge, the K15 masses left
        of it added in order to R at the segment's left checkpoint; its
        mass, its polynomial at s = 1 summed from the top row down (leading
        zeros keep the bits of any degree's); and its degree."""
        counts, lows, highs, k15, rows = pieces
        at = left = self._r[segs]
        starts, share = np.arange(len(counts)), np.full(len(lows), self.tol / _SEGMENTS)
        if len(lows) > len(counts):
            width = self._t[segs + 1] - self._t[segs]
            starts, width, at = np.cumsum(counts) - counts, *np.repeat([width, left], counts, 1)
            for j in np.flatnonzero(counts > 1).tolist():
                s, n = starts[j], counts[j]
                at[s : s + n] = np.cumsum(np.concatenate([left[j : j + 1], k15[s : s + n - 1]]))
            share *= (highs - lows) / width
        coefs = _dense(rows, 0.5 * (highs - lows), share)
        used, n = self._used, len(lows)
        self._reserve(used + n)
        store = self._pieces[:, used : used + n]
        store[:16] = coefs.T
        store[_LOW], store[_HIGH], store[_R] = lows, highs, at
        store[_MASS] = np.add.accumulate(store[15::-1], axis=0)[-1]
        nonzero = store[:16] != 0
        nonzero[1] = True
        store[_DEGREE] = 15 - nonzero[::-1].argmax(axis=0)
        self._first[segs] = used + starts
        self._count[segs] = counts
        self._used = used + n

    def _reserve(self, size: int):
        """Room for ``size`` pieces, growing the store by half at a time."""
        if size > self._pieces.shape[1]:
            grown = np.empty((21, max(size, self._pieces.shape[1] * 3 // 2)))
            grown[:, : self._used] = self._pieces[:, : self._used]
            self._pieces = grown

    def _locate(self, segs, field: int, key):
        """The pieces, as columns of the store, whose ``field`` (_LOW or _R)
        is the last in their segment below the key, or else the segment's
        first: a binary search over each segment's own pieces, which lie
        in position order.  Only the lanes of segments with more than one
        piece search."""
        row = self._first[segs].astype(np.intp)
        (lanes,) = (self._count[segs] > 1).nonzero()
        if lanes.size:
            sub, key = row[lanes], key[lanes]
            n = self._count[segs[lanes]].astype(np.intp)
            half = n >> 1
            while np.any(half):
                right = self._pieces[field, sub + half] < key
                sub = np.where(right, sub + half, sub)
                n = np.where(right, n - half, half)
                half = n >> 1
            row[lanes] = sub
        return row

    def _cover(self, lo: float, hi: float):
        """Extend the grid until it covers [lo, hi] (clamped to the domain)."""
        lo = self.model.domain.clamp(lo)
        hi = self.model.domain.clamp(hi)
        self._extend(1, list(self._plan(1, hi)))
        self._extend(-1, list(self._plan(-1, lo)))

    def _probe(self, y: float, sign: int):
        # downward, >= rather than >: a target tying the lowest explored
        # value must push exploration further down so the infimum
        # convention holds independently of query history
        while not self._exhausted(sign) and (
            self._r[-1] < y if sign > 0 else self._r[0] >= y
        ):
            start = self._t[-1 if sign > 0 else 0]
            self._extend(sign, [self._batch(sign, start, self._added[sign])])

    # -- public surface ----------------------------------------------------

    @property
    def checkpoints(self):
        """The memo table as a list of (t, R(t)) pairs (a copy)."""
        with self._lock:
            return list(zip(self._t.tolist(), self._r.tolist()))

    def __call__(self, t):
        """R(t) for scalar or array t.

        Values outside the domain clamp to the nearest edge (the rate is
        zero beyond it, so R is constant there).
        """
        arr = _points(t, "t")
        if arr.size == 0:
            return np.zeros(arr.shape)
        flat = np.maximum(arr.reshape(-1), self.model.domain.lo)
        np.minimum(flat, self.model.domain.hi, out=flat)
        with self._lock:
            self._cover(float(flat.min()), float(flat.max()))
            out = self._eval_covered(flat)
        return _shaped(out, arr)

    def _eval_covered(self, flat):
        """R at points already inside the covered range; lock is held.

        A point that is a checkpoint reads its stored value, with no rate
        call: its segment [t, t] has no mass, and its panel's nodes would
        all sit at t, where the rate may not be defined.  Points past the
        probe limit, beyond the last checkpoint, add the mass from it.
        Every other point reads its piece (:meth:`_values`).  When every
        point lies strictly inside a segment, as is usual, they are read
        as they come, with no mask.
        """
        right = np.searchsorted(self._t, flat, side="right")
        ends = right.min() == 0 or right.max() == len(self._t)
        idx = np.maximum(right - 1, 0) if ends else right - 1
        inside = flat != self._t[idx]
        if not ends and inside.all():
            return self._values(idx, flat)
        out = self._r[idx]
        if ends:
            beyond = inside & ((right == 0) | (right == len(self._t)))
            if np.any(beyond):
                left = self._t[idx[beyond]]
                vals, _, sq = _masses(self.model, left, flat[beyond], self.tol)
                _rounding(0.0, sq, self.tol)
                out[beyond] += vals
                inside &= ~beyond
        if inside.any():
            out[inside] = self._values(idx[inside], flat[inside])
        return out

    def _coefficients(self, cols):
        """The coefficients of the pieces in columns ``cols`` of the store,
        one row per power of s up to the highest degree among them,
        gathered from just those rows of the store in one take.  A piece of
        lower degree gets leading zeros, which :func:`_horner` turns into
        exact zeros, so its bits do not depend on the other pieces."""
        degree = int(self._pieces[_DEGREE].take(cols).max())
        return self._pieces[: degree + 1].take(cols, axis=1)

    def _values(self, segs, xs):
        """R at points ``xs`` strictly inside the segments right of the
        checkpoints ``segs``.  :meth:`_build` builds a segment's pieces the
        first time a point lands in it.  R is R at the left edge of the
        point's piece plus the piece's antiderivative, kept between the
        segment's checkpoint values: a piece's value can round past them
        (where the rate falls to 0, as at some finite domain edges), and R
        must not decrease, or the inverse would refuse a value R returned.
        """
        self._build(segs)
        cols = self._locate(segs, _LOW, xs)
        a, b, r = np.take(self._pieces[_LOW:_MASS], cols, axis=1)
        s = (xs - 0.5 * (a + b)) / (0.5 * (b - a))
        values = np.maximum(r + _horner(self._coefficients(cols), s), self._r[segs])
        return np.minimum(values, self._r[segs + 1])

    def inverse(self, y: float) -> float:
        """Generalized inverse inf{t : R(t) >= y}; see :meth:`inverse_many`.

        Raises OutOfRange when y is beyond the mass reachable in the
        domain (the search gives up past |t| = 1e15).
        """
        return float(self.inverse_many(y))

    def inverse_many(self, ys, missing: str = "raise"):
        """Generalized inverse inf{t : R(t) >= y} of every target.

        Flat stretches of R are resolved to their left edge, and
        |R(t) - y| <= 2 tol for every result t.  Each lane depends on its
        own target only, so a scalar call (which returns a float) and a
        batch agree bitwise, and so do batches that hold the same targets
        in another order.  The lanes are solved in ascending target order,
        which makes the search of the checkpoints one ordered pass and the
        reads of the piece store run along it, and returned in input
        order; targets that come ascending and in range, as the time-change
        sampler's do, can go to :meth:`_path` with the same bits.
        ``missing`` controls out-of-range targets: "raise" propagates
        OutOfRange (the default), for the first target below the range in
        input order or, failing that, the first above it; "nan" marks
        those lanes with NaN.
        """
        if missing not in ("raise", "nan"):
            raise InvalidParameter(f"missing must be 'raise' or 'nan', got {missing!r}")
        arr = _points(ys, "targets")
        if arr.size == 0:
            return arr.copy()
        with self._lock:
            out = self._invert(arr.reshape(-1), allow_nan=(missing == "nan"))
        return _shaped(out, arr)

    def _invert(self, ys, allow_nan: bool = False):
        order = np.argsort(ys)
        keys = ys[order]
        bottom, top = float(keys[0]), float(keys[-1])
        self._probe(top, 1)
        self._probe(bottom, -1)
        # keys[:low] lie below R's bottom, keys[low:tie] on it (their
        # infimum is the lowest explored point: the domain edge, unless the
        # probe gave up), and keys[high:] above its top
        low = keys.searchsorted(self._r[0])
        tie, high = keys.searchsorted(self._r[[0, -1]], side="right")
        if not allow_nan and (low or high < len(keys)):
            lanes, bound = (order[:low], self._r[0]) if low else (order[high:], self._r[-1])
            raise OutOfRange(float(ys[lanes.min()]), float(bound))
        solved = np.full(len(keys), np.nan)
        solved[low:tie] = self._t[0]
        if tie < high:
            solved[tie:high] = self._solve(keys[tie:high])
        out = np.empty_like(solved)
        out[order] = solved
        return out

    def _path(self, ys):
        """R's inverse at a unit-rate path's arrivals ``ys``, ascending and in
        [0, R's top]: :meth:`inverse_many` bit for bit, with no sort, probe or
        range check, but an arrival of 0 maps to the origin."""
        with self._lock:
            zeros = int(ys.searchsorted(0.0, side="right"))
            pts = np.full(len(ys), self._t[self._added[-1]])
            if zeros < len(ys):
                pts[zeros:] = self._solve(ys[zeros:])
        return pts

    def _solve(self, ys):
        """Per-lane safeguarded Newton solve of R(t) = y on the dense pieces.

        On entry R's bottom < y <= R's top.  Each lane finds the checkpoints
        lo and hi with R(lo) < y <= R(hi), takes their segment's piece whose
        R at its left edge is the last below y (:meth:`_build` builds the
        pieces if need be) and brackets the root by its edges.  It starts
        on the piece's chord, through its stored mass, moved by
        _START_STEPS Newton steps on the piece's polynomial, each clipped
        to the piece (a lane whose step is not finite keeps its last
        point).  Every round reads R(t) and R'(t) off the polynomial, with
        no rate call, and tests convergence first, returning once every
        lane has converged; it then shrinks the bracket to the side of t
        that keeps the root.  The Newton step is taken only when it lands
        strictly inside the bracket and is at most half the previous step,
        as in Numerical Recipes' rtsafe; otherwise the lane bisects.
        Where R'(t) <= 0 (a plateau) the lane always bisects, which walks
        it to the plateau's left edge.

        A lane stops where R'(t) > 0 and either the Newton step rounds to
        t itself or |R(t) - y| <= max(_POLISH * tol, min(2 eps |y|, tol));
        it returns t.  The middle term is the rounding error of the gap
        R(left) + mass - y, below which no lane can polish; where it is
        above _POLISH * tol a lane would otherwise bisect until no float
        is left in its bracket.  Capped at tol, it keeps |R(t) - y| within
        2 tol; past the cap (|y| above about tol / eps, 4.5e6 at the
        default tol) lanes bisect to the last float.  A lane ends within
        the floor of its target, so results come out in order for targets
        tol / 8 apart while 4 eps |y| < tol / 8 (|y| below about 1.4e5 at
        the default tol).  A lane whose bracket has no float left strictly
        inside (or that runs out of rounds) returns its bracket's upper
        end.
        """
        segs = self._r.searchsorted(ys) - 1
        self._build(segs)
        cols = self._locate(segs, _R, ys)
        coef = self._coefficients(cols)
        lo, hi, r, mass = self._pieces[_LOW:_DEGREE].take(cols, axis=1)
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        out = hi.copy()
        floor = np.maximum(
            self._POLISH * self.tol, np.minimum(2.0 * _EPS * np.abs(ys), self.tol)
        )
        y, lane = ys, np.arange(len(ys))
        with np.errstate(divide="ignore", invalid="ignore"):
            # the start on the chord, in the piece's coordinate s
            s = 2.0 * (y - r) / mass - 1.0
            s = np.where(np.isfinite(s), np.minimum(np.maximum(s, -1.0), 1.0), 0.0)
            for _ in range(_START_STEPS):
                value, slope = _horner(coef, s, slope=True)
                nxt = np.minimum(np.maximum(s - (r + value - y) / slope, -1.0), 1.0)
                s = np.where(np.isfinite(nxt), nxt, s)
            t = np.minimum(np.maximum(mid + s * half, lo), hi)
            step = hi - lo
            for _ in range(self._MAX_ROUNDS):
                value, slope = _horner(coef, (t - mid) / half, slope=True)
                gap = r + value - y
                rate = slope / half
                positive = rate > 0.0
                newton = t - gap / rate
                converged = positive & ((np.abs(gap) <= floor) | (newton == t))
                if converged.all():
                    out[lane] = t
                    return out
                above = gap >= 0.0
                lo = np.where(above, lo, t)
                hi = np.where(above, t, hi)
                use_newton = positive & (newton > lo) & (newton < hi)
                use_newton &= np.abs(newton - t) <= 0.5 * step
                middle = lo + 0.5 * (hi - lo)
                collapsed = ~converged & ~use_newton & ((middle <= lo) | (middle >= hi))
                nxt = np.where(use_newton, newton, middle)
                step = np.abs(nxt - t)
                going = ~(converged | collapsed)
                if not going.all():
                    out[lane[converged]] = t[converged]
                    out[lane[collapsed]] = hi[collapsed]
                    if not going.any():
                        return out
                    # only the lanes still going stay in the arrays
                    lane, nxt, lo, hi, step, mid, half, r, y, floor = (
                        v[going] for v in (lane, nxt, lo, hi, step, mid, half, r, y, floor)
                    )
                    coef = coef[:, going]
                t = nxt
        out[lane] = hi
        return out

    def directional_mass(self, t0: float, sign: int, cap: float) -> float:
        """min(cap, total mass reachable from t0 in the given direction).

        Explores the grid upward (sign > 0) or downward until the running
        mass passes ``cap`` or the domain (or probe limit) is exhausted.
        """
        if _real(sign, "sign") not in (1.0, -1.0):
            raise InvalidParameter(f"sign must be +1 or -1, got {sign!r}")
        cap = _real(cap, "cap", low=0.0)
        with self._lock:
            r0 = self(t0)
            self._probe(r0 + sign * cap, sign)
            reach = float(self._r[-1]) - r0 if sign > 0 else r0 - float(self._r[0])
            return min(cap, reach)


@lru_cache(maxsize=64)
def _cached_intensity(model, tol, span, windowed):
    # one bounded cache holds the public tables and the window tables
    if windowed:
        return CumulativeIntensity._windowed(model, tol, span)
    return CumulativeIntensity(model, tol=tol, span=span)


def cumulative_intensity(
    model: RateModel, tol: float = DEFAULT_TOL, *, span: Interval | None = None
) -> CumulativeIntensity:
    """A (cached) CumulativeIntensity for the model, with R(0) = 0.

    Repeated calls with equal arguments return the same object, so its
    checkpoint table is shared; that is safe because the table only grows
    and its values do not depend on query order.  ``span``, when given,
    sizes the base checkpoint spacing to span/1024 instead of the default
    1/1024.  R stays anchored at 0, so its cost grows with distance from
    0: a query far out first grows the table from 0 out to it, and there
    the segments are wide (a span table stretches its span to cover 0
    before cutting it in 1024; the default table's segments widen
    geometrically past |t| = 4), each integrated to the same budget of
    tol / 1024.
    """
    return _cached_intensity(model, _real(tol, "tol", low=0.0, strict=True), _span(span), False)


def _window_intensity(model: RateModel, tol, window: Interval) -> CumulativeIntensity:
    """The cached window table of a window that lies in the model's domain:
    R(window.lo) = 0, and R at both window edges is a stored checkpoint.

    ``tol`` is checked before the cache lookup, so a bad one raises
    InvalidParameter even where it cannot be hashed.
    """
    return _cached_intensity(model, _real(tol, "tol", low=0.0, strict=True), window, True)
