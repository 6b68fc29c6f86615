"""Adaptive integration of rate functions and the cumulative intensity map.

One integrator serves the whole library.  :func:`_masses` takes a
Gauss-Kronrod 7-15 panel over each segment of a partition and refines by
interval bisection each segment whose |K15 - G7| error estimate (G7 is the
embedded 7-point Gauss rule) exceeds its budget of tol / 1024, as in the
adaptive Gauss-Kronrod scheme of QUADPACK (Piessens et al., 1983).  Each
rate call of the refinement takes up to 16 pieces of every open segment;
the accepted pieces, and the order they are summed in, are those of one
piece per call, so the sums do not change with the width of a round.  The
node and weight constants below were derived for this module by a
high-precision Newton solve of the moment equations (the 15-point
extension integrates polynomials through degree 22 exactly, which the
tests verify).

:func:`integrate` splits [a, b] into the 1024 equal segments of a table
sized to that window and sums their masses, so its estimated error is at
most the sum of the segment budgets, tol.  A single panel over the whole
window could step over a narrow spike with all 15 nodes.

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
The table also keeps the first panels of that growth (the rate at their
nodes and their |K15 - G7| estimates) until its first build of dense
output, which takes them instead of calling the rate again: a fresh
window costs one rate call where no segment needs refining.
A table memoizes integrals on a deterministic grid of checkpoints, so
repeated path simulation costs O(path length), and values never depend
on query order.  A query grows each side of the origin on its own,
planning every batch of checkpoints it needs there first and
integrating their segments in rate calls of at most 1536 segments, so
the temporaries of a large growth stay small.

Between its checkpoints the table keeps dense output, built lazily, as in
the PINV method of Derflinger, Hörmann & Leydold (ACM TOMACS 20(4), 2010).
The first time a point query or an inverse target lands in a checkpoint
segment, the segment is covered by pieces.  Each piece keeps the
antiderivative of the degree-14 polynomial through the rate at its 15
Kronrod nodes; the Kronrod rule is interpolatory, so that antiderivative
over the whole piece is the piece's K15 mass.  The pieces are those the
integrator accepts, bisected further wherever the interpolant's last two
Legendre coefficients times the half-width exceed the piece's share of
the segment budget, so a segment holding a kink is refined as the
integrator refines it.  The antiderivative is formed as a Legendre series,
whose coefficients within 1/256 of the piece's budget are set to 0 (R
moves by at most 1/16 of the budget), and kept as coefficients of powers
of the piece's local coordinate s in [-1, 1].  A piece's degree is its
highest power of s with a coefficient that is not 0 (at least 1), and
Horner's rule runs up to the highest degree among the pieces a call
reads, so a batch near the origin does not pay for the wide pieces far
out or a kinked piece elsewhere.  One rate call takes the first panel
of every new segment of a query: the first query into a segment costs
one panel (15 rate points, more where it is refined; none on a window
table's first build, whose panels come from its growth), and later
queries into it cost no rate call.  A piece holds 21 doubles (16
coefficients, its edges, R at its left edge, its mass and its degree),
168 bytes, in one column of a store with one row per field, and every
checkpoint 8 bytes more for the index of its segment's pieces.
R at a point is R at the left edge of its piece plus the piece's
antiderivative there; the panels never evaluate at a checkpoint, so R
does not need the rate there.

Its generalized inverse inf{t : R(t) >= y} supports the time-change
sampler.  Each target is bracketed by the piece whose R values hold it
and started on the piece's chord, moved by two Newton steps on the
piece's polynomial.  It is then solved on that polynomial, with no rate
call, by a safeguarded Newton iteration on R(t) = y, R' being the
interpolant: a Newton step is taken only when it stays inside the
shrinking bracket and at least halves the previous step, otherwise the
bracket is bisected.  A lane stops once its mass gap is within
max(1e-4 tol, min(2 eps |y|, tol)), the middle term being the rounding
floor of the gap itself.  Results satisfy |R(inverse(y)) - y| <= 2 tol,
an estimate against the table's own R, which is itself an estimate;
plateaus (rate zero over an interval) resolve to their left edge,
through the bisection; within one call, targets at least tol/8 apart
come out in order while 4 eps |y| < tol/8; and a target's result does
not depend on the other targets in its call, so scalar and batched calls
agree bitwise.  A batch is solved in ascending target order and returned
in input order: the search of the checkpoints is then one ordered pass,
the reads of the piece store run along the store's columns, and the
targets past either end of R's range are a prefix and a suffix of the
sorted batch (README.md gives what a warm batch of 10 000 costs).
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

_DEPTH_CAP = 50
# pieces that each interval's stack gives up to one round of _adaptive
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
    interpolant's own coefficients of degree 13 and 14, its tail.  Those
    solve the Vandermonde system of P_0..P_14 at the nodes; the integral
    from -1 of P_0 is P_0 + P_1, and of P_k, k >= 1, is
    (P_{k+1} - P_{k-1}) / (2k + 1).  The second maps Legendre
    coefficients to coefficients of powers of s; its entries are exact
    binary fractions, which the recurrence reaches without rounding.
    Converting after the Legendre step rounds in proportion to the
    Legendre coefficients, which fall off fast on an accepted piece.
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
    return np.concatenate([anti @ interp, interp[13:]]).T, powers


# the store's rows, one column per piece: 16 coefficients, then its edges,
# R at its left edge, its mass (its polynomial at s = 1) and its degree
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
    if not np.all(half > 1e-12 * np.maximum(np.abs(lows), np.abs(highs))):
        np.maximum(nodes, np.minimum(lows, highs)[:, None], out=nodes)
        np.minimum(nodes, np.maximum(lows, highs)[:, None], out=nodes)
    fx = np.asarray(f(nodes.reshape(-1)), dtype=float)
    # one dot product per row: a 2-D matmul blocks rows together and
    # rounds a row differently depending on its neighbours
    rows = fx.reshape(len(lows), 1, 15)
    k15 = half * np.matmul(rows, _WK)[:, 0]
    g7 = half * np.matmul(rows[:, :, 1::2], _WG)[:, 0]
    return k15, np.abs(k15 - g7), rows


def _dense(rows, half, budget):
    """Dense output of panels from their node rates (as :func:`_panels`
    returns them), half-widths and error budgets (one number, or one per
    panel).

    Returns the (n, 16) coefficients, in powers of s, of each piece's mass
    from its left edge, and the estimate of the interpolant's error, its
    tail coefficients times the half-width.  Each of the mass's 16
    Legendre coefficients within 1/256 of the piece's budget is set to 0,
    which moves R by at most 1/16 of the budget; on a smooth piece the top
    ones fall off fast, so above its degree the coefficients are exactly
    0 and :func:`_horner` can stop short of them.  Computed row by row, so
    a row does not depend on its neighbours.
    """
    to_legendre, to_powers = _dense_matrices()
    legendre = np.matmul(rows, to_legendre)[:, 0]
    tail = half * (np.abs(legendre[:, 16]) + np.abs(legendre[:, 17]))
    mass = half[:, None] * legendre[:, :16]
    limit = np.divide(budget, 256.0)
    mass[np.abs(mass) <= (limit[:, None] if limit.ndim else limit)] = 0.0
    return np.matmul(mass[:, None, :], to_powers)[:, 0], tail


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


def _adaptive(f, lows, highs, tol: float, errs, dense=False):
    """Adaptive bisection over parallel intervals, one rate call per round.

    ``errs`` are the estimates of the intervals' depth-0 panels, already
    taken and over budget: each interval starts at its two halves, and
    ToleranceNotMet counts those estimates.

    Each interval keeps its own stack of pieces, in position order with
    the rightmost on top, with error budgets proportional to width that
    sum to tol / _SEGMENTS (tol is the caller's, which ToleranceNotMet
    reports).  A round pops up to _ROUND_PIECES pieces off every
    unfinished stack, accepts each piece whose |K15 - G7| estimate is
    within budget and pushes both halves of every other piece back in
    position order.  Acceptance depends on the piece alone, so the
    accepted pieces are the ones a round of one piece would accept, and
    they are summed from the rightmost leftward, the order in which a
    depth-first walk that takes the right half first meets them.  So every
    interval gets the same total whatever the round width and whatever
    intervals share its batch.  Depths never decrease up a stack, so a
    round that pushes pieces of some depth has first popped every piece
    of that depth: at most 2 * _ROUND_PIECES pieces of one depth wait on
    a stack.

    With ``dense``, a piece is accepted when the larger of its estimate
    and its dense output's (:func:`_dense`) is within budget, and each
    interval comes back as its accepted pieces in position order, as
    (low, high, K15 value, 16 coefficients).
    """
    lows = np.asarray(lows, dtype=float).tolist()
    highs = np.asarray(highs, dtype=float).tolist()
    seg_tol = tol / _SEGMENTS
    worst = np.asarray(errs, dtype=float).tolist()
    mids = [0.5 * (a + b) for a, b in zip(lows, highs)]
    stacks = [[(a, m, 1), (m, b, 1)] for a, m, b in zip(lows, mids, highs)]
    accepted = [[] for _ in lows]
    live = list(range(len(lows)))
    while live:
        groups = []
        for i in live:
            groups.append(stacks[i][-_ROUND_PIECES:])
            del stacks[i][-_ROUND_PIECES:]
        pieces = [p for group in groups for p in group]
        a_s = np.array([p[0] for p in pieces])
        b_s = np.array([p[1] for p in pieces])
        vals, errs, rows = _panels(f, a_s, b_s)
        if dense:
            spans = [highs[i] - lows[i] for i, group in zip(live, groups) for _ in group]
            budgets = seg_tol * (b_s - a_s) / np.array(spans)
            coefs, tails = _dense(rows, 0.5 * (b_s - a_s), budgets)
            errs = np.maximum(errs, tails)
        results = iter(enumerate(zip(vals.tolist(), errs.tolist())))
        for i, group in zip(live, groups):
            for (a, b, depth), (j, (value, err)) in zip(group, results):
                if err <= seg_tol * (b - a) / (highs[i] - lows[i]):
                    accepted[i].append((a, b, value, coefs[j]) if dense else (a, b, value))
                    continue
                if depth >= _DEPTH_CAP:
                    raise ToleranceNotMet(max(worst[i], err), tol)
                worst[i] = max(worst[i], err)
                mid = 0.5 * (a + b)
                stacks[i].append((a, mid, depth + 1))
                stacks[i].append((mid, b, depth + 1))
        live = [i for i in live if stacks[i]]
    if dense:
        return [sorted(pieces, key=lambda p: p[:2]) for pieces in accepted]
    totals = []
    for pieces in accepted:
        total = 0.0
        for _, _, value in sorted(pieces, reverse=True):
            total += value
        totals.append(total)
    return np.array(totals)


def _masses(f, lows, highs, tol: float):
    """Signed mass over each [low, high]: one panel per lane, refined
    adaptively where its error estimate exceeds tol / _SEGMENTS.

    Returns the masses, then the |K15 - G7| estimates and node rates of
    the lanes' first panels, as :func:`_panels` returns them over
    [min(low, high), max(low, high)].
    """
    # lanes with low > high, from growth below a table's origin and points
    # below its lowest checkpoint, have minus the mass of [high, low]
    sign = np.where(np.less_equal(lows, highs), 1.0, -1.0)
    lows, highs = np.minimum(lows, highs), np.maximum(lows, highs)
    vals, errs, rows = _panels(f, lows, highs)
    vals = sign * vals
    bad = np.nonzero(errs > tol / _SEGMENTS)[0]
    if bad.size:
        vals[bad] = sign[bad] * _adaptive(f, lows[bad], highs[bad], tol, errs[bad])
    return vals, errs, rows


def integrate(model: RateModel, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Integral of the rate over [a, b] with estimated absolute error <= tol.

    [a, b] is split into 1024 equal segments, the first checkpoints of
    the window table on [a, b], with error budgets tol / 1024 that sum to
    tol.  Both endpoints must lie in the model's domain (DomainViolation),
    so every panel node does.  Negative rates and expression evaluation failures
    propagate from the rate call.
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
    return float(np.sum(_masses(model._rate, edges[:-1], edges[1:], tol)[0]))


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
        self._start(model, tol, origin, h0)

    @classmethod
    def _windowed(cls, model: RateModel, tol: float, window: Interval):
        """The window table: origin ``window.lo``, base width
        window.width / 1024, and first 1024 segments the window's
        partition, grown in one rate call; ``mass`` is their masses' sum,
        :func:`integrate` over the window bit for bit, and ``r_hi`` is R
        at ``window.hi``, the checkpoint that adds them up in order.  The
        table keeps the first panels of that growth, its 1024 segments'
        estimates and node rates (130 KB), for the first :meth:`_build`.
        The window must lie in the domain and ``tol`` be checked."""
        self = cls.__new__(cls)
        self._start(model, tol, window.lo, window.width / _SEGMENTS)
        edges = _partition(window.lo, window.hi)
        vals, *self._growth = _masses(model._rate, edges[:-1], edges[1:], tol)
        self._append(1, [edges[1:]], vals)
        self.mass = float(np.sum(vals))
        self.r_hi = float(self._r[-1])
        return self

    def _start(self, model: RateModel, tol: float, origin: float, h0: float):
        """An empty table: R(origin) = 0, and checkpoints h0 apart near it."""
        self.model = model
        self.tol = tol
        self._lock = threading.RLock()
        self._h0 = h0
        self._t = np.array([origin])
        self._r = np.array([0.0])
        # the dense pieces of the segment right of each checkpoint: the
        # store row of the first one and their count (0 until a query
        # lands in the segment)
        self._first = np.zeros(1, dtype=np.int32)
        self._count = np.zeros(1, dtype=np.int32)
        # one column per piece: the coefficients of its mass from its left
        # edge in powers of s, its edges, R at its left edge, its mass and
        # its degree
        self._pieces = np.empty((21, 0))
        self._used = 0
        self._added = {1: 0, -1: 0}  # segments added above (1) and below (-1)
        # a window table's growth panels, until its first _build
        self._growth = None

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
        (sign > 0: above), integrating their segments in rate calls of at
        most _GROWTH_SEGMENTS segments.

        A segment's mass does not depend on the call it sits in.
        """
        if not batches:
            return
        edges = np.concatenate(batches)
        inner = np.concatenate([[self._t[-1 if sign > 0 else 0]], edges[:-1]])
        step = _GROWTH_SEGMENTS
        vals = np.concatenate(
            [
                _masses(self.model._rate, inner[k : k + step], edges[k : k + step], self.tol)[0]
                for k in range(0, len(edges), step)
            ]
        )
        self._append(sign, batches, vals)

    def _append(self, sign: int, batches, vals):
        """Add batches of checkpoints to one side of the grid (sign > 0:
        above), given their segments' signed masses (below the origin,
        minus the mass of each segment).

        R accumulates batch by batch from the checkpoint each batch starts
        at, so the values are those of adding the batches one at a time.
        """
        edges = np.concatenate(batches)
        end = -1 if sign > 0 else 0
        r, last, k = [], self._r[end], 0
        for batch in batches:
            r.append(last + np.cumsum(vals[k : k + len(batch)]))
            last, k = r[-1][-1], k + len(batch)
        r = np.concatenate(r)
        pad = np.zeros(len(edges), dtype=np.int32)
        self._added[sign] += len(edges)

        def joined(old, new):
            # the checkpoints below the grid go in farthest first
            return np.concatenate([old, new] if sign > 0 else [new[::-1], old])

        self._t = joined(self._t, edges)
        self._r = joined(self._r, r)
        self._first = joined(self._first, pad)
        self._count = joined(self._count, pad)

    def _build(self, segs):
        """Dense pieces for the segments right of the checkpoints ``segs``
        that have none yet.

        Each new segment's first panel comes from :meth:`_first_panels`; a
        segment whose panel's error estimate or tail estimate is over
        budget is refined by :func:`_adaptive`.  A piece's R at its left
        edge sums the K15 masses of the segment's pieces left of it, from
        the segment's left checkpoint, so a segment's pieces do not depend
        on the segments built with it.  A piece's mass is its polynomial at
        s = 1 over all 16 rows, Horner's rule there: the rows summed in
        order from the top one down, which leading zeros leave with the
        bits of any degree's.  Every piece, refined ones included, gets its
        degree: its highest power of s with a coefficient that is not 0, at
        least 1.
        """
        new = np.sort(segs[self._count[segs] == 0])
        if new.size == 0:
            return
        new = new[np.concatenate([[True], new[1:] != new[:-1]])]
        lows, highs = self._t[new], self._t[new + 1]
        budget = self.tol / _SEGMENTS
        errs, rows = self._first_panels(new, lows, highs)
        coefs, tails = _dense(rows, 0.5 * (highs - lows), budget)
        errs = np.maximum(errs, tails)
        coefs, r = coefs.T, self._r[new]
        bad = np.flatnonzero(errs > budget)
        used = self._used
        first, counts = np.arange(used, used + len(new)), 1
        if bad.size:
            refined = _adaptive(
                self.model._rate, lows[bad], highs[bad], self.tol, errs[bad], dense=True
            )
            block = np.vstack([coefs, lows, highs, r])
            counts = np.ones(len(new), dtype=np.int32)
            parts, done = [], 0
            for j, pieces in zip(bad.tolist(), refined):
                parts.append(block[:, done:j])
                r = float(self._r[new[j]])
                cols = []
                for a, b, value, coef in pieces:
                    cols.append([*coef, a, b, r])
                    r += value
                parts.append(np.array(cols).T)
                counts[j] = len(pieces)
                done = j + 1
            parts.append(block[:, done:])
            block = np.concatenate(parts, axis=1)
            coefs, (lows, highs, r) = block[:16], block[16:]
            first = used + np.cumsum(counts) - counts
        n = len(lows)
        self._reserve(used + n)
        store = self._pieces[:, used : used + n]
        store[:16] = coefs
        store[_LOW], store[_HIGH], store[_R] = lows, highs, r
        store[_MASS] = np.cumsum(store[15::-1], axis=0)[-1]
        nonzero = store[:16] != 0
        nonzero[1] = True
        store[_DEGREE] = 15 - np.argmax(nonzero[::-1], axis=0)
        self._first[new] = first
        self._count[new] = counts
        self._used = used + n

    def _first_panels(self, new, lows, highs):
        """The |K15 - G7| estimates and node rates of the first panels of
        the segments right of the sorted checkpoints ``new``, whose edges
        are ``lows`` and ``highs``.  A window table's first call reads them
        off its growth panels when every segment is one of the window's,
        and drops those panels either way; otherwise one rate call takes
        them.  The panels are the same either way: :func:`_panels` gives a
        lane the bits it has in any batch."""
        growth, self._growth = self._growth, None
        if growth is not None:
            # the window's segments start at the origin's checkpoint
            j = new - self._added[-1]
            if j[0] >= 0 and j[-1] < len(growth[0]):
                return growth[0][j], growth[1][j]
        _, errs, rows = _panels(self.model._rate, lows, highs)
        return errs, rows

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
        (lanes,) = np.nonzero(self._count[segs] > 1)
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
                out[beyond] += _masses(self.model._rate, left, flat[beyond], self.tol)[0]
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
        degree = int(np.take(self._pieces[_DEGREE], cols).max())
        return np.take(self._pieces[: degree + 1], cols, axis=1)

    def _values(self, segs, xs):
        """R at points ``xs`` strictly inside the segments right of the
        checkpoints ``segs``.  :meth:`_build` makes a segment's pieces the
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
        order.
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
            inner = keys[tie:high]
            solved[tie:high] = self._solve(inner, self._r.searchsorted(inner))
        out = np.empty_like(solved)
        out[order] = solved
        return out

    def _solve(self, ys, idx):
        """Per-lane safeguarded Newton solve of R(t) = y on the dense pieces.

        On entry R(lo) < y <= R(hi), with lo and hi the checkpoints at
        idx - 1 and idx.  Each lane takes the segment's piece whose R at
        its left edge is the last below y (:meth:`_build` makes the pieces
        if need be) and brackets the root by the piece's edges.  It starts
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
        segs = idx - 1
        self._build(segs)
        cols = self._locate(segs, _R, ys)
        coef = self._coefficients(cols)
        lo, hi, r, mass = np.take(self._pieces[_LOW:_DEGREE], cols, axis=1)
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
