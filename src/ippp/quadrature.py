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
anchored at 0: R(t) is the mass on (0, t] for t >= 0 and minus the mass
on (t, 0] for t < 0.  It memoizes integrals on a deterministic grid of
checkpoints, so repeated path simulation costs O(path length), and values
never depend on query order.  A query plans every batch of checkpoints it
needs first and integrates their segments in rate calls of at most 1536
segments (a little over the 1152 of a fresh span table's first growth),
so the temporaries of a large growth stay small.

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
of the piece's local coordinate s in [-1, 1], which Horner's rule
evaluates up to the highest degree left in the table.  One rate call
takes the first panel of every new segment of a query: the first query
into a segment costs one panel (15 rate points, more where it is
refined), and later queries into it cost no rate call.  A piece holds 19
doubles (16 coefficients, its edges and R at its left edge), 152 bytes,
and every checkpoint 8 bytes more for the index of its segment's pieces.
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
agree bitwise.
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
# segments per rate call when a table grows, which bounds its temporaries
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


# a piece's row in the store: 16 coefficients, then its edges and R there
_LOW, _HIGH, _R = 16, 17, 18


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
    # a few ulps wide, a lane's outer nodes can round past its ends
    ends = np.minimum(lows, highs)[:, None], np.maximum(lows, highs)[:, None]
    np.clip(nodes, *ends, out=nodes)
    fx = np.asarray(f(nodes.reshape(-1)), dtype=float)
    # one dot product per row: a 2-D matmul blocks rows together and
    # rounds a row differently depending on its neighbours
    rows = fx.reshape(len(lows), 1, 15)
    k15 = half * np.matmul(rows, _WK)[:, 0]
    g7 = half * np.matmul(rows[:, :, 1::2], _WG)[:, 0]
    return k15, np.abs(k15 - g7), rows


def _dense(rows, half, budget):
    """Dense output of panels from their node rates (as :func:`_panels`
    returns them), half-widths and error budgets.

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
    mass[np.abs(mass) <= np.reshape(budget, (-1, 1)) / 256] = 0.0
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


def _adaptive(f, lows, highs, tol: float, errs=None, dense=False):
    """Adaptive bisection over parallel intervals, one rate call per round.

    With ``errs``, the estimates of depth-0 panels already taken and over
    budget, each interval starts at its two halves, and ToleranceNotMet
    counts those estimates.

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
    if errs is None:
        worst = [0.0] * len(lows)
        stacks = [[(a, b, 0)] if a != b else [] for a, b in zip(lows, highs)]
    else:
        worst = np.asarray(errs, dtype=float).tolist()
        mids = [0.5 * (a + b) for a, b in zip(lows, highs)]
        stacks = [[(a, m, 1), (m, b, 1)] for a, m, b in zip(lows, mids, highs)]
    accepted = [[] for _ in lows]
    live = [i for i, stack in enumerate(stacks) if stack]
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
    adaptively where its error estimate exceeds tol / _SEGMENTS."""
    # points past the probe limit sit beyond the last checkpoint, in lanes
    # with low > high, whose signed mass is minus that of [high, low]
    sign = np.where(np.less_equal(lows, highs), 1.0, -1.0)
    lows, highs = np.minimum(lows, highs), np.maximum(lows, highs)
    vals, errs, _ = _panels(f, lows, highs)
    vals = sign * vals
    bad = np.nonzero(errs > tol / _SEGMENTS)[0]
    if bad.size:
        vals[bad] = sign[bad] * _adaptive(f, lows[bad], highs[bad], tol, errs[bad])
    return vals


def integrate(model: RateModel, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Integral of the rate over [a, b] with estimated absolute error <= tol.

    [a, b] is split as a checkpoint table sized to it splits it, into 1024
    equal segments with error budgets tol / 1024 that sum to tol.  Both
    endpoints must lie in the model's domain (DomainViolation), so every
    panel node does.  Negative rates and expression evaluation failures
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
    return float(np.sum(_masses(model._rate, edges[:-1], edges[1:], tol)))


def _span(span):
    if span is None or isinstance(span, Interval):
        return span
    raise InvalidParameter(f"span must be an Interval or None, got {span!r}")


class CumulativeIntensity:
    """The map t -> R(t), memoized on a deterministic checkpoint grid.

    Checkpoints sit at fixed positions (uniform steps of a base width near
    the anchor, geometrically widening further out, clipped at domain
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
        self.model = model
        self.tol = _real(tol, "tol", low=0.0, strict=True)
        self._lock = threading.RLock()
        # R(anchor) = 0; the anchor is 0 clamped into the domain, which
        # changes nothing (no mass lies between 0 and the nearer edge).
        self._anchor = model.domain.clamp(0.0)
        if _span(span) is not None:
            lo = min(span.lo, self._anchor)
            hi = max(span.hi, self._anchor)
            lo = model.domain.clamp(lo)
            hi = model.domain.clamp(hi)
            width = hi - lo
            self._h0 = width / _SEGMENTS if width > 0 else 1.0 / _SEGMENTS
        else:
            self._h0 = 1.0 / _SEGMENTS
        self._t = np.array([self._anchor])
        self._r = np.array([0.0])
        # the dense pieces of the segment right of each checkpoint: the
        # store row of the first one and their count (0 until a query
        # lands in the segment)
        self._first = np.zeros(1, dtype=np.int32)
        self._count = np.zeros(1, dtype=np.int32)
        # one row per piece: the coefficients of its mass from its left
        # edge in powers of s, its edges and R at its left edge
        self._pieces = np.empty((0, 19))
        self._used = 0
        # the highest power of s with a coefficient that is not 0
        self._degree = 0
        self._added = {1: 0, -1: 0}  # segments added above (1) and below (-1)

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
        """The batches that extend one side of the grid (sign > 0: above)
        past ``target`` or to its limit, lazily, as (sign, start, edges)."""
        start = self._t[-1 if sign > 0 else 0]
        added = self._added[sign]
        limit = self._limit(sign)
        while sign * start < sign * target and sign * start < sign * limit:
            edges = self._batch(sign, start, added)
            yield sign, start, edges
            start = edges[-1]
            added += len(edges)

    def _extend(self, batches):
        """Add planned batches of checkpoints, integrating their segments
        in rate calls of at most _GROWTH_SEGMENTS segments.

        R accumulates batch by batch from the checkpoint each batch starts
        at, so the values are those of adding the batches one at a time,
        and a segment's mass does not depend on the call it sits in.
        """
        if not batches:
            return
        lows, highs = [], []
        for sign, start, edges in batches:
            inner = np.concatenate([[start], edges[:-1]])
            # _masses is signed, so each segment goes in as (low, high)
            lows.append(inner if sign > 0 else edges)
            highs.append(edges if sign > 0 else inner)
        lows, highs = np.concatenate(lows), np.concatenate(highs)
        step = _GROWTH_SEGMENTS
        vals = np.concatenate(
            [
                _masses(self.model._rate, lows[k : k + step], highs[k : k + step], self.tol)
                for k in range(0, len(lows), step)
            ]
        )
        last = {1: self._r[-1], -1: self._r[0]}
        parts = {1: [], -1: []}
        k = 0
        for sign, _, edges in batches:
            n = len(edges)
            r = last[sign] + sign * np.cumsum(vals[k : k + n])
            last[sign] = r[-1]
            parts[sign].append((edges, r))
            self._added[sign] += n
            k += n
        below, above = parts[-1][::-1], parts[1]

        def joined(col, old):
            # the checkpoints below the grid go in farthest first
            return np.concatenate(
                [p[col][::-1] for p in below] + [old] + [p[col] for p in above]
            )

        self._t = joined(0, self._t)
        self._r = joined(1, self._r)
        n_below = sum(len(p[0]) for p in below)
        n_above = sum(len(p[0]) for p in above)
        pad = np.zeros(n_below, dtype=np.int32), np.zeros(n_above, dtype=np.int32)
        self._first = np.concatenate([pad[0], self._first, pad[1]])
        self._count = np.concatenate([pad[0], self._count, pad[1]])

    def _build(self, segs):
        """Dense pieces for the segments right of the checkpoints ``segs``
        that have none yet.

        One rate call takes a panel over each new segment; a segment whose
        panel's error estimate or tail estimate is over budget is refined
        by :func:`_adaptive`.  A piece's R at its left edge sums the K15
        masses of the segment's pieces left of it, from the segment's left
        checkpoint, so a segment's pieces do not depend on the segments
        built with it.
        """
        new = np.sort(segs[self._count[segs] == 0])
        if new.size == 0:
            return
        new = new[np.concatenate([[True], new[1:] != new[:-1]])]
        lows, highs = self._t[new], self._t[new + 1]
        budget = self.tol / _SEGMENTS
        _, errs, rows = _panels(self.model._rate, lows, highs)
        coefs, tails = _dense(rows, 0.5 * (highs - lows), budget)
        errs = np.maximum(errs, tails)
        block = np.column_stack([coefs, lows, highs, self._r[new]])
        bad = np.flatnonzero(errs > budget)
        counts = np.ones(len(new), dtype=np.int32)
        if bad.size:
            refined = _adaptive(
                self.model._rate, lows[bad], highs[bad], self.tol, errs[bad], dense=True
            )
            parts, done = [], 0
            for j, pieces in zip(bad.tolist(), refined):
                parts.append(block[done:j])
                r = float(self._r[new[j]])
                rows = []
                for a, b, value, coef in pieces:
                    rows.append([*coef, a, b, r])
                    r += value
                parts.append(np.array(rows))
                counts[j] = len(pieces)
                done = j + 1
            parts.append(block[done:])
            block = np.concatenate(parts)
        used = self._used
        self._reserve(used + len(block))
        self._pieces[used : used + len(block)] = block
        self._first[new] = used + np.cumsum(counts) - counts
        self._count[new] = counts
        self._used = used + len(block)
        if block[:, self._degree + 1 : 16].any():
            self._degree = int(np.flatnonzero(np.any(block[:, :16], axis=0))[-1])

    def _reserve(self, size: int):
        """Room for ``size`` pieces, growing the store by half at a time."""
        if size > len(self._pieces):
            grown = np.empty((max(size, len(self._pieces) * 3 // 2), 19))
            grown[: self._used] = self._pieces[: self._used]
            self._pieces = grown

    def _locate(self, segs, field: int, key):
        """The pieces, as rows of the store, whose ``field`` (_LOW or _R)
        is the last in their segment below the key, or else the segment's
        first: a binary search over each segment's own pieces, which lie
        in position order."""
        row = self._first[segs].astype(np.intp)
        n = self._count[segs].astype(np.intp)
        half = n >> 1
        while np.any(half):
            right = self._pieces[row + half, field] < key
            row = np.where(right, row + half, row)
            n = np.where(right, n - half, half)
            half = n >> 1
        return row

    def _cover(self, lo: float, hi: float):
        """Extend the grid until it covers [lo, hi] (clamped to the domain)."""
        lo = self.model.domain.clamp(lo)
        hi = self.model.domain.clamp(hi)
        self._extend([*self._plan(1, hi), *self._plan(-1, lo)])

    def _probe(self, y: float, sign: int):
        # downward, >= rather than >: a target tying the lowest explored
        # value must push exploration further down so the infimum
        # convention holds independently of query history
        while not self._exhausted(sign) and (
            self._r[-1] < y if sign > 0 else self._r[0] >= y
        ):
            start = self._t[-1 if sign > 0 else 0]
            self._extend([(sign, start, self._batch(sign, start, self._added[sign]))])

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
        flat = np.clip(arr.reshape(-1), self.model.domain.lo, self.model.domain.hi)
        with self._lock:
            self._cover(float(flat.min()), float(flat.max()))
            out = self._eval_covered(flat)
        return _shaped(out, arr)

    def _eval_covered(self, flat):
        """R at points already inside the covered range; lock is held.

        A point that is a checkpoint reads its stored value, with no rate
        call: its segment [t, t] has no mass, and its panel's nodes would
        all sit at t, where the rate may not be defined.  Any other point
        reads its piece (:meth:`_build` makes the pieces of a segment the
        first time a point lands in it): R at the piece's left edge plus
        the piece's antiderivative.  Points past the probe limit, beyond
        the last checkpoint, add the mass from it instead.  A point's value
        is kept between its checkpoints' values: a piece's value can round
        past them (where the rate falls to 0, as at some finite domain
        edges), and R must not decrease, or the inverse would refuse a
        value R returned.
        """
        right = np.searchsorted(self._t, flat, side="right")
        idx = np.maximum(right - 1, 0)
        left = self._t[idx]
        out = self._r[idx]
        off = flat != left
        if np.any(off):
            has_right = right < len(self._t)
            inside = off & has_right & (right > 0)
            if np.any(inside):
                segs, xs = idx[inside], flat[inside]
                self._build(segs)
                values = self._values(self._locate(segs, _LOW, xs), xs)
                out[inside] = np.maximum(values, out[inside])
            beyond = off & ~inside
            if np.any(beyond):
                out[beyond] += _masses(self.model._rate, left[beyond], flat[beyond], self.tol)
            out[has_right] = np.minimum(out[has_right], self._r[right[has_right]])
        return out

    def _coefficients(self, pieces):
        """The coefficients of pieces (rows of the store) as one row per
        power of s up to the table's degree, one column per piece.  A piece
        of lower degree gets leading zeros, which :func:`_horner` turns
        into exact zeros, so its bits do not depend on the other pieces."""
        return np.ascontiguousarray(pieces[:, : max(self._degree, 1) + 1].T)

    def _values(self, rows, xs):
        """R at points inside the pieces in ``rows``."""
        piece = np.take(self._pieces, rows, axis=0)
        a, b = piece[:, _LOW], piece[:, _HIGH]
        s = (xs - 0.5 * (a + b)) / (0.5 * (b - a))
        return piece[:, _R] + _horner(self._coefficients(piece), s)

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
        batch agree bitwise.
        ``missing`` controls out-of-range targets: "raise" propagates
        OutOfRange (the default), "nan" marks those lanes with NaN.
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
        self._probe(float(ys.max()), 1)
        self._probe(float(ys.min()), -1)
        below = ys < self._r[0]
        above = ys > self._r[-1]
        if np.any(below) and not allow_nan:
            bad = float(ys[below][0])
            raise OutOfRange(bad, float(self._r[0]))
        if np.any(above) and not allow_nan:
            bad = float(ys[above][0])
            raise OutOfRange(bad, float(self._r[-1]))
        ok = ~(below | above)
        out = np.full(ys.shape, np.nan)
        if np.any(ok):
            y_ok = ys[ok]
            idx = np.searchsorted(self._r, y_ok, side="left")
            # y == bottom-of-range hits index 0: the infimum is the lowest
            # explored point (the domain edge, unless the probe gave up)
            at_bottom = idx == 0
            roots = np.full(y_ok.shape, self._t[0])
            need = ~at_bottom
            if np.any(need):
                roots[need] = self._solve(y_ok[need], idx[need])
            out[ok] = roots
        return out

    def _solve(self, ys, idx):
        """Per-lane safeguarded Newton solve of R(t) = y on the dense pieces.

        On entry R(lo) < y <= R(hi), with lo and hi the checkpoints at
        idx - 1 and idx.  Each lane takes the segment's piece whose R at
        its left edge is the last below y (:meth:`_build` makes the pieces
        if need be) and brackets the root by the piece's edges.  It starts
        on the piece's chord, moved by _START_STEPS Newton steps on the
        piece's polynomial, each clipped to the piece (a lane whose step is
        not finite keeps its last point).  Every round reads R(t) and R'(t)
        off the polynomial, with no rate call, and shrinks the bracket to
        the side of t that keeps the root.  The Newton step is taken only when it
        lands strictly inside the bracket and is at most half the previous
        step, as in Numerical Recipes' rtsafe; otherwise the lane bisects.
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
        piece = np.take(self._pieces, self._locate(segs, _R, ys), axis=0)
        coef = self._coefficients(piece)
        lo, hi, r = piece[:, _LOW], piece[:, _HIGH], piece[:, _R]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        out = hi.copy()
        floor = np.maximum(
            self._POLISH * self.tol, np.minimum(2.0 * _EPS * np.abs(ys), self.tol)
        )
        y, lane = ys, np.arange(len(ys))
        with np.errstate(divide="ignore", invalid="ignore"):
            # the start, in the piece's coordinate s: the piece's mass is
            # its polynomial at s = 1
            s = 2.0 * (y - r) / _horner(coef, np.ones_like(y)) - 1.0
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
                above = gap >= 0.0
                lo = np.where(above, lo, t)
                hi = np.where(above, t, hi)
                positive = rate > 0.0
                newton = t - gap / rate
                use_newton = positive & (newton > lo) & (newton < hi)
                use_newton &= np.abs(newton - t) <= 0.5 * step
                middle = lo + 0.5 * (hi - lo)
                converged = positive & ((np.abs(gap) <= floor) | (newton == t))
                collapsed = ~converged & ~use_newton & ((middle <= lo) | (middle >= hi))
                out[lane[converged]] = t[converged]
                out[lane[collapsed]] = hi[collapsed]
                nxt = np.where(use_newton, newton, middle)
                step = np.abs(nxt - t)
                t = nxt
                going = ~(converged | collapsed)
                if not going.all():
                    # only the lanes still going stay in the arrays
                    if not going.any():
                        return out
                    lane, t, lo, hi, step, mid, half, r, y, floor = (
                        v[going] for v in (lane, t, lo, hi, step, mid, half, r, y, floor)
                    )
                    coef = coef[:, going]
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
def _cached_intensity(model, tol, span):
    return CumulativeIntensity(model, tol=tol, span=span)


def cumulative_intensity(
    model: RateModel, tol: float = DEFAULT_TOL, *, span: Interval | None = None
) -> CumulativeIntensity:
    """A (cached) CumulativeIntensity for the model.

    Repeated calls with equal arguments return the same object, so its
    checkpoint table is shared; that is safe because the table only grows
    and its values do not depend on query order.  ``span``, when given,
    sizes the base checkpoint spacing to span/1024 instead of the default
    1/1024.
    """
    return _cached_intensity(model, _real(tol, "tol", low=0.0, strict=True), _span(span))
