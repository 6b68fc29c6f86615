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
needs first and integrates them in one rate call, which also evaluates
the rate at each new checkpoint (NaN where that fails: the panels never
evaluate at a checkpoint, so R does not need it).  R at any other point
is its left checkpoint's value plus the mass of one more segment.

Its generalized inverse inf{t : R(t) >= y} supports the time-change
sampler.  Each target is bracketed by two adjacent checkpoints and
started where the cubic Hermite interpolant of R through R and r at both
of them reaches y (Hörmann & Leydold, ACM TOMACS 13(4), 2003).  It is
then solved by a safeguarded Newton iteration on R(t) = y, using R' = r:
a Newton step is taken only when it stays inside the shrinking bracket
and at least halves the previous step, otherwise the bracket is bisected.
A lane stops once its mass gap is within max(1e-4 tol, min(2 eps |y|,
tol)), the middle term being the rounding floor of the gap itself.
Results satisfy |R(inverse(y)) - y| <= 2 tol; plateaus (rate zero over
an interval) resolve to their left edge, through the bisection; within
one call, targets at least tol/8 apart come out in order while
4 eps |y| < tol/8; and a target's result does not depend on the other
targets in its call, so scalar and batched calls agree bitwise.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache

import numpy as np

from .errors import (
    BoundViolation,
    DomainViolation,
    EvalError,
    InvalidParameter,
    NegativeRate,
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

# Newton steps on the Hermite interpolant that start each inverse lane
_START_STEPS = 3

_EPS = float(np.finfo(float).eps)

# How far the inverse will probe for mass on an unbounded domain before
# declaring the target unreachable.
_MAX_PROBE = 1e15


def _panels(f, lows, highs, extra=None):
    """Vectorized panels over parallel arrays of interval edges.

    Each lane's weighted sums are rounded the same way whatever the number
    of lanes, so a lane's result does not depend on the batch it sits in.
    Nodes lie within their lane's ends, so inside the domain with them.
    With ``extra`` the rate at those points is evaluated in the same rate
    call and returned as a third array.
    """
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    n = len(lows)
    half = 0.5 * (highs - lows)
    xs = np.empty(15 * n + (0 if extra is None else len(extra)))
    nodes = xs[: 15 * n].reshape(n, 15)
    np.multiply.outer(half, _XK, out=nodes)
    nodes += (0.5 * (highs + lows))[:, None]
    # a few ulps wide, a lane's outer nodes can round past its ends
    ends = np.minimum(lows, highs)[:, None], np.maximum(lows, highs)[:, None]
    np.clip(nodes, *ends, out=nodes)
    if extra is not None:
        xs[15 * n :] = extra
    fx = np.asarray(f(xs), dtype=float)
    # one dot product per row: a 2-D matmul blocks rows together and
    # rounds a row differently depending on its neighbours
    rows = fx[: 15 * n].reshape(n, 1, 15)
    k15 = half * np.matmul(rows, _WK)[:, 0]
    g7 = half * np.matmul(rows[:, :, 1::2], _WG)[:, 0]
    if extra is None:
        return k15, np.abs(k15 - g7)
    return k15, np.abs(k15 - g7), fx[15 * n :]


def _adaptive(f, lows, highs, tol: float, errs=None):
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
        vals, errs = _panels(f, [p[0] for p in pieces], [p[1] for p in pieces])
        results = iter(zip(vals.tolist(), errs.tolist()))
        for i, group in zip(live, groups):
            for (a, b, depth), (value, err) in zip(group, results):
                if err <= seg_tol * (b - a) / (highs[i] - lows[i]):
                    accepted[i].append((a, b, value))
                    continue
                if depth >= _DEPTH_CAP:
                    raise ToleranceNotMet(max(worst[i], err), tol)
                worst[i] = max(worst[i], err)
                mid = 0.5 * (a + b)
                stacks[i].append((a, mid, depth + 1))
                stacks[i].append((mid, b, depth + 1))
        live = [i for i in live if stacks[i]]
    totals = []
    for pieces in accepted:
        total = 0.0
        for _, _, value in sorted(pieces, reverse=True):
            total += value
        totals.append(total)
    return np.array(totals)


def _masses(f, lows, highs, tol: float, extra=None):
    """Signed mass over each [low, high]: one panel per lane, refined
    adaptively where its error estimate exceeds tol / _SEGMENTS.

    With ``extra`` also returns the rate at those points, from the same
    first rate call.
    """
    # points past the probe limit sit beyond the last checkpoint, in lanes
    # with low > high, whose signed mass is minus that of [high, low]
    sign = np.where(np.less_equal(lows, highs), 1.0, -1.0)
    lows, highs = np.minimum(lows, highs), np.maximum(lows, highs)
    out = _panels(f, lows, highs, extra)
    vals = sign * out[0]
    bad = np.nonzero(out[1] > tol / _SEGMENTS)[0]
    if bad.size:
        vals[bad] = sign[bad] * _adaptive(f, lows[bad], highs[bad], tol, out[1][bad])
    return vals if extra is None else (vals, out[2])


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


def _hermite_start(u, m0, m1):
    """Where the cubic Hermite interpolant of R on a bracket reaches a
    target, in units of the bracket.

    On [0, 1], scaled so that R runs from 0 to 1, the interpolant is
    H(s) = ((c3 s + c2) s + m0) s with end slopes m0 and m1 (r times the
    width over the mass).  Starting on the chord, s = u, up to
    _START_STEPS Newton steps on H(s) = u are taken, each clipped to
    [0, 1]; a lane whose step is not finite keeps its last s, so a lane
    with a NaN slope starts on the chord.  This is the start of Hörmann &
    Leydold's fast numerical inversion (ACM TOMACS 13(4), 2003): a cubic
    through the values and derivatives at both ends.  The safeguarded
    solve that follows does not rely on it.
    """
    s = np.clip(u, 0.0, 1.0)
    c3 = m0 + m1 - 2.0
    c2 = 3.0 - 2.0 * m0 - m1
    with np.errstate(all="ignore"):
        for _ in range(_START_STEPS):
            h = ((c3 * s + c2) * s + m0) * s
            dh = (3.0 * c3 * s + 2.0 * c2) * s + m0
            nxt = np.clip(s - (h - u) / dh, 0.0, 1.0)
            s = np.where(np.isfinite(nxt), nxt, s)
    return s


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
        if span is not None:
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
        # r at each checkpoint, for the inverse's starts; the anchor's
        # comes with the first growth
        self._rate = np.array([math.nan])
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
        """Add planned batches of checkpoints, integrating all their
        segments and the rate at every new checkpoint in one rate call.

        R accumulates batch by batch from the checkpoint each batch starts
        at, so the values are those of adding the batches one at a time.
        The panels' nodes lie strictly inside their segments, so a rate
        that cannot be evaluated at a checkpoint (0/0 at a removable
        singularity, say) leaves R well defined: the call is redone
        without the checkpoints, whose rates are then NaN and whose
        brackets the inverse starts on the chord.
        """
        if not batches:
            return
        lows, highs = [], []
        for sign, start, edges in batches:
            inner = np.concatenate([[start], edges[:-1]])
            # _masses is signed, so each segment goes in as (low, high)
            lows.append(inner if sign > 0 else edges)
            highs.append(edges if sign > 0 else inner)
        extra = [edges for _, _, edges in batches]
        fresh = len(self._t) == 1
        if fresh:
            extra.append([self._anchor])
        lows, highs, extra = map(np.concatenate, (lows, highs, extra))
        try:
            vals, rates = _masses(self.model._rate, lows, highs, self.tol, extra)
        except (EvalError, NegativeRate, BoundViolation):
            rates = None
        if rates is None:
            vals = _masses(self.model._rate, lows, highs, self.tol)
            rates = np.full(len(extra), math.nan)
        if fresh:
            self._rate = rates[-1:].copy()
        last = {1: self._r[-1], -1: self._r[0]}
        parts = {1: [], -1: []}
        k = 0
        for sign, _, edges in batches:
            n = len(edges)
            r = last[sign] + sign * np.cumsum(vals[k : k + n])
            last[sign] = r[-1]
            parts[sign].append((edges, r, rates[k : k + n]))
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
        self._rate = joined(2, self._rate)

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
        all sit at t, where the rate may not be defined.  A point's value
        is capped at its right checkpoint's: the left checkpoint's value
        plus one segment's mass can round an ulp past it (where the rate
        falls to 0, as at some finite domain edges), and R must not
        decrease, or the inverse would refuse a value R returned.
        """
        right = np.searchsorted(self._t, flat, side="right")
        idx = np.clip(right - 1, 0, len(self._t) - 1)
        left = self._t[idx]
        out = self._r[idx]
        off = flat != left
        if np.any(off):
            out[off] += _masses(self.model._rate, left[off], flat[off], self.tol)
            has_right = right < len(self._t)
            out[has_right] = np.minimum(out[has_right], self._r[right[has_right]])
        return out

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
        """Per-lane safeguarded Newton solve of R(t) = y, R' = r.

        On entry R(lo) < y <= R(hi), with lo and hi the checkpoints at
        idx - 1 and idx.  Each lane starts where the cubic Hermite
        interpolant of R on [lo, hi], through R and r at both checkpoints,
        reaches y (:func:`_hermite_start`).  Every round measures R(t) from
        the fixed anchor lo with one panel (refined adaptively when its
        error estimate is too big) and r(t) in the same rate call, and
        shrinks the bracket to the side of t that keeps the root.  The
        Newton step is taken only when it lands strictly inside the
        bracket and is at most half the previous step, as in Numerical
        Recipes' rtsafe; otherwise the lane bisects.  Where r(t) = 0 (a
        plateau) the lane always bisects, which walks it to the plateau's
        left edge.

        A lane stops where r(t) > 0 and either the Newton step rounds to t
        itself or |R(t) - y| <= max(_POLISH * tol, min(2 eps |y|, tol)); it
        returns t.  The middle term is the rounding error of the gap
        R(lo) + mass - y, below which no lane can polish; where it is
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
        anchor_t, anchor_r = self._t[idx - 1], self._r[idx - 1]
        lo = anchor_t.copy()
        hi = self._t[idx]
        width = hi - lo
        seg_mass = self._r[idx] - anchor_r
        s = _hermite_start(
            (ys - anchor_r) / seg_mass,
            self._rate[idx - 1] * width / seg_mass,
            self._rate[idx] * width / seg_mass,
        )
        t = np.clip(lo + s * width, lo, hi)
        step = width
        out = hi.copy()
        floor = np.maximum(
            self._POLISH * self.tol, np.minimum(2.0 * _EPS * np.abs(ys), self.tol)
        )
        active = np.arange(len(ys))
        for _ in range(self._MAX_ROUNDS):
            ta, loa, hia = t[active], lo[active], hi[active]
            mass, rate = _masses(self.model._rate, anchor_t[active], ta, self.tol, ta)
            gap = anchor_r[active] + mass - ys[active]
            above = gap >= 0.0
            loa = np.where(above, loa, ta)
            hia = np.where(above, ta, hia)
            positive = rate > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = ta - gap / rate
            use_newton = (
                positive
                & (newton > loa)
                & (newton < hia)
                & (np.abs(newton - ta) <= 0.5 * step[active])
            )
            mid = loa + 0.5 * (hia - loa)
            converged = positive & ((np.abs(gap) <= floor[active]) | (newton == ta))
            collapsed = ~converged & ~use_newton & ((mid <= loa) | (mid >= hia))
            out[active[converged]] = ta[converged]
            out[active[collapsed]] = hia[collapsed]
            nxt = np.where(use_newton, newton, mid)
            lo[active] = loa
            hi[active] = hia
            step[active] = np.abs(nxt - ta)
            t[active] = nxt
            active = active[~(converged | collapsed)]
            if active.size == 0:
                break
        out[active] = hi[active]
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
    return _cached_intensity(model, _real(tol, "tol", low=0.0, strict=True), span)
