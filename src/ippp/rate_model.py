"""Rate functions on the real line, with domains and upper bounds.

A :class:`RateModel` wraps a nonnegative rate function r together with the
domain it lives on and an optional declared upper bound.  Evaluation is
strict.  :meth:`RateModel.evaluate` checks points from outside: a
non-finite x raises :class:`~ippp.errors.InvalidParameter` and one
outside the domain :class:`~ippp.errors.DomainViolation`.  The library's
own points (panel nodes, checkpoints, inverse iterates, rejection
candidates) lie inside the domain by construction and skip those checks.
All go through one rate call, where a negative value raises
:class:`~ippp.errors.NegativeRate` and (in debug runs) a value above the
declared bound raises :class:`~ippp.errors.BoundViolation`.

Every rate is an expression in ``x`` (:class:`ExpressionRate`): the
constant, linear and sinusoidal families build ``level``,
``max(0, intercept + slope*x)`` and
``offset + amplitude*sin(frequency*x + phase)`` without parsing, and a
piecewise-constant rate a :class:`~ippp.rate_expr.Step` node, each
described by its family name.  A source's ``supremum(lo, hi)`` bounds the
rate on each segment [lo[i], hi[i]] of arrays of edges: the upper end of
the expression's interval enclosure (:func:`ippp.rate_expr.enclose`),
exact for a piecewise-constant rate.

:meth:`RateModel.envelope` turns these into the rejection sampler's
envelope over a window: one level per segment of the 1024-segment
partition that :func:`ippp.quadrature.integrate` uses, cached per
(model, window).  A declared bound gives a flat envelope at that level.
Where a segment has no finite bound, building the envelope raises
:class:`~ippp.errors.InvalidRate`, which points to ``declared_bound``.

All model objects are immutable and hashable, so downstream caches can key
on them directly.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import rate_expr
from ._record import Record
from .errors import (
    BoundViolation,
    DomainViolation,
    InvalidParameter,
    InvalidRate,
    NegativeRate,
    _points,
    _real,
    _reals,
    _shaped,
)

__all__ = [
    "Interval",
    "Domain",
    "ExpressionRate",
    "Envelope",
    "RateModel",
]

# segments in a window's partition: the envelope's pieces, and the
# integrator's segments, each with tol / _SEGMENTS of the error budget
_SEGMENTS = 1024


def _partition(a: float, b: float):
    """The _SEGMENTS + 1 edges of [a, b]: a + cumsum of equal widths, the
    last edge exactly b."""
    steps = np.add.accumulate(np.full(_SEGMENTS - 1, (b - a) / _SEGMENTS))
    return np.concatenate([[a], a + steps, [b]])


class Interval(Record):
    """A bounded window [lo, hi] with lo < hi."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        lo = _real(lo, "lo")
        hi = _real(hi, "hi")
        if not lo < hi:
            raise InvalidParameter(f"interval needs lo < hi, got [{lo!r}, {hi!r}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # built and keyed on by every operation, so spelled out
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return NotImplemented

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x):
        """Whether each point lies in the interval, ends included: a bool
        for a scalar, else a bool array of its shape.  Points go through
        the one check for points (InvalidParameter for NaN, ±inf, a bool
        or a str)."""
        x = _points(x)
        out = (x >= self.lo) & (x <= self.hi)
        return bool(out) if out.ndim == 0 else out

    def __str__(self):
        return f"[{self.lo:g}, {self.hi:g}]"


class Domain(Record):
    """Where a rate function is defined.  Edges may be infinite."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: float = -math.inf, hi: float = math.inf):
        lo = _real(lo, "lo", finite=False)
        hi = _real(hi, "hi", finite=False)
        if not lo < hi:
            raise InvalidParameter(f"domain needs lo < hi, got ({lo!r}, {hi!r})")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def contains(self, x):
        """Whether each point lies in the domain, as :meth:`Interval.contains`."""
        return Interval.contains(self, x)

    def clamp(self, t: float) -> float:
        return min(max(float(t), self.lo), self.hi)

    def __str__(self):
        lo = "-inf" if math.isinf(self.lo) else f"{self.lo:g}"
        hi = "inf" if math.isinf(self.hi) else f"{self.hi:g}"
        return f"({lo}, {hi})"


class ExpressionRate(Record):
    """A rate given by an expression in ``x``, e.g. ``"2 + 0.5*sin(x)"``,
    with the text :meth:`describe` returns."""

    _fields = ("expr", "description")
    # what makes the rate non-smooth (rate_expr._switching), found once
    __slots__ = _fields + ("_switching",)

    def __init__(self, expr: rate_expr.RateExpr, description: str):
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "_switching", rate_expr._switching(expr))

    def __call__(self, x):
        return rate_expr._values(self.expr, x)

    def supremum(self, lo, hi):
        return rate_expr.enclose(self.expr, lo, hi)[1]

    def _switch_points(self, lo, hi):
        """The points strictly inside the segments [lo, hi] where the rate
        may be non-smooth (:func:`ippp.rate_expr._switch_points`), or None
        for a tree with no switch node."""
        if self._switching is None:
            return None
        return rate_expr._switch_points(self._switching, lo, hi)

    def describe(self) -> str:
        return self.description


# The families' syntax trees, whose values keep the bits of the formulas
# they write out.  Node positions index the expression as describe()
# prints it.  A factor 1 adds no node, since 1*v is v.  Nor does a phase
# 0: v + 0 differs from v only in the sign of a zero, which the offset's
# sum drops.  The linear intercept stays even when 0, because
# max(0, -0.0) is -0.0.


def _times(c: float, c_at: int, node, at: int):
    if c == 1.0:
        return node
    return rate_expr.Binary("*", rate_expr.Num(c, c_at), node, at)


def _linear_expr(intercept: float, slope: float, text: str):
    # max(0, intercept + slope*x)
    plus, times = text.index(" + ") + 1, text.index("*")
    slope_x = _times(slope, plus + 2, rate_expr.Var(times + 1), times)
    line = rate_expr.Binary("+", rate_expr.Num(intercept, 7), slope_x, plus)
    return rate_expr.Call("max", (rate_expr.Num(0.0, 4), line), 0)


def _sinusoidal_expr(offset, amplitude, frequency, phase, text: str):
    # offset + amplitude*sin(frequency*x + phase)
    plus, times = text.index(" + ") + 1, text.index("*sin")
    inner_plus, inner_times = text.rindex(" + ") + 1, text.index("*x")
    arg = _times(frequency, times + 5, rate_expr.Var(inner_times + 1), inner_times)
    if phase != 0.0:
        arg = rate_expr.Binary("+", arg, rate_expr.Num(phase, inner_plus + 2), inner_plus)
    wave = _times(amplitude, plus + 2, rate_expr.Call("sin", (arg,), times + 1), times)
    return rate_expr.Binary("+", rate_expr.Num(offset, 0), wave, plus)


def _alias_table(masses):
    # Walker's alias table by Vose's method; leftovers (rounding) keep 1
    n = masses.size
    total = float(np.sum(masses))
    prob = np.ones(n)
    alias = np.arange(n)
    if total <= 0.0:
        return prob, alias
    scaled = (masses * (n / total)).tolist()
    small = [i for i, p in enumerate(scaled) if p < 1.0]
    large = [i for i, p in enumerate(scaled) if p >= 1.0]
    while small and large:
        s, big = small.pop(), large.pop()
        prob[s] = scaled[s]
        alias[s] = big
        scaled[big] = (scaled[big] + scaled[s]) - 1.0
        (small if scaled[big] < 1.0 else large).append(big)
    return prob, alias


class Envelope:
    """A piecewise-constant upper bound for the rate over a window.

    ``levels[i]`` bounds the rate on [edges[i], edges[i+1]]; ``mass`` is
    the sum of levels times widths.  :meth:`locate` draws from the density
    proportional to the envelope, one uniform per draw, through Walker's
    alias table of the segments' masses.
    """

    def __init__(self, edges, levels):
        self.edges = edges
        self.levels = levels
        widths = np.diff(edges)
        masses = levels * widths
        self.mass = float(np.sum(masses))
        prob, alias = _alias_table(masses)
        n = levels.size
        # column k of the table holds branch 2k, segment k for fractions
        # below prob[k], and branch 2k + 1, segment alias[k] for the rest;
        # each branch maps its fractions linearly onto its segment
        seg = np.stack([np.arange(n), alias], axis=1).ravel()
        start = np.stack([np.zeros(n), prob], axis=1).ravel()
        share = np.stack([prob, 1.0 - prob], axis=1).ravel()
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(share > 0.0, widths[seg] / share, 0.0)
        self._prob = prob
        self._start = start
        self._slope = slope
        self._lo = edges[:-1][seg]
        self._hi = edges[1:][seg]
        self._level = levels[seg]

    def locate(self, u):
        """Draws from the envelope's density for uniforms ``u`` in [0, 1).

        u * n >= 0 splits exactly, by truncation, into a column k and a
        fraction f (n is a power of two), the fraction picks the branch of
        column k and its position inside that branch's segment, so a
        position keeps the bits of u below the column's.  Returns each
        draw's segment level and location, the location inside its segment.
        """
        t = u * self._prob.size
        k = t.astype(np.intp)
        f = t - k
        j = 2 * k + (f >= self._prob[k])
        x = self._lo[j] + (f - self._start[j]) * self._slope[j]
        np.minimum(x, self._hi[j], out=x)
        return self._level[j], x


@lru_cache(maxsize=256)
def _envelope(model: "RateModel", lo: float, hi: float) -> Envelope:
    edges = _partition(lo, hi)
    if model.declared_bound is not None:
        levels = np.full(_SEGMENTS, model.declared_bound)
    else:
        sup = model.source.supremum(edges[:-1], edges[1:])
        levels = np.broadcast_to(np.asarray(sup, dtype=float), (_SEGMENTS,)).copy()
        unbounded = np.nonzero(~np.isfinite(levels))[0]
        if unbounded.size:
            i = int(unbounded[0])
            raise InvalidRate(
                f"{model.source.describe()} has no finite upper bound on "
                f"[{float(edges[i])!r}, {float(edges[i + 1])!r}] of the window "
                f"[{lo!r}, {hi!r}]; pass declared_bound to sample it"
            )
        below = np.nonzero(levels < 0.0)[0]
        if below.size:
            # the rate is negative all over this segment, which the rate
            # call reports; if it does not, the supremum is below the rate
            i = int(below[0])
            x = np.asarray(0.5 * (edges[i] + edges[i + 1]))
            raise BoundViolation(float(x), float(model._rate(x)), float(levels[i]))
    edges.setflags(write=False)
    levels.setflags(write=False)
    return Envelope(edges, levels)


class RateModel(Record):
    """A rate function together with its domain and an optional bound."""

    _fields = ("source", "domain", "declared_bound")
    __slots__ = _fields + ("_hash",)

    def __init__(
        self, source: object, domain: Domain = Domain(), declared_bound: float | None = None
    ):
        if not isinstance(domain, Domain):
            raise InvalidParameter(f"domain must be a Domain, got {domain!r}")
        if declared_bound is not None:
            declared_bound = _real(declared_bound, "declared_bound", low=0.0, strict=True)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "declared_bound", declared_bound)
        # every cache keyed on a model hashes it; an expression's hash walks
        # its whole syntax tree, so it is taken once here (and again by the
        # constructor when a pickle is loaded: str hashes differ between
        # processes)
        object.__setattr__(self, "_hash", hash((source, domain, declared_bound)))

    def __hash__(self):
        return self._hash

    # -- construction helpers ------------------------------------------------

    @classmethod
    def constant(cls, level, domain=None, declared_bound=None):
        """r(x) = level."""
        level = _real(level, "level", low=0.0)
        src = ExpressionRate(rate_expr.Num(level, 0), f"constant rate {level:g}")
        return cls(src, domain or Domain(), declared_bound)

    @classmethod
    def linear(cls, intercept, slope, domain=None, declared_bound=None):
        """r(x) = max(0, intercept + slope*x), clipped so it stays a rate."""
        intercept = _real(intercept, "intercept")
        slope = _real(slope, "slope")
        text = f"max(0, {intercept:g} + {slope:g}*x)"
        src = ExpressionRate(_linear_expr(intercept, slope, text), f"linear rate {text}")
        return cls(src, domain or Domain(), declared_bound)

    @classmethod
    def piecewise_constant(cls, breakpoints, levels, domain=None, declared_bound=None):
        """r(x) = levels[i] on [breakpoints[i], breakpoints[i+1]), the last
        piece closed, 0 outside; increasing breakpoints, levels >= 0."""
        bp = _reals(breakpoints, "breakpoint")
        lv = _reals(levels, "level", low=0.0)
        if len(bp) != len(lv) + 1 or not lv:
            raise InvalidParameter(
                f"need one or more levels and len(breakpoints) == len(levels) + 1, "
                f"got {len(bp)} and {len(lv)}"
            )
        if any(b1 >= b2 for b1, b2 in zip(bp, bp[1:])):
            raise InvalidParameter("breakpoints must be strictly increasing")
        src = ExpressionRate(
            rate_expr.Step(bp, lv), f"piecewise constant rate with {len(lv)} pieces"
        )
        return cls(src, domain or Domain(), declared_bound)

    @classmethod
    def sinusoidal(
        cls, offset, amplitude, frequency=1.0, phase=0.0, domain=None, declared_bound=None
    ):
        """r(x) = offset + amplitude*sin(frequency*x + phase).

        Requires offset >= |amplitude| so the rate never goes negative.
        """
        offset = _real(offset, "offset")
        amplitude = _real(amplitude, "amplitude")
        frequency = _real(frequency, "frequency")
        phase = _real(phase, "phase")
        if offset < abs(amplitude):
            raise InvalidParameter(
                f"offset must be >= |amplitude| to keep the rate nonnegative, "
                f"got offset={offset!r}, amplitude={amplitude!r}"
            )
        text = f"{offset:g} + {amplitude:g}*sin({frequency:g}*x + {phase:g})"
        expr = _sinusoidal_expr(offset, amplitude, frequency, phase, text)
        src = ExpressionRate(expr, f"sinusoidal rate {text}")
        return cls(src, domain or Domain(), declared_bound)

    @classmethod
    def from_expression(cls, text, domain=None, declared_bound=None):
        src = ExpressionRate(rate_expr.parse_text(text), f"rate expression {text!r}")
        return cls(src, domain or Domain(), declared_bound)

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, x):
        """Evaluate the rate at ``x`` (scalar or array) from outside.

        Raises InvalidParameter for a non-finite x and DomainViolation
        outside the domain, then the errors of :meth:`_rate`.
        """
        arr = _points(x)
        outside = (arr < self.domain.lo) | (arr > self.domain.hi)
        if outside.any():
            raise DomainViolation(float(arr[outside].flat[0]))
        return _shaped(self._rate(arr), arr)

    def _rate(self, x):
        """The rate at an array ``x`` of points that must lie inside the
        domain; only the source checks ``x`` (an expression checks that
        it is finite, and traps the floating-point flag of any node whose
        value is not).  Raises NegativeRate and (with assertions enabled)
        BoundViolation at the first point that breaks them.
        """
        vals = np.asarray(self.source(x), dtype=float)
        bad = vals < 0.0
        if bad.any():
            i = int(np.argmax(bad))
            raise NegativeRate(float(x.flat[i]), float(vals.flat[i]))
        if __debug__ and self.declared_bound is not None:
            bad = vals > self.declared_bound
            if bad.any():
                i = int(np.argmax(bad))
                raise BoundViolation(
                    float(x.flat[i]), float(vals.flat[i]), self.declared_bound
                )
        return vals

    def require_window(self, window: Interval) -> None:
        """Check that a window lies inside the domain."""
        if not isinstance(window, Interval):
            raise InvalidParameter(f"window must be an Interval, got {window!r}")
        if window.lo < self.domain.lo or window.hi > self.domain.hi:
            bad = window.lo if window.lo < self.domain.lo else window.hi
            raise DomainViolation(
                bad, f"window {window} is not contained in the domain {self.domain}"
            )

    def envelope(self, window: Interval) -> Envelope:
        """The rejection sampler's envelope over ``window``, cached.

        One level per segment of the window's 1024-segment partition (the
        partition :func:`ippp.quadrature.integrate` uses): the declared
        bound if one was given, else the source's ``supremum`` of each
        segment (the upper end of the expression's interval enclosure),
        so no rate value on the window exceeds its segment's level.
        Raises :class:`~ippp.errors.InvalidRate` where a segment has no
        finite bound (pass ``declared_bound``), and
        :class:`~ippp.errors.NegativeRate` (from the rate call) where the
        rate is negative all over a segment.
        """
        self.require_window(window)
        return _envelope(self, window.lo, window.hi)

    def bound_on(self, window: Interval) -> float:
        """An upper bound for the rate over ``window``: the largest level
        of :meth:`envelope`, so the declared bound if one was given, else
        the largest segment supremum.  It is sound: no rate value on the
        window exceeds it.
        """
        return float(np.max(self.envelope(window).levels))

    def describe(self) -> str:
        parts = [self.source.describe(), f"on {self.domain}"]
        if self.declared_bound is not None:
            parts.append(f"bounded by {self.declared_bound:g}")
        return " ".join(parts)
