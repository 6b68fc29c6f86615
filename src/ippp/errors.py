"""Exception types shared across the package.

Every error raised deliberately by this library derives from IpppError, so
callers can catch one base class at the boundary.  Errors that point at a
location in an expression carry a ``position`` attribute (0-based offset
into the source text).

Arguments are checked here, one function per kind of input: a real
number (:func:`_real`) or a list of them (:func:`_reals`), an integer
(:func:`_integer`) and points given as a scalar or an array (:func:`_points`,
with :func:`_shaped` for a result in their shape).  Python and numpy ints and
floats pass; a bool, a str and anything else raise the error class the
caller names, which says which argument was wrong and why.
"""

from __future__ import annotations

import math

import numpy as np


class IpppError(Exception):
    """Base class for all errors raised by this package."""


class LexError(IpppError):
    """Raised when the expression lexer hits a character it cannot tokenize."""

    def __init__(self, position: int, message: str):
        self.position = position
        self.message = message
        super().__init__(f"lex error at position {position}: {message}")


class ParseError(IpppError):
    """Raised when the token stream does not match the expression grammar."""

    def __init__(self, position: int, expected: str):
        self.position = position
        self.expected = expected
        super().__init__(f"parse error at position {position}: expected {expected}")


class UnknownFunction(ParseError):
    """Raised when an identifier is applied like a function but is not one."""

    def __init__(self, position: int, name: str):
        self.name = name
        ParseError.__init__(self, position, f"a known function, got {name!r}")


class UnknownVariable(ParseError):
    """Raised for identifiers that are neither ``x`` nor a named constant."""

    def __init__(self, position: int, name: str):
        self.name = name
        ParseError.__init__(self, position, f"'x', 'pi' or 'e', got {name!r}")


class EvalError(IpppError):
    """Raised when evaluating an expression produces a non-finite value."""

    def __init__(self, position: int, cause: str):
        self.position = position
        self.cause = cause
        super().__init__(f"evaluation error at position {position}: {cause}")


class DomainViolation(IpppError):
    """Raised when a query point lies outside the rate function's domain."""

    def __init__(self, x: float, message: str = ""):
        self.x = x
        detail = message or f"point {x!r} is outside the rate function's domain"
        super().__init__(detail)


class NegativeRate(IpppError):
    """Raised when a rate function evaluates to a negative value."""

    def __init__(self, x: float, value: float):
        self.x = x
        self.value = value
        super().__init__(f"rate is negative at x={x!r}: {value!r}")


class BoundViolation(IpppError):
    """Raised when an observed rate exceeds its upper bound: the declared
    bound, or the level of the rejection envelope's segment."""

    def __init__(self, x: float, value: float, bound: float):
        self.x = x
        self.value = value
        self.bound = bound
        super().__init__(
            f"rate {value!r} at x={x!r} exceeds its upper bound {bound!r}"
        )


class ZeroRate(IpppError):
    """Raised when rejection sampling is attempted under a zero upper bound."""


class ZeroMass(IpppError):
    """Raised when a window carries (numerically) no intensity mass."""

    def __init__(self, mass: float, tol: float):
        self.mass = mass
        self.tol = tol
        super().__init__(f"window mass {mass!r} is not above tolerance {tol!r}")


class NonTermination(IpppError):
    """Raised when a sampling loop exceeds its rejection budget."""

    def __init__(self, rejections: int):
        self.rejections = rejections
        super().__init__(f"no acceptance after {rejections} rejected candidates")


class ToleranceNotMet(IpppError):
    """Raised when adaptive integration cannot reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"integration tolerance {requested!r} not met "
            f"(best achievable error estimate {achieved!r})"
        )


class OutOfRange(IpppError):
    """Raised when inverting the cumulative intensity beyond its reachable
    range.  ``sup`` is the end of the explored range that ``y`` lies past:
    the highest mass explored for a target above the range, the lowest for
    one below it."""

    def __init__(self, y: float, sup: float):
        self.y = y
        self.sup = sup
        side, end = ("below", "lowest") if y < sup else ("above", "highest")
        super().__init__(
            f"target mass {y!r} is {side} the reachable range "
            f"({end} mass explored: {sup!r})"
        )


class InvalidParameter(IpppError, ValueError):
    """Raised for invalid arguments: a number, integer or point of the
    wrong type, non-finite or out of range, a window outside the domain;
    also a ValueError, the built-in for a bad argument value."""


class InvalidRate(InvalidParameter):
    """Raised for a rate with no finite upper bound on part of a window,
    where the rejection sampler needs one (pass ``declared_bound``)."""


class InvalidShape(InvalidParameter):
    """Raised for Erlang shapes that are not integers >= 1."""


class InvalidMean(InvalidParameter):
    """Raised for Poisson means that are not finite real numbers >= 0."""


class InvalidIndex(InvalidParameter):
    """Raised for order-statistic indices that are not integers with
    1 <= k <= m."""


def _real(value, name: str, error=InvalidParameter, *, low=None, strict=False, finite=True):
    """``value`` as a float: a Python or numpy int or float, not a bool
    and not NaN, finite unless ``finite`` is False, and >= ``low`` (> with
    ``strict``) when ``low`` is given.  Raises ``error`` naming ``name``.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an int beyond the largest float
        out = math.inf if value > 0 else -math.inf
    if math.isnan(out) or (finite and math.isinf(out)):
        need = "finite" if finite else "a number, not NaN"
        raise error(f"{name} must be {need}, got {value!r}")
    if low is not None and (out < low or (strict and out == low)):
        raise error(f"{name} must be {'>' if strict else '>='} {low!r}, got {value!r}")
    return out


def _reals(values, name: str, error=InvalidParameter, **limits) -> tuple:
    """``values``, a list, tuple, range or 1-D array, as a tuple of floats,
    each checked by :func:`_real` naming ``name``; else raises ``error``."""
    if not (isinstance(values, (list, tuple, range)) or getattr(values, "ndim", 0) == 1):
        raise error(f"{name}s must be a list, tuple or 1-D array, got {values!r}")
    return tuple(_real(v, name, error, **limits) for v in values)


def _integer(value, name: str, error=InvalidParameter, *, low=None, high=None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, within
    [``low``, ``high``] where given.  Raises ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    out = int(value)
    if low is not None and out < low:
        raise error(f"{name} must be >= {low}, got {out}")
    if high is not None and out > high:
        raise error(f"{name} must be <= {high}, got {out}")
    return out


def _points(x, name: str = "x", error=InvalidParameter):
    """``x``, a real scalar or array of any shape, as a float array, with
    one pass over it to check that every point is finite.  Raises
    ``error`` naming ``name``.  A Python list or tuple is also checked for
    bools, which numpy would turn into numbers beside the floats."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iuf":
        raise error(f"{name} must be real numbers, got dtype {arr.dtype.name}")
    if isinstance(x, (list, tuple)) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(x, dtype=object).flat
    ):
        raise error(f"{name} must be real numbers, got a bool in {x!r}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise error(f"{name} must be finite")
    return arr


def _shaped(values, points):
    """``values``, one per point, in the shape of the array ``points``: a
    float for 0-d ``points``, else an array."""
    out = np.asarray(values).reshape(points.shape)
    return float(out) if points.ndim == 0 else out
