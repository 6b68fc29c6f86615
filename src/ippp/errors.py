"""Exception types shared across the package.

Every error raised deliberately by this library derives from IpppError, so
callers can catch one base class at the boundary.  Errors that point at a
location in an expression carry a ``position`` attribute (0-based offset
into the source text).
"""

from __future__ import annotations


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
    """Raised when inverting the cumulative intensity beyond its reachable range."""

    def __init__(self, y: float, sup: float):
        self.y = y
        self.sup = sup
        super().__init__(
            f"target mass {y!r} is outside the reachable range "
            f"(supremum explored: {sup!r})"
        )


class InvalidParameter(IpppError, ValueError):
    """Raised for structurally invalid arguments (shapes, rates, indices,
    non-finite query points); also a ValueError, the built-in for a bad
    argument value."""


class InvalidRate(InvalidParameter):
    """Raised for nonpositive or non-finite distribution rate parameters."""


class InvalidShape(InvalidParameter):
    """Raised for shape parameters that are not integers >= 1."""


class InvalidMean(InvalidParameter):
    """Raised for negative or non-finite Poisson means."""


class InvalidIndex(InvalidParameter):
    """Raised for order-statistic indices outside 1 <= k <= m."""
