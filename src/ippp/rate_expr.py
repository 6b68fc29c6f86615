"""A tiny arithmetic expression language for rate functions of one variable.

Expressions are written in ordinary infix notation over the single variable
``x``, e.g. ``"2 + 0.5*sin(x)"`` or ``"exp(-x^2/8)"``.  The grammar is

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

so ``^`` is right-associative and binds tighter than unary minus:
``-2^2`` is ``-(2^2) = -4`` and ``2^3^2`` is ``2^(3^2) = 512``.

The internal node :class:`Step`, a piecewise-constant rate, is outside
the grammar: only code builds it, never the parser.

The module exposes three layers: :func:`tokenize` (source text to tokens),
:func:`parse` (tokens to an immutable AST), and :func:`evaluate` (AST plus a
scalar or array ``x`` to values).  :func:`parse_text` is the obvious
composition.  A number literal must be finite (``1e400`` is a
:class:`~ippp.errors.ParseError` at its position).  Evaluation is
vectorized over numpy arrays and raises :class:`~ippp.errors.EvalError`
with a source position as soon as any intermediate result is non-finite,
so a division by zero or ``log`` of a negative number is reported where
it happened rather than surfacing as a ``nan`` downstream.

:func:`enclose` is the interval counterpart of :func:`evaluate`: given
arrays of segments, it returns for each one an interval that holds every
value ``evaluate`` can return inside it, which gives rejection sampling a
sound upper bound for any expression (for a :class:`Step`, an exact one).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EvalError,
    LexError,
    ParseError,
    UnknownFunction,
    UnknownVariable,
    _points,
    _shaped,
)

__all__ = [
    "Token",
    "Num",
    "Var",
    "Unary",
    "Binary",
    "Call",
    "RateExpr",
    "tokenize",
    "parse",
    "parse_text",
    "evaluate",
    "enclose",
]

# Functions the language knows, with their arity.
FUNCTIONS = {
    "sin": 1,
    "cos": 1,
    "exp": 1,
    "log": 1,
    "sqrt": 1,
    "abs": 1,
    "min": 2,
    "max": 2,
}

CONSTANTS = {"pi": math.pi, "e": math.e}

_VARIABLE = "x"


@dataclass(frozen=True)
class Token:
    """One lexeme of source text.

    ``kind`` is one of ``"number"``, ``"identifier"``, ``"operator"``,
    ``"paren"``, ``"comma"``.  ``lexeme`` is the exact source slice, so
    joining lexemes (with the original whitespace dropped) reproduces the
    input, and ``position`` is the offset of its first character.
    """

    kind: str
    lexeme: str
    position: int


def _isdigit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _isident(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z") or ch == "_"


def tokenize(source: str) -> list[Token]:
    """Split ``source`` into tokens.

    Numbers accept an optional fractional part and scientific notation
    (``1e-3``, ``2.5E+10``); a trailing ``e`` not followed by digits is left
    for the identifier rules, so ``2e`` lexes as ``2`` then ``e``.  The
    unicode minus sign U+2212 is accepted as an operator.  Any other
    unrecognized character raises :class:`LexError` with its position.
    """
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if _isdigit(ch) or (ch == "." and i + 1 < n and _isdigit(source[i + 1])):
            j = i
            while j < n and _isdigit(source[j]):
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and _isdigit(source[j]):
                    j += 1
            if j < n and source[j] in "eE":
                # Only take the exponent if digits actually follow it.
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and _isdigit(source[k]):
                    j = k + 1
                    while j < n and _isdigit(source[j]):
                        j += 1
            tokens.append(Token("number", source[i:j], i))
            i = j
            continue
        if _isident(ch):
            j = i
            while j < n and (_isident(source[j]) or _isdigit(source[j])):
                j += 1
            tokens.append(Token("identifier", source[i:j], i))
            i = j
            continue
        if ch in "+-*/^" or ch == "−":
            tokens.append(Token("operator", ch, i))
            i += 1
            continue
        if ch in "()":
            tokens.append(Token("paren", ch, i))
            i += 1
            continue
        if ch == ",":
            tokens.append(Token("comma", ch, i))
            i += 1
            continue
        raise LexError(i, f"unexpected character {ch!r}")
    return tokens


@dataclass(frozen=True)
class Num:
    value: float
    position: int


@dataclass(frozen=True)
class Var:
    position: int


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "RateExpr"
    position: int


@dataclass(frozen=True)
class Binary:
    op: str
    left: "RateExpr"
    right: "RateExpr"
    position: int


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    position: int


@dataclass(frozen=True)
class Step:
    """``levels[i]`` on [breaks[i], breaks[i+1]), the last piece closed, 0
    outside: a piecewise-constant rate."""

    breaks: tuple
    levels: tuple


RateExpr = Num | Var | Unary | Binary | Call | Step


def _op(token: Token) -> str:
    # Normalize the unicode minus to ASCII for the AST.
    return "-" if token.lexeme == "−" else token.lexeme


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def _end_position(self) -> int:
        if not self.tokens:
            return 0
        last = self.tokens[-1]
        return last.position + len(last.lexeme)

    def peek(self) -> Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self._end_position(), "more input")
        self.pos += 1
        return tok

    def error(self, expected: str) -> ParseError:
        tok = self.peek()
        at = tok.position if tok is not None else self._end_position()
        return ParseError(at, expected)

    def expr(self) -> RateExpr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "operator" and _op(tok) in "+-":
                self.advance()
                node = Binary(_op(tok), node, self.term(), tok.position)
            else:
                return node

    def term(self) -> RateExpr:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "operator" and tok.lexeme in "*/":
                self.advance()
                node = Binary(tok.lexeme, node, self.unary(), tok.position)
            else:
                return node

    def unary(self) -> RateExpr:
        tok = self.peek()
        if tok is not None and tok.kind == "operator" and _op(tok) == "-":
            self.advance()
            return Unary("-", self.unary(), tok.position)
        return self.power()

    def power(self) -> RateExpr:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "operator" and tok.lexeme == "^":
            self.advance()
            # Right-associative; the exponent may carry its own unary minus.
            return Binary("^", base, self.unary(), tok.position)
        return base

    def atom(self) -> RateExpr:
        tok = self.peek()
        if tok is None:
            raise self.error("a number, name or '('")
        if tok.kind == "number":
            self.advance()
            value = float(tok.lexeme)
            if not math.isfinite(value):
                raise ParseError(tok.position, f"a finite number, got {tok.lexeme!r}")
            return Num(value, tok.position)
        if tok.kind == "identifier":
            self.advance()
            nxt = self.peek()
            if nxt is not None and nxt.kind == "paren" and nxt.lexeme == "(":
                return self.call(tok)
            if tok.lexeme == _VARIABLE:
                return Var(tok.position)
            if tok.lexeme in CONSTANTS:
                return Num(CONSTANTS[tok.lexeme], tok.position)
            raise UnknownVariable(tok.position, tok.lexeme)
        if tok.kind == "paren" and tok.lexeme == "(":
            self.advance()
            node = self.expr()
            closing = self.peek()
            if closing is None or closing.lexeme != ")":
                raise self.error("')'")
            self.advance()
            return node
        raise self.error("a number, name or '('")

    def call(self, name: Token) -> RateExpr:
        if name.lexeme not in FUNCTIONS:
            raise UnknownFunction(name.position, name.lexeme)
        arity = FUNCTIONS[name.lexeme]
        self.advance()  # consume "("
        args = [self.expr()]
        while True:
            tok = self.peek()
            if tok is not None and tok.kind == "comma":
                self.advance()
                args.append(self.expr())
                continue
            break
        closing = self.peek()
        if closing is None or closing.lexeme != ")":
            raise self.error("')' or ','")
        self.advance()
        if len(args) != arity:
            raise ParseError(
                name.position,
                f"{arity} argument{'s' if arity != 1 else ''} to {name.lexeme!r}, "
                f"got {len(args)}",
            )
        return Call(name.lexeme, tuple(args), name.position)


def parse(tokens: list[Token]) -> RateExpr:
    """Parse a token list into an AST, requiring all input to be consumed
    and every number to be finite."""
    parser = _Parser(tokens)
    node = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise ParseError(leftover.position, "end of input")
    return node


def parse_text(source: str) -> RateExpr:
    """Tokenize and parse ``source`` in one step."""
    return parse(tokenize(source))


_BINARY_FNS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}

# these map finite operands to finite values, and every operand is finite
# (x, a literal, or a checked node), so they skip the finiteness check
_TOTAL_FNS = frozenset({"sin", "cos", "abs", "min", "max"})

_CALL_FNS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
}


def _require_finite(values, node: RateExpr, x):
    if np.isfinite(values).all():
        return values
    what = f"operator {node.op!r}" if type(node) is Binary else f"function {node.func!r}"
    if np.ndim(values) == 0:
        where = float(x) if np.ndim(x) == 0 else None
    else:
        bad = int(np.argmin(np.isfinite(values)))
        where = float(np.asarray(x).flat[bad]) if np.ndim(x) > 0 else float(x)
    suffix = "" if where is None else f" at x={where!r}"
    raise EvalError(node.position, f"{what} produced a non-finite value{suffix}")


def _eval(node: RateExpr, x):
    # the node classes are final, so exact type tests dispatch them
    kind = type(node)
    if kind is Binary:
        out = _BINARY_FNS[node.op](_eval(node.left, x), _eval(node.right, x))
        return _require_finite(out, node, x)
    if kind is Num:
        return node.value
    if kind is Var:
        return x
    if kind is Call:
        out = _CALL_FNS[node.func](*[_eval(a, x) for a in node.args])
        return out if node.func in _TOTAL_FNS else _require_finite(out, node, x)
    if kind is Unary:
        return np.negative(_eval(node.operand, x))
    if kind is Step:
        # the piece's index plus 1 into the levels padded with 0 at both
        # ends, one less at the last break, which is closed
        at = np.searchsorted(node.breaks, x, side="right") - (x == node.breaks[-1])
        return np.array((0.0, *node.levels, 0.0))[at]
    raise TypeError(f"not a RateExpr node: {node!r}")


def evaluate(expr: RateExpr, x):
    """Evaluate ``expr`` at ``x``.

    ``x`` may be a float or a numpy array; the result has the same shape.
    A scalar input returns a plain float.  Non-finite intermediates raise
    :class:`EvalError` carrying the source position of the operator or
    function that produced them; an ``x`` that is not finite real
    numbers raises :class:`~ippp.errors.InvalidParameter`.
    """
    arr = _points(x)
    with np.errstate(all="ignore"):
        out = _eval(expr, arr)
    if isinstance(out, float):
        # Constant sub-expressions collapse to scalars; broadcast back out.
        out = np.full(arr.shape, float(out))
    return _shaped(out, arr)


# -- interval enclosures -------------------------------------------------------
#
# Natural interval extension (R. E. Moore, *Interval Analysis*, 1966): each
# node maps an interval of its operands to an interval holding every value
# the node can take on them.  + - * / and sqrt are correctly rounded
# (IEEE 754), so rounding is monotone and the ends computed in floats
# already hold the value ``evaluate`` computes at any point in between.
# numpy's exp, log, sin, cos and power carry a few ulps of error, both at
# the ends and at that point, so their results are widened outward by
# _WIDEN relative plus the smallest normal float.  sin and cos widen only
# their end values: numpy's never leave [-1, 1], so a crest or trough
# inside gives exactly 1 or -1.  A lane with no finite enclosure is
# (-inf, inf).

_WIDEN = 4.0 * np.finfo(float).eps
_TINY = np.finfo(float).tiny
_HALF_PI = 0.5 * math.pi


def _unnan(lo, hi):
    # NaN ends (0 * inf, inf - inf, a function outside its domain) open up
    return np.where(np.isnan(lo), -np.inf, lo), np.where(np.isnan(hi), np.inf, hi)


def _widen(lo, hi):
    return _unnan(lo - (np.abs(lo) * _WIDEN + _TINY), hi + (np.abs(hi) * _WIDEN + _TINY))


def _unbounded_where(bad, lo, hi):
    return np.where(bad, -np.inf, lo), np.where(bad, np.inf, hi)


def _hull(*values):
    # NaN propagates through min and max, for _unnan to open up
    return functools.reduce(np.minimum, values), functools.reduce(np.maximum, values)


def _periodic(fn, lo, hi, crest):
    # sin or cos over [lo, hi]: 1 where a crest c + 2 pi k lies inside,
    # -1 where a trough c + pi + 2 pi k does, else the ends' values,
    # widened within [-1, 1]; the slack counts a crest near an end as
    # inside, which only widens
    two_pi = 2.0 * math.pi
    ends_lo, ends_hi = _widen(*_hull(fn(lo), fn(hi)))
    ends_lo, ends_hi = np.maximum(ends_lo, -1.0), np.minimum(ends_hi, 1.0)

    def inside(c):
        t_lo, t_hi = (lo - c) / two_pi, (hi - c) / two_pi
        slack = 1e-12 * (1.0 + np.maximum(np.abs(t_lo), np.abs(t_hi)))
        return np.floor(t_hi + slack) >= np.ceil(t_lo - slack)

    return np.where(inside(crest + math.pi), -1.0, ends_lo), np.where(inside(crest), 1.0, ends_hi)


def _power(base, expo):
    (bl, bh), (el, eh) = base, expo
    corners = [np.power(b, e) for b in (bl, bh) for e in (el, eh)]
    lo, hi = _hull(*corners)
    point_int = (el == eh) & np.isfinite(el) & (el == np.floor(el))
    straddle = (bl <= 0.0) & (bh >= 0.0)
    # an even power dips to 0 inside a base interval holding 0
    lo = np.where(point_int & (el > 0) & (np.fmod(el, 2.0) == 0) & straddle, 0.0, lo)
    # x^-n across 0 has a pole; a non-integer power of a negative base is
    # undefined, and a range of exponents over one may pass odd and even
    bad = (point_int & (el < 0) & straddle) | (~point_int & (bl < 0.0))
    return _unbounded_where(bad, *_widen(lo, hi))


def _enclose(node: RateExpr, lo, hi):
    if isinstance(node, Num):
        # numpy scalars, so that 1/0 follows numpy's rules as in evaluate
        return np.float64(node.value), np.float64(node.value)
    if isinstance(node, Var):
        return lo, hi
    if isinstance(node, Unary):
        a, b = _enclose(node.operand, lo, hi)
        return np.negative(b), np.negative(a)
    if isinstance(node, Binary):
        (al, ah), (bl, bh) = _enclose(node.left, lo, hi), _enclose(node.right, lo, hi)
        if node.op == "+":
            return _unnan(np.add(al, bl), np.add(ah, bh))
        if node.op == "-":
            return _unnan(np.subtract(al, bh), np.subtract(ah, bl))
        if node.op == "*":
            return _unnan(*_hull(al * bl, al * bh, ah * bl, ah * bh))
        if node.op == "/":
            out = _unnan(*_hull(al / bl, al / bh, ah / bl, ah / bh))
            return _unbounded_where((bl <= 0.0) & (bh >= 0.0), *out)
        return _power((al, ah), (bl, bh))
    if isinstance(node, Call):
        args = [_enclose(a, lo, hi) for a in node.args]
        (al, ah) = args[0]
        if node.func == "exp":
            return _widen(np.exp(al), np.exp(ah))
        if node.func == "log":
            return _unbounded_where(al <= 0.0, *_widen(np.log(al), np.log(ah)))
        if node.func == "sqrt":
            return _unbounded_where(al < 0.0, np.sqrt(al), np.sqrt(ah))
        if node.func == "sin":
            return _periodic(np.sin, al, ah, _HALF_PI)
        if node.func == "cos":
            return _periodic(np.cos, al, ah, 0.0)
        if node.func == "abs":
            # the end nearer 0, or 0 when the interval holds it
            low = np.where(al >= 0.0, al, np.where(ah <= 0.0, np.negative(ah), 0.0))
            return low, np.maximum(np.abs(al), np.abs(ah))
        (bl, bh) = args[1]
        if node.func == "min":
            return np.minimum(al, bl), np.minimum(ah, bh)
        return np.maximum(al, bl), np.maximum(ah, bh)
    if isinstance(node, Step):
        # the least and largest level of the pieces that meet [lo, hi],
        # the least 0 where the segment reaches past the pieces
        breaks, levels = np.asarray(node.breaks), np.asarray(node.levels)
        outside = (lo < breaks[0]) | (hi > breaks[-1])
        meets = (breaks[:-1] <= hi[..., None]) & (breaks[1:] >= lo[..., None])
        low = np.min(np.where(meets, levels, np.inf), axis=-1)
        return np.where(outside, 0.0, low), np.max(np.where(meets, levels, 0.0), axis=-1)
    raise TypeError(f"not a RateExpr node: {node!r}")


def enclose(expr: RateExpr, lo, hi):
    """Interval enclosure of ``expr`` over each segment [lo, hi].

    ``lo`` and ``hi`` are arrays (or scalars) of segment edges with
    lo <= hi.  Returns float arrays ``(low, high)`` of their broadcast
    shape such that wherever :func:`evaluate` succeeds at an x in a
    segment, its value lies in [low, high] of that lane.  A lane with no
    finite enclosure (a divisor interval holding 0, ``log`` of a part
    <= 0, ``sqrt`` of a part < 0, a power with a pole in the base
    interval or a non-integer power of a base that can go negative,
    overflow) has ``high == inf``.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    shape = np.broadcast(lo, hi).shape
    with np.errstate(all="ignore"):
        low, high = _enclose(expr, lo, hi)
    return (
        np.broadcast_to(np.asarray(low, dtype=float), shape).copy(),
        np.broadcast_to(np.asarray(high, dtype=float), shape).copy(),
    )
