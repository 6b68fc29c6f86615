"""Random expression generator shared by the parser tests.

Produces syntactically valid source strings over the expression grammar.
Numeric failures (division by zero, log of a negative, overflow) are left
in on purpose: both evaluators must then fail, which is part of what the
cross-check asserts.  :func:`mutate` makes near-miss input from them, most
of it malformed.
"""

from __future__ import annotations

import random

_LEAVES = ["x", "pi", "e"]
_UNARY_FUNCS = ["sin", "cos", "exp", "log", "sqrt", "abs"]
_BINARY_FUNCS = ["min", "max"]

# exponents the generator never writes: non-integer, negative and in x
EXTRA_EXPRESSIONS = [
    "x^0.5",
    "(x - 1)^-1",
    "(x + 3)^-2",
    "2^x",
    "abs(x)^x",
    "x^(1/3)",
    "exp(30*x)",
    "1 + 200*exp(-((x-0.50049)^2)/1e-8)",
    "max(0, sin(x))",
    "cos(1e6*x)",
    "sin(x)^2 + cos(x)^2",
    "log(abs(x))",
    "sqrt(x^2 - 1)",
]


def random_expression(rng: random.Random, depth: int = 4) -> str:
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.4:
            return str(rng.randint(0, 9))
        if roll < 0.6:
            return f"{rng.uniform(0.1, 9.9):.3f}"
        return rng.choice(_LEAVES)
    kind = rng.choice(
        ["add", "sub", "mul", "div", "pow", "neg", "call1", "call2", "paren"]
    )
    a = random_expression(rng, depth - 1)
    if kind == "add":
        return f"{a} + {random_expression(rng, depth - 1)}"
    if kind == "sub":
        return f"{a} - {random_expression(rng, depth - 1)}"
    if kind == "mul":
        return f"{a}*{random_expression(rng, depth - 1)}"
    if kind == "div":
        return f"{a}/{random_expression(rng, depth - 1)}"
    if kind == "pow":
        return f"({a})^{rng.randint(0, 3)}"
    if kind == "neg":
        return f"-{a}"
    if kind == "call1":
        return f"{rng.choice(_UNARY_FUNCS)}({a})"
    if kind == "call2":
        return f"{rng.choice(_BINARY_FUNCS)}({a}, {random_expression(rng, depth - 1)})"
    return f"({a})"


def mutate(rng: random.Random, text: str) -> str:
    """``text`` with one character dropped, duplicated, or swapped with
    another (``text`` itself when empty)."""
    if not text:
        return text
    i = rng.randrange(len(text))
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + 1 :]
    if kind == 1:
        return text[:i] + text[i] + text[i:]
    j = rng.randrange(len(text))
    chars = list(text)
    chars[i], chars[j] = chars[j], chars[i]
    return "".join(chars)
