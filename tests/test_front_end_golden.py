"""Golden digests of the text front end: expressions and ``--params``.

Each digest is the SHA-256 of the outcomes of one corpus, one line per
input string.  For the lexer a line is the (kind, lexeme, position) of
each token, or the error's class, position and message; for the parser it
is the syntax tree's ``repr``, or the error.  For each ``--rate-family`` a
line is the exit code, stdout and stderr of in-process ``main`` on one
``--params`` string.  The digests were recorded before the lexer, the
parser and the family table were rewritten, so any change to a token, a
tree, an error or a CLI byte shows here.

The ``cli/help`` corpus holds every parser's ``--help``, and
``cli/usage`` the usage errors of ``tests/test_cli.py``, each as the
exit code, stdout and stderr of ``main``.  They were recorded before the
parser was built from one flag table and one subcommand table, so they
show that every help and usage byte was kept.

The ``evaluate`` corpora take each expression at each of ``POINTS``; a
line is the bytes of the values, or the error.  They were recorded while
the rate walk still scanned node values for non-finite ones, before
floating-point traps took that over, so they show that the traps keep
every value and every error.  Run this file as a script
to print the table afresh.
"""

import contextlib
import hashlib
import io
import os
import random
from unittest import mock

import numpy as np

from ippp.cli import main
from ippp.errors import IpppError
from ippp.rate_expr import evaluate, parse_text, tokenize

from expr_gen import EXTRA_EXPRESSIONS, mutate, random_expression
from test_cli import FLAG_CHECKS, SAME_USAGE

# the inputs the token rules and the grammar turn on: an exponent with no
# digits, fractions without a digit on one side, the unicode minus, a
# no-break space, a fullwidth digit, an infinite literal, and malformed
# calls, juxtapositions and parens
HAND = (
    "2e",
    "1.e5",
    ".5",
    "5.",
    "−x",
    "x ",
    "２",
    "1e400",
    "",
    "max(1,)",
    "sin x",
    "2x",
    "((x)",
    "pi(2)",
    "1e+",
    "1E-3x",
    "x\t+\r\n1",
    "2^-x",
    "--x",
    "x,1",
    "sin()",
    "min(1)",
    "foo(1)",
    "y",
    "1.2.3",
    "..5",
    "_a1",
)

# the grammar's characters, and a few outside it
ALPHABET = "0123456789.eE+-*/^(),x pisncoqrtabmlg_\t−# ２é"

GENERATED = 1500
RANDOM = 3000

# family -> --params strings: valid ones, the omega and phi defaults, and
# missing, empty, non-numeric, stray and duplicate keys
PARAMS = {
    "constant": (
        "c=3",
        " c = 2.5 ",
        "",
        "c",
        "c=",
        "c=abc",
        "c=1,c=2",
        "c=1,d=2",
        "d=2",
        "d=2,e=3",
        "=1",
        "c=1,",
        "c=-1",
        "c=nan",
    ),
    "linear": (
        "a=1,b=2",
        "b=2,a=1",
        "a=1",
        "b=2",
        "a=,b=1",
        "a=x,b=1",
        "a=x",
        "a=1,b=x,zz=1",
        "a=1,b=2,c=3",
        "a=1,a=2,b=3",
        "a=1,b=-5",
    ),
    "sin": (
        "a=2,b=1",
        "a=2,b=1,omega=3",
        "a=2,b=1,phi=0.5",
        "a=2,b=1,omega=2,phi=1",
        "a=2",
        "b=1",
        "omega=1,phi=0",
        "a=2,b=1,omega=",
        "a=2,b=1,omega=x",
        "a=2,b=1,phi=x",
        "a=x,b=1,omega=x",
        "a=2,b=1,omega=1,omega=2",
        "a=2,b=1,psi=0",
        "a=0.5,b=1",
    ),
    "pwconst": (
        "breaks=0:1:2,levels=2:5",
        "levels=2:5,breaks=0:1:2",
        "breaks=0:1:2",
        "levels=2:5",
        "breaks=,levels=2",
        "breaks=0:1,levels=",
        "breaks=0:a,levels=2",
        "breaks=0:a",
        "breaks=0:1,levels=x",
        "breaks=0::1,levels=1:2",
        "breaks=0:1:2,levels=2:5,c=1",
        "breaks=0:1,breaks=0:2,levels=1",
        "breaks=0:1:2,levels=2",
        "breaks=2:1,levels=1",
        "breaks=0:1,levels=-1",
    ),
}

# rates that overflow, underflow or meet a pole on some of POINTS; in
# exp(-1/x^2) at x = 1e-200, x^2 underflows to 0 before the division, and
# exp(-exp(x)) and min(1, 1/x) would drop an infinity on its way up
RATES = (
    *EXTRA_EXPRESSIONS,
    "exp(-1/x^2)",
    "1/(x-1)",
    "(x-1)^-1",
    "exp(x)^2",
    "min(1, 1/x)",
    "exp(-exp(x))",
    "exp(exp(x))",
    "log(x)*0",
    "x*x*1e300",
    "1e-300*x*x",
)

# generated rates per depth, 2 to 6
PER_DEPTH = 600

# arrays over [-3, 3] and [-800, 800], where exp overflows, and scalars at
# 0, 1, past exp's overflow, and near the smallest and largest floats
POINTS = (
    np.linspace(-3.0, 3.0, 25),
    np.linspace(-800.0, 800.0, 25),
    0.0,
    1.0,
    710.0,
    1e-200,
    1e200,
)

# argv tails around --rate-family: an unknown family, no --params, both
# rate sources, and the help text that lists the families
FAMILY_ARGVS = (
    ("--rate-family", "cubic", "--params", "c=1"),
    ("--rate-family", "constant"),
    ("--rate-family", "constant", "--rate", "x", "--params", "c=1"),
    ("--rate", "x", "--params", "c=1"),
    ("--help",),
)

# every parser's --help: the top level, density and the six leaves
HELP_ARGVS = (
    (),
    ("density",),
    ("intensity",),
    ("simulate",),
    ("simulate-n",),
    ("next-point",),
    ("density", "order-stat"),
    ("density", "nth-point"),
)

# usage errors: each flag check, each subcommand's library and parsing
# error, and no subcommand at either level
USAGE_ARGVS = (
    *(argv for _, argv in FLAG_CHECKS),
    *(argv for pair in SAME_USAGE for argv in pair),
    [],
    ["density"],
)


def _corpora():
    rng = random.Random(2019)
    generated = [random_expression(rng) for _ in range(GENERATED)]
    mutated = [mutate(rng, text) for text in generated]
    rng = random.Random(16)
    rand = ["".join(rng.choices(ALPHABET, k=rng.randrange(13))) for _ in range(RANDOM)]
    return {"hand": HAND, "generated": generated, "mutated": mutated, "random": rand}


def _rate_corpora():
    rng = random.Random(21)
    generated = [random_expression(rng, d) for d in range(2, 7) for _ in range(PER_DEPTH)]
    return {"hand": RATES, "generated": generated}


def _outcome(fn, text):
    try:
        return fn(text)
    except IpppError as exc:
        return (type(exc).__name__, exc.position, str(exc))


def _lex(text):
    return [(t.kind, t.lexeme, t.position) for t in tokenize(text)]


def _evaluate_lines(text):
    expr = parse_text(text)
    for x in POINTS:
        yield _outcome(lambda x: np.asarray(evaluate(expr, x)).tobytes(), x)


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps its usage text to the terminal's width
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    return (code, out.getvalue(), err.getvalue())


def _cli_lines(name):
    window = ("--window", "0", "1")
    if name == "family":
        return [_run_main(["intensity", *tail, *window]) for tail in FAMILY_ARGVS]
    if name == "help":
        return [_run_main([*argv, "--help"]) for argv in HELP_ARGVS]
    if name == "usage":
        return [_run_main(argv) for argv in USAGE_ARGVS]
    return [
        _run_main(["intensity", "--rate-family", name, "--params", p, *window])
        for p in PARAMS[name]
    ]


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(repr(line).encode())
        h.update(b"\n")
    return h.hexdigest()


def _digests():
    # (key, digest) of every corpus
    for corpus, texts in _corpora().items():
        yield f"lex/{corpus}", _digest(_outcome(_lex, t) for t in texts)
        yield f"parse/{corpus}", _digest(_outcome(parse_text, t) for t in texts)
    for corpus, texts in _rate_corpora().items():
        yield f"evaluate/{corpus}", _digest(line for t in texts for line in _evaluate_lines(t))
    for name in (*PARAMS, "family", "help", "usage"):
        yield f"cli/{name}", _digest(_cli_lines(name))


# "what/corpus" -> SHA-256 digest
GOLDEN = {
    "lex/hand": "a6440082882b9e5332fcfd081355b3d768c3bdbee764e31891e34115b0961e40",
    "parse/hand": "916dd2a863f43ac2657a433d08e24b864644ddda7055573346198bc4d735230a",
    "lex/generated": "78ddbdc70abb5a9ee682c72c8291bbfd906cc4949b2ec7c0d60f0f9bc46c6bd7",
    "parse/generated": "6e4195f8cf1705f28153ea1139a7cd447f2f73826f49b3981ecce18678d8cad0",
    "lex/mutated": "96f514d0ff05e54c52e967f067f776ac2a4e3fe65a9f1e35049bef8354f03e6a",
    "parse/mutated": "cfd35a4d9c8ebec9055d452f341f80e171465f54f8114f5fca1750a1d308769f",
    "lex/random": "8b16e0b40c6319221b71a8ae4b5b5d2ca1d7df50eb0b8cec41da273c3a763063",
    "parse/random": "eb62fbeddaf2e80ec6dccdc0e0ae240cc160568c55e917a78cd9b86b7c27083e",
    "evaluate/hand": "f22dfcbbf94b88f0995a24ac4bd8b60a8fe73bbe8659535623dd71464b6d2435",
    "evaluate/generated": "706055c324c06a4d0397e5e514ee5567f3d7568c087538279aa7f2d65b50588b",
    "cli/constant": "879117a0516590b3599fc652a8aeb8ab64782d5b27c245d1d81ea2da1f7d8a5c",
    "cli/linear": "4f898e6f02b0f8530a134faa825e30b4f3a8827b01b7f95170efb437ce01f656",
    "cli/sin": "9262b370494f84d810275766a73f2db6c3678abcdc2fe5764204b182199b05bc",
    "cli/pwconst": "5c920cec80dbc5ac49c3c8697af48038f0f721732b42d278025666451938466d",
    "cli/family": "1e408e078de95a71d15f3121b925ac4173e2177c0168e7a937c90b6cead7f939",
    "cli/help": "5d7519559f70b48a78e0f71645fd899dd08edee51a97142617b07a264e93413b",
    "cli/usage": "aba36e17b4f7389beaefd47bbe17c7040e079d4c0769b12129f106cc7584d1a1",
}


def test_golden_digests():
    assert dict(_digests()) == GOLDEN


if __name__ == "__main__":
    for key, digest in _digests():
        print(f'    "{key}": "{digest}",')
