"""Command-line front end.

Subcommands:
  intensity    integral of the rate over a window (bare decimal)
  simulate     realizations on a window (Poisson count + locations)
  simulate-n   realizations conditioned on an exact point count
  next-point   the n-th point above/below an anchor
  density      order-stat or nth-point density tables

Each flag's add_argument keywords are defined once, in ``_FLAGS``, and
each subcommand is one row of ``_COMMANDS``, which lists its flags in
``--help`` order.

A rate is given either as an expression (--rate "2+sin(x)") or as a
built-in family (--rate-family with --params).  Sampling commands
require an explicit --seed; replications use per-rep streams
(stream + rep index), so --reps output is independent of scheduling.

Exit codes: 0 success, 1 numeric or model errors (message verbatim on
stderr), 2 usage errors (diagnostic names the offending flag).
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys

from . import __version__
from .errors import InvalidRate, IpppError, _integer, _real
from .quadrature import DEFAULT_TOL, integrate
from .rate_model import Interval, RateModel
from .rng import _U64, RngState
from .sampling_bounded import (
    order_statistic_density,
    simulate_conditional,
    simulate_window,
)
from .sampling_line import (
    Direction,
    NthPointQuery,
    nth_point_density,
    nth_point_mass,
    sample_nth_points,
)

__all__ = ["main"]

# how a --params value is read, and what it must be
_NUMBER = (float, "a number")
_NUMBERS = (lambda raw: [float(v) for v in raw.split(":")], "colon-separated numbers")

# --rate-family name -> (builder, how its values are read, its --params
# keys in argument order, each with its default, or None when required)
_FAMILIES = {
    "constant": (RateModel.constant, _NUMBER, {"c": None}),
    "linear": (RateModel.linear, _NUMBER, {"a": None, "b": None}),
    "pwconst": (RateModel.piecewise_constant, _NUMBERS, {"breaks": None, "levels": None}),
    "sin": (RateModel.sinusoidal, _NUMBER, {"a": None, "b": None, "omega": 1.0, "phi": 0.0}),
}
_DIRECTIONS = {"up": Direction.ABOVE, "down": Direction.BELOW}


# the add_argument keywords of every flag
_FLAGS = {
    "--version": dict(action="version", version=f"ippp {__version__}"),
    "--rate": dict(metavar="EXPR", help="rate as an expression in x"),
    "--rate-family": dict(choices=_FAMILIES, help="built-in rate family (needs --params)"),
    "--params": dict(
        metavar="K=V,...",
        help="family parameters, e.g. c=1 or a=2,b=1 or breaks=0:1:2,levels=2:5",
    ),
    "--bound": dict(
        type=float, metavar="B",
        help="declared upper bound on the rate over the domain, used as the "
        "rejection envelope (for rates with no finite enclosure)",
    ),
    "--tol": dict(type=float, default=DEFAULT_TOL, help="quadrature tolerance"),
    "--window": dict(
        nargs=2, type=float, metavar=("LO", "HI"), required=True, help="observation window"
    ),
    "--count": dict(type=int, required=True, help="exact number of points"),
    "--from": dict(dest="anchor", type=float, required=True, metavar="X", help="anchor point"),
    "--n": dict(type=int, required=True, help="which point (n >= 1)"),
    "--direction": dict(choices=sorted(_DIRECTIONS), required=True, help="side of the anchor"),
    "--k": dict(type=int, required=True, help="order statistic index"),
    "--m": dict(type=int, required=True, help="total point count"),
    "--grid": dict(
        nargs=3, type=float, metavar=("LO", "HI", "STEPS"), required=True,
        help="evaluation grid: lo hi steps",
    ),
    "--seed": dict(type=int, required=True, help="RNG seed (required, no entropy fallback)"),
    "--stream": dict(type=int, default=0, help="RNG stream (default 0)"),
    "--reps": dict(type=int, default=1, help="independent replications (default 1)"),
    "--format": dict(choices=("csv", "json"), default="csv", help="output format"),
    "--out": dict(metavar="PATH", help="write output to a file"),
}
_RATE_FLAGS = ("--rate", "--rate-family", "--params", "--bound")
_ANCHOR_FLAGS = ("--from", "--n", "--direction")
_SEED_FLAGS = ("--seed", "--stream", "--reps")
_OUTPUT_FLAGS = ("--format", "--out")


def _checked(parser, flag, check, *args, **kwargs):
    """``check(*args, **kwargs)``, a library constructor or argument
    check, with its IpppError reported as a usage error on ``flag``."""
    try:
        return check(*args, **kwargs)
    except IpppError as exc:
        parser.error(f"{flag}: {exc}")


def _parse_params(parser, text):
    out = {}
    for item in text.split(","):
        if "=" not in item:
            parser.error(f"--params: expected key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in out:
            parser.error(f"--params: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _family_model(parser, name, params, bound):
    build, (read, what), keys = _FAMILIES[name]
    model_args = []
    for key, default in keys.items():
        if key not in params:
            if default is None:
                parser.error(f"--params: missing required parameter {key!r}")
            model_args.append(default)
            continue
        try:
            model_args.append(read(params.pop(key)))
        except ValueError:
            parser.error(f"--params: parameter {key!r} must be {what}")
    if params:
        stray = ", ".join(sorted(params))
        parser.error(f"--params: unknown parameter(s) for {name}: {stray}")
    return _checked(parser, "--params", build, *model_args, declared_bound=bound)


def _build_model(parser, args):
    bound = args.bound
    if bound is not None:
        _checked(parser, "--bound", _real, bound, "declared_bound", low=0.0, strict=True)
    if args.rate is not None and args.rate_family is not None:
        parser.error("conflicting rate sources: give --rate or --rate-family, not both")
    if args.rate is not None:
        if args.params is not None:
            parser.error("--params: only valid with --rate-family")
        return _checked(
            parser, "--rate", RateModel.from_expression, args.rate, declared_bound=bound
        )
    if args.rate_family is None:
        parser.error("a rate source is required: --rate or --rate-family")
    if args.params is None:
        parser.error(f"--params: required with --rate-family {args.rate_family}")
    params = _parse_params(parser, args.params)
    return _family_model(parser, args.rate_family, params, bound)


def _grid(parser, args):
    import numpy as np

    lo, hi, steps = args.grid
    # STEPS is read as a float, like LO and HI; an integral one counts as an int
    steps = int(steps) if steps.is_integer() else steps
    steps = _checked(parser, "--grid", _integer, steps, "STEPS", low=2)
    span = _checked(parser, "--grid", Interval, lo, hi)
    return np.linspace(span.lo, span.hi, steps)


def _query(parser, args):
    _checked(parser, "--n", _integer, args.n, "n", low=1)
    return _checked(
        parser, "--from", NthPointQuery, args.anchor, args.n, _DIRECTIONS[args.direction]
    )


def _check_shared_flags(parser, args):
    # the flags of several subcommands, checked before any other
    if "tol" in args:
        _checked(parser, "--tol", _real, args.tol, "tol", low=0.0, strict=True)
    if "reps" in args:
        _checked(parser, "--reps", _integer, args.reps, "reps", low=1)
    if "seed" in args:
        _checked(parser, "--seed", _integer, args.seed, "seed", low=0, high=_U64 - 1)
        _checked(parser, "--stream", _integer, args.stream, "stream", low=0, high=_U64 - 1)
        # rep i draws from stream + i, which must be a stream id too
        last = args.stream + args.reps - 1
        _checked(parser, "--stream", _integer, last, "stream + reps - 1", high=_U64 - 1)


def _render_json(meta, key, names, rows):
    """``json.dumps({"meta": meta, key: [dict(zip(names, row)) for row in
    rows]}, indent=2) + "\n"``, byte for byte.

    With ``indent`` set, json.dumps runs its pure-Python encoder, which
    takes most of the time of a large output.  So the rows are spliced
    into the head of a one-row body instead: each column is encoded in
    one compact call to the C encoder and split into items (no JSON
    number, null, NaN or Infinity contains ", "), and the items fill a
    fixed row template.
    """
    if not rows:
        return json.dumps({"meta": meta, key: []}, indent=2) + "\n"
    head = json.dumps({"meta": meta, key: [None]}, indent=2)
    head = head[: -len("    null\n  ]\n}")]
    fields = ",\n".join(f"      {json.dumps(name)}: %s" for name in names)
    row = "    {\n" + fields + "\n    }"
    columns = [json.dumps(column)[1:-1].split(", ") for column in zip(*rows)]
    return head + ",\n".join(map(row.__mod__, zip(*columns))) + "\n  ]\n}\n"


def _render(args, argv, key, names, rows, **extra):
    """The rows as CSV under a comment line, or as JSON under ``meta``;
    both carry the version, command line, seed and stream, and ``extra``."""
    meta = {
        "version": __version__,
        "cmd": shlex.join(["ippp", *argv]),
        "seed": getattr(args, "seed", None),
        "stream": getattr(args, "stream", None),
        **extra,
    }
    if args.format == "json":
        return _render_json(meta, key, names, rows)
    seed, stream = ("none" if v is None else v for v in (meta["seed"], meta["stream"]))
    lines = [f"# ippp {__version__} seed={seed} stream={stream} cmd={meta['cmd']}"]
    lines.extend(f"# {name}={value!r}" for name, value in extra.items())
    lines.append(",".join(names))
    # two columns, of which only the second can be None (no n-th point)
    lines.extend(f"{a!r},{'' if b is None else repr(b)}" for a, b in rows)
    return "\n".join(lines) + "\n"


def _run_intensity(parser, args, argv):
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    value = integrate(model, window.lo, window.hi, args.tol)
    return f"{value!r}\n"


def _draw_reps(args, argv, draw):
    rows = []
    for rep in range(args.reps):
        es = draw(RngState(args.seed, stream=args.stream + rep))
        rows.extend((rep, p) for p in es.points.tolist())
    return _render(args, argv, "points", ("rep", "point"), rows)


def _run_simulate(parser, args, argv):
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    return _draw_reps(args, argv, lambda rng: simulate_window(model, window, rng, args.tol))


def _run_simulate_n(parser, args, argv):
    _checked(parser, "--count", _integer, args.count, "count", low=0)
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    return _draw_reps(args, argv, lambda rng: simulate_conditional(model, window, args.count, rng))


def _run_next_point(parser, args, argv):
    model = _build_model(parser, args)
    query = _query(parser, args)
    rngs = [RngState(args.seed, stream=args.stream + rep) for rep in range(args.reps)]
    points = sample_nth_points(model, query, rngs, args.tol).tolist()
    rows = [(rep, None if math.isnan(p) else p) for rep, p in enumerate(points)]
    return _render(args, argv, "points", ("rep", "point"), rows)


def _run_density_order_stat(parser, args, argv):
    _checked(parser, "--k", _integer, args.k, "k", low=1)
    _checked(parser, "--m", _integer, args.m, "m", low=args.k)
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    xs = _grid(parser, args)
    values = order_statistic_density(model, window, args.k, args.m, xs, args.tol)
    return _render(args, argv, "table", ("x", "value"), list(zip(xs.tolist(), values.tolist())))


def _run_density_nth_point(parser, args, argv):
    model = _build_model(parser, args)
    query = _query(parser, args)
    xs = _grid(parser, args)
    values = nth_point_density(model, query, xs, args.tol)
    mass = nth_point_mass(model, query, args.tol)
    rows = list(zip(xs.tolist(), values.tolist()))
    return _render(args, argv, "table", ("x", "value"), rows, mass=mass)


# one row per subcommand: its path, help, runner and flags in --help
# order; a path with leaves has no runner, and its leaves follow it
_COMMANDS = (
    (("intensity",), "integral of the rate over a window", _run_intensity,
     (*_RATE_FLAGS, "--tol", "--window", "--out")),
    (("simulate",), "simulate realizations on a window", _run_simulate,
     (*_RATE_FLAGS, "--tol", "--window", *_SEED_FLAGS, *_OUTPUT_FLAGS)),
    # no --tol: conditional simulation integrates nothing
    (("simulate-n",), "simulate with an exact point count", _run_simulate_n,
     (*_RATE_FLAGS, "--window", "--count", *_SEED_FLAGS, *_OUTPUT_FLAGS)),
    (("next-point",), "sample the n-th point beside an anchor", _run_next_point,
     (*_RATE_FLAGS, "--tol", *_ANCHOR_FLAGS, *_SEED_FLAGS, *_OUTPUT_FLAGS)),
    (("density",), "evaluate a conditional density on a grid", None, ()),
    (("density", "order-stat"), "k-th of m points on a window", _run_density_order_stat,
     (*_RATE_FLAGS, "--tol", "--window", "--k", "--m", "--grid", *_OUTPUT_FLAGS)),
    (("density", "nth-point"), "n-th point beside an anchor", _run_density_nth_point,
     (*_RATE_FLAGS, "--tol", *_ANCHOR_FLAGS, "--grid", *_OUTPUT_FLAGS)),
)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ippp",
        description="Simulate inhomogeneous Poisson point processes on the line.",
    )
    parser.add_argument("--version", **_FLAGS["--version"])
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, help_text, run, flags in _COMMANDS:
        p = subparsers[path[:-1]].add_parser(path[-1], help=help_text)
        if run is None:
            subparsers[path] = p.add_subparsers(dest=f"{path[-1]}_kind", required=True)
            continue
        p.set_defaults(run=run, parser=p)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _emit(parser, text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        parser.error(f"--out: {exc}")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # usage errors past parsing print the subcommand's usage line, as
        # argparse's own errors on it do
        parser = args.parser
        _check_shared_flags(parser, args)
        _emit(parser, args.run(parser, args, argv), args.out)
    except SystemExit as exc:
        return int(exc.code or 0)
    except InvalidRate as exc:
        # the library's message points to declared_bound
        print(f"{exc} (--bound on the command line)", file=sys.stderr)
        return 1
    except IpppError as exc:
        print(exc, file=sys.stderr)
        return 1
    return 0
