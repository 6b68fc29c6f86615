"""Command-line front end.

Subcommands:
  intensity    integral of the rate over a window (bare decimal)
  simulate     realizations on a window (Poisson count + locations)
  simulate-n   realizations conditioned on an exact point count
  next-point   the n-th point above/below an anchor
  density      order-stat or nth-point density tables

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


def _add_rate_flags(parser):
    parser.add_argument("--rate", metavar="EXPR", help="rate as an expression in x")
    parser.add_argument(
        "--rate-family",
        choices=_FAMILIES,
        help="built-in rate family (needs --params)",
    )
    parser.add_argument(
        "--params",
        metavar="K=V,...",
        help="family parameters, e.g. c=1 or a=2,b=1 or breaks=0:1:2,levels=2:5",
    )
    parser.add_argument(
        "--bound",
        type=float,
        metavar="B",
        help="declared upper bound on the rate over the domain, used as the "
        "rejection envelope (for rates with no finite enclosure)",
    )


def _add_tol_flag(parser):
    parser.add_argument(
        "--tol", type=float, default=DEFAULT_TOL, help="quadrature tolerance"
    )


def _add_seed_flags(parser):
    parser.add_argument(
        "--seed", type=int, required=True, help="RNG seed (required, no entropy fallback)"
    )
    parser.add_argument("--stream", type=int, default=0, help="RNG stream (default 0)")
    parser.add_argument(
        "--reps", type=int, default=1, help="independent replications (default 1)"
    )


def _add_output_flags(parser):
    parser.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )
    parser.add_argument("--out", metavar="PATH", help="write output to a file")


def _add_window_flag(parser, required=True):
    parser.add_argument(
        "--window",
        nargs=2,
        type=float,
        metavar=("LO", "HI"),
        required=required,
        help="observation window",
    )


def _add_grid_flag(parser):
    parser.add_argument(
        "--grid",
        nargs=3,
        type=float,
        metavar=("LO", "HI", "STEPS"),
        required=True,
        help="evaluation grid: lo hi steps",
    )


def _add_anchor_flags(parser):
    parser.add_argument(
        "--from",
        dest="anchor",
        type=float,
        required=True,
        metavar="X",
        help="anchor point",
    )
    parser.add_argument("--n", type=int, required=True, help="which point (n >= 1)")
    parser.add_argument(
        "--direction",
        choices=sorted(_DIRECTIONS),
        required=True,
        help="side of the anchor",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="ippp",
        description="Simulate inhomogeneous Poisson point processes on the line.",
    )
    parser.add_argument("--version", action="version", version=f"ippp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("intensity", help="integral of the rate over a window")
    p.set_defaults(run=_run_intensity, parser=p)
    _add_rate_flags(p)
    _add_tol_flag(p)
    _add_window_flag(p)
    p.add_argument("--out", metavar="PATH", help="write output to a file")

    p = sub.add_parser("simulate", help="simulate realizations on a window")
    p.set_defaults(run=_run_simulate, parser=p)
    _add_rate_flags(p)
    _add_tol_flag(p)
    _add_window_flag(p)
    _add_seed_flags(p)
    _add_output_flags(p)

    # no --tol: conditional simulation integrates nothing
    p = sub.add_parser("simulate-n", help="simulate with an exact point count")
    p.set_defaults(run=_run_simulate_n, parser=p)
    _add_rate_flags(p)
    _add_window_flag(p)
    p.add_argument("--count", type=int, required=True, help="exact number of points")
    _add_seed_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("next-point", help="sample the n-th point beside an anchor")
    p.set_defaults(run=_run_next_point, parser=p)
    _add_rate_flags(p)
    _add_tol_flag(p)
    _add_anchor_flags(p)
    _add_seed_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("density", help="evaluate a conditional density on a grid")
    dsub = p.add_subparsers(dest="density_kind", required=True)

    q = dsub.add_parser("order-stat", help="k-th of m points on a window")
    q.set_defaults(run=_run_density_order_stat, parser=q)
    _add_rate_flags(q)
    _add_tol_flag(q)
    _add_window_flag(q)
    q.add_argument("--k", type=int, required=True, help="order statistic index")
    q.add_argument("--m", type=int, required=True, help="total point count")
    _add_grid_flag(q)
    _add_output_flags(q)

    q = dsub.add_parser("nth-point", help="n-th point beside an anchor")
    q.set_defaults(run=_run_density_nth_point, parser=q)
    _add_rate_flags(q)
    _add_tol_flag(q)
    _add_anchor_flags(q)
    _add_grid_flag(q)
    _add_output_flags(q)

    return parser


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


def _comment_line(args, argv):
    cmd = shlex.join(["ippp", *argv])
    seed = getattr(args, "seed", None)
    stream = getattr(args, "stream", None)
    seed_txt = "none" if seed is None else str(seed)
    stream_txt = "none" if stream is None else str(stream)
    return f"# ippp {__version__} seed={seed_txt} stream={stream_txt} cmd={cmd}"


def _meta(args, argv, **extra):
    meta = {
        "version": __version__,
        "cmd": shlex.join(["ippp", *argv]),
        "seed": getattr(args, "seed", None),
        "stream": getattr(args, "stream", None),
    }
    meta.update(extra)
    return meta


def _format_point(value):
    return "" if value is None else repr(value)


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


def _render_points(args, argv, rows, **extra):
    if args.format == "json":
        meta = _meta(args, argv, **extra)
        return _render_json(meta, "points", ("rep", "point"), rows)
    lines = [_comment_line(args, argv), "rep,point"]
    lines.extend(f"{rep},{_format_point(val)}" for rep, val in rows)
    return "\n".join(lines) + "\n"


def _render_table(args, argv, xs, values, **extra):
    rows = list(zip(xs.tolist(), values.tolist()))
    if args.format == "json":
        meta = _meta(args, argv, **extra)
        return _render_json(meta, "table", ("x", "value"), rows)
    lines = [_comment_line(args, argv)]
    if "mass" in extra:
        lines.append(f"# mass={extra['mass']!r}")
    lines.append("x,value")
    lines.extend(f"{x!r},{v!r}" for x, v in rows)
    return "\n".join(lines) + "\n"


def _run_intensity(parser, args, argv):
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    value = integrate(model, window.lo, window.hi, args.tol)
    return f"{value!r}\n"


def _run_simulate(parser, args, argv):
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    rows = []
    for rep in range(args.reps):
        rng = RngState(args.seed, stream=args.stream + rep)
        es = simulate_window(model, window, rng, args.tol)
        rows.extend((rep, p) for p in es.points.tolist())
    return _render_points(args, argv, rows)


def _run_simulate_n(parser, args, argv):
    _checked(parser, "--count", _integer, args.count, "count", low=0)
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    rows = []
    for rep in range(args.reps):
        rng = RngState(args.seed, stream=args.stream + rep)
        es = simulate_conditional(model, window, args.count, rng)
        rows.extend((rep, p) for p in es.points.tolist())
    return _render_points(args, argv, rows)


def _run_next_point(parser, args, argv):
    model = _build_model(parser, args)
    query = _query(parser, args)
    rngs = [RngState(args.seed, stream=args.stream + rep) for rep in range(args.reps)]
    points = sample_nth_points(model, query, rngs, args.tol).tolist()
    rows = [(rep, None if math.isnan(p) else p) for rep, p in enumerate(points)]
    return _render_points(args, argv, rows)


def _run_density_order_stat(parser, args, argv):
    _checked(parser, "--k", _integer, args.k, "k", low=1)
    _checked(parser, "--m", _integer, args.m, "m", low=args.k)
    model = _build_model(parser, args)
    window = _checked(parser, "--window", Interval, *args.window)
    xs = _grid(parser, args)
    values = order_statistic_density(model, window, args.k, args.m, xs, args.tol)
    return _render_table(args, argv, xs, values)


def _run_density_nth_point(parser, args, argv):
    model = _build_model(parser, args)
    query = _query(parser, args)
    xs = _grid(parser, args)
    values = nth_point_density(model, query, xs, args.tol)
    mass = nth_point_mass(model, query, args.tol)
    return _render_table(args, argv, xs, values, mass=mass)


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
