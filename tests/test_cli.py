"""CLI tests: flag validation, artifact formats, exit codes, determinism."""

import importlib.resources
import json
import math
import os
import re
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from ippp.cli import (
    _build_parser,
    _meta,
    _render_json,
    _render_points,
    _render_table,
    main,
)
from ippp.rate_model import RateModel
from ippp.rng import RngState
from ippp.sampling_line import Direction, NthPointQuery, sample_nth_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = (
        importlib.resources.files("ippp").joinpath("output.schema.json").read_text()
    )
    return json.loads(text)


def parse_csv_points(out):
    lines = out.splitlines()
    assert lines[0].startswith("# ippp ")
    assert lines[1] == "rep,point"
    rows = []
    for line in lines[2:]:
        rep, _, point = line.partition(",")
        rows.append((int(rep), float(point) if point else None))
    return rows


# ------------------------------------------------------------- intensity


def test_intensity_prints_bare_decimal(capsys):
    code, out, err = run(capsys, "intensity", "--rate", "x", "--window", "0", "2")
    assert code == 0
    assert err == ""
    assert out == "2.0\n"


def test_intensity_narrow_spike(capsys):
    spike = "1 + 1000*exp(-((x-5.0003)^2)/1e-6)"
    code, out, _ = run(capsys, "intensity", "--rate", spike, "--window", "0", "10")
    assert code == 0
    assert abs(float(out) - (10.0 + math.sqrt(math.pi))) <= 2e-9


def test_intensity_family(capsys):
    code, out, _ = run(
        capsys,
        "intensity",
        "--rate-family",
        "constant",
        "--params",
        "c=3",
        "--window",
        "0",
        "4",
    )
    assert code == 0
    assert float(out) == pytest.approx(12.0, abs=1e-9)


def test_intensity_rejects_seed(capsys):
    code, _, err = run(capsys, "intensity", "--rate", "1", "--window", "0", "1", "--seed", "3")
    assert code == 2
    assert "--seed" in err


def test_intensity_tolerance_failure_exits_1(capsys):
    code, out, err = run(
        capsys, "intensity", "--rate", "2+sin(x)", "--window", "0", "1", "--tol", "1e-30"
    )
    assert code == 1
    assert out == ""
    assert "tolerance" in err.lower()


# ---------------------------------------------------------- rate sources


def test_conflicting_rate_sources(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--rate",
        "x",
        "--rate-family",
        "constant",
        "--params",
        "c=1",
        "--window",
        "0",
        "1",
        "--seed",
        "3",
    )
    assert code == 2
    assert "conflicting rate sources" in err


def test_missing_rate_source(capsys):
    code, _, err = run(capsys, "intensity", "--window", "0", "1")
    assert code == 2
    assert "rate source" in err


def test_rate_parse_error_names_flag(capsys):
    code, _, err = run(capsys, "intensity", "--rate", "x+", "--window", "0", "1")
    assert code == 2
    assert "--rate" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["intensity", "--window", "0", "1"],
        ["density", "nth-point", "--from", "0", "--n", "1", "--direction", "up",
         "--grid", "0", "1", "3"],
    ],
)
def test_nonfinite_rate_literal_names_flag(capsys, argv):
    # 1e400 overflows to inf; it once printed inf or nan rows and exit 0
    code, out, err = run(capsys, *argv, "--rate", "1e400")
    assert code == 2
    assert out == ""
    assert "--rate" in err and "1e400" in err


def test_params_without_family(capsys):
    code, _, err = run(
        capsys, "intensity", "--rate", "x", "--params", "c=1", "--window", "0", "1"
    )
    assert code == 2
    assert "--params" in err


def test_family_without_params(capsys):
    code, _, err = run(
        capsys, "intensity", "--rate-family", "linear", "--window", "0", "1"
    )
    assert code == 2
    assert "--params" in err


@pytest.mark.parametrize(
    "params,fragment",
    [
        ("d=1", "missing required parameter 'c'"),
        ("c=1,d=2", "unknown parameter"),
        ("c=abc", "must be a number"),
        ("c=1,c=2", "duplicate key"),
        ("c", "expected key=value"),
    ],
)
def test_bad_family_params(capsys, params, fragment):
    code, _, err = run(
        capsys,
        "intensity",
        "--rate-family",
        "constant",
        "--params",
        params,
        "--window",
        "0",
        "1",
    )
    assert code == 2
    assert fragment in err


def test_invalid_family_parameters_exit_2(capsys):
    # sinusoidal needs offset >= |amplitude|
    code, _, err = run(
        capsys,
        "intensity",
        "--rate-family",
        "sin",
        "--params",
        "a=1,b=5",
        "--window",
        "0",
        "1",
    )
    assert code == 2
    assert "--params" in err


def test_pwconst_family(capsys):
    code, out, _ = run(
        capsys,
        "intensity",
        "--rate-family",
        "pwconst",
        "--params",
        "breaks=0:1:2,levels=2:5",
        "--window",
        "0",
        "2",
    )
    assert code == 0
    assert float(out) == pytest.approx(7.0, abs=1e-8)


def test_sin_family_defaults(capsys):
    code, out, _ = run(
        capsys,
        "intensity",
        "--rate-family",
        "sin",
        "--params",
        "a=2,b=1",
        "--window",
        "0",
        str(2.0 * math.pi),
    )
    assert code == 0
    assert float(out) == pytest.approx(4.0 * math.pi, abs=1e-8)


# -------------------------------------------------------------- simulate


def test_simulate_csv_artifact(capsys):
    code, out, err = run(
        capsys,
        "simulate",
        "--rate-family",
        "constant",
        "--params",
        "c=1",
        "--window",
        "0",
        "10",
        "--seed",
        "7",
    )
    assert code == 0
    first = out.splitlines()[0]
    assert re.fullmatch(
        r"# ippp \d+\.\d+\.\d+ seed=7 stream=0 cmd=ippp simulate "
        r"--rate-family constant --params c=1 --window 0 10 --seed 7",
        first,
    )
    rows = parse_csv_points(out)
    assert all(rep == 0 for rep, _ in rows)
    assert all(0.0 <= p <= 10.0 for _, p in rows)


def test_simulate_requires_seed(capsys):
    code, _, err = run(
        capsys, "simulate", "--rate", "1", "--window", "0", "1"
    )
    assert code == 2
    assert "--seed" in err


def test_simulate_deterministic(capsys):
    argv = (
        "simulate",
        "--rate",
        "2+sin(x)",
        "--window",
        "0",
        "6",
        "--seed",
        "11",
    )
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_simulate_stream_changes_output(capsys):
    base = (
        "simulate",
        "--rate-family",
        "constant",
        "--params",
        "c=2",
        "--window",
        "0",
        "8",
        "--seed",
        "4",
    )
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--stream", "1")
    assert out1.splitlines()[2:] != out2.splitlines()[2:]


def test_simulate_reps_use_per_rep_streams(capsys):
    base = (
        "simulate",
        "--rate-family",
        "constant",
        "--params",
        "c=2",
        "--window",
        "0",
        "5",
        "--seed",
        "21",
    )
    _, one, _ = run(capsys, *base)
    _, two, _ = run(capsys, *base, "--reps", "2")
    rows_one = parse_csv_points(one)
    rows_two = parse_csv_points(two)
    assert [p for r, p in rows_two if r == 0] == [p for _, p in rows_one]
    assert {r for r, _ in rows_two} == {0, 1}


def test_simulate_json_validates_against_schema(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--rate",
        "1+x",
        "--window",
        "0",
        "3",
        "--seed",
        "9",
        "--format",
        "json",
    )
    assert code == 0
    body = json.loads(out)
    jsonschema.validate(body, load_schema())
    assert body["meta"]["seed"] == 9
    assert body["meta"]["stream"] == 0
    assert all(0.0 <= row["point"] <= 3.0 for row in body["points"])


def test_simulate_window_order_checked(capsys):
    for window in (("5", "1"), ("0", "inf"), ("nan", "1")):
        code, _, err = run(
            capsys, "simulate", "--rate", "1", "--window", *window, "--seed", "2"
        )
        assert code == 2, window
        assert "--window" in err, window


# ------------------------------------------------------------ simulate-n


def test_simulate_n_exact_counts(capsys):
    code, out, _ = run(
        capsys,
        "simulate-n",
        "--rate",
        "x",
        "--window",
        "0",
        "4",
        "--count",
        "6",
        "--seed",
        "13",
        "--reps",
        "3",
    )
    assert code == 0
    rows = parse_csv_points(out)
    for rep in range(3):
        assert sum(1 for r, _ in rows if r == rep) == 6


def test_simulate_n_rejects_negative_count(capsys):
    code, _, err = run(
        capsys,
        "simulate-n",
        "--rate",
        "1",
        "--window",
        "0",
        "1",
        "--count",
        "-2",
        "--seed",
        "1",
    )
    assert code == 2
    assert "--count" in err


# ------------------------------------------------------------ next-point


def test_next_point_rows(capsys):
    code, out, _ = run(
        capsys,
        "next-point",
        "--rate",
        "1",
        "--from",
        "0",
        "--n",
        "3",
        "--direction",
        "up",
        "--seed",
        "5",
        "--reps",
        "4",
    )
    assert code == 0
    rows = parse_csv_points(out)
    assert [r for r, _ in rows] == [0, 1, 2, 3]
    assert all(p > 0.0 for _, p in rows)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_next_point_reps_match_per_rep_samples(capsys, fmt):
    # all reps share one inverse call; each rep must still be exactly
    # what sample_nth_point gives on its own stream
    argv = [
        "next-point", "--rate", "2+sin(x)", "--from", "1.5", "--n", "3",
        "--direction", "down", "--seed", "9", "--stream", "4", "--reps", "40",
        "--format", fmt,
    ]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    model = RateModel.from_expression("2+sin(x)")
    query = NthPointQuery(1.5, 3, Direction.BELOW)
    rows = [
        (rep, sample_nth_point(model, query, RngState(9, 4 + rep)))
        for rep in range(40)
    ]
    args = _build_parser().parse_args(argv)
    assert out == _render_points(args, argv, rows)


def test_next_point_no_point_is_empty_csv_field(capsys):
    code, out, _ = run(
        capsys,
        "next-point",
        "--rate-family",
        "pwconst",
        "--params",
        "breaks=0:1,levels=0.5",
        "--from",
        "1",
        "--n",
        "1",
        "--direction",
        "up",
        "--seed",
        "3",
        "--reps",
        "2",
    )
    assert code == 0
    rows = parse_csv_points(out)
    assert rows == [(0, None), (1, None)]
    assert out.splitlines()[2] == "0,"


def test_next_point_no_point_is_json_null(capsys):
    code, out, _ = run(
        capsys,
        "next-point",
        "--rate-family",
        "pwconst",
        "--params",
        "breaks=0:1,levels=0.5",
        "--from",
        "1",
        "--n",
        "1",
        "--direction",
        "up",
        "--seed",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    body = json.loads(out)
    jsonschema.validate(body, load_schema())
    assert body["points"] == [{"rep": 0, "point": None}]


def test_next_point_direction_down(capsys):
    code, out, _ = run(
        capsys,
        "next-point",
        "--rate",
        "1",
        "--from",
        "0",
        "--n",
        "1",
        "--direction",
        "down",
        "--seed",
        "8",
    )
    assert code == 0
    rows = parse_csv_points(out)
    assert rows[0][1] < 0.0


def test_next_point_rejects_bad_direction(capsys):
    code, _, err = run(
        capsys,
        "next-point",
        "--rate",
        "1",
        "--from",
        "0",
        "--n",
        "1",
        "--direction",
        "sideways",
        "--seed",
        "8",
    )
    assert code == 2
    assert "--direction" in err or "invalid choice" in err


def test_next_point_rejects_bad_n(capsys):
    code, _, err = run(
        capsys,
        "next-point",
        "--rate",
        "1",
        "--from",
        "0",
        "--n",
        "0",
        "--direction",
        "up",
        "--seed",
        "8",
    )
    assert code == 2
    assert "--n" in err


# --------------------------------------------------------------- density


def test_density_order_stat_table(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "order-stat",
        "--rate-family",
        "constant",
        "--params",
        "c=2",
        "--window",
        "0",
        "1",
        "--k",
        "1",
        "--m",
        "2",
        "--grid",
        "0",
        "1",
        "5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# ippp ")
    assert "seed=none stream=none" in lines[0]
    assert lines[1] == "x,value"
    table = [tuple(map(float, line.split(","))) for line in lines[2:]]
    assert len(table) == 5
    # first of two uniform points has density 2*(1-x)
    for x, value in table:
        assert value == pytest.approx(2.0 * (1.0 - x), abs=1e-8)


def test_density_order_stat_validates_indices(capsys):
    base = (
        "density",
        "order-stat",
        "--rate",
        "1",
        "--window",
        "0",
        "1",
        "--grid",
        "0",
        "1",
        "3",
    )
    code, _, err = run(capsys, *base, "--k", "0", "--m", "2")
    assert code == 2
    assert "--k" in err
    code, _, err = run(capsys, *base, "--k", "3", "--m", "2")
    assert code == 2
    assert "--m" in err


def test_density_grid_validation(capsys):
    for grid in (("0", "1", "2.5"), ("0", "inf", "3"), ("0", "1", "inf"), ("nan", "1", "3")):
        code, _, err = run(
            capsys,
            "density",
            "order-stat",
            "--rate",
            "1",
            "--window",
            "0",
            "1",
            "--k",
            "1",
            "--m",
            "1",
            "--grid",
            *grid,
        )
        assert code == 2, grid
        assert "--grid" in err, grid


def test_density_rejects_seed(capsys):
    code, _, err = run(
        capsys,
        "density",
        "order-stat",
        "--rate",
        "1",
        "--window",
        "0",
        "1",
        "--k",
        "1",
        "--m",
        "1",
        "--grid",
        "0",
        "1",
        "3",
        "--seed",
        "4",
    )
    assert code == 2
    assert "--seed" in err


def test_density_nth_point_reports_mass(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "nth-point",
        "--rate-family",
        "pwconst",
        "--params",
        "breaks=0:1,levels=0.5",
        "--from",
        "0",
        "--n",
        "1",
        "--direction",
        "up",
        "--grid",
        "0",
        "1",
        "5",
    )
    assert code == 0
    lines = out.splitlines()
    mass_line = lines[1]
    assert mass_line.startswith("# mass=")
    mass = float(mass_line.removeprefix("# mass="))
    assert mass == pytest.approx(1.0 - math.exp(-0.5), abs=1e-8)
    assert lines[2] == "x,value"


def test_density_nth_point_json_mass_and_schema(capsys):
    code, out, _ = run(
        capsys,
        "density",
        "nth-point",
        "--rate",
        "1",
        "--from",
        "0",
        "--n",
        "2",
        "--direction",
        "up",
        "--grid",
        "0",
        "4",
        "9",
        "--format",
        "json",
    )
    assert code == 0
    body = json.loads(out)
    jsonschema.validate(body, load_schema())
    assert body["meta"]["mass"] == pytest.approx(1.0, abs=1e-9)
    assert body["meta"]["seed"] is None
    by_x = {row["x"]: row["value"] for row in body["table"]}
    assert by_x[2.0] == pytest.approx(2.0 * math.exp(-2.0), abs=1e-8)


# ------------------------------------------------------------- plumbing


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    target = tmp_path / "artifact.csv"
    code, out, _ = run(
        capsys,
        "simulate",
        "--rate",
        "1",
        "--window",
        "0",
        "5",
        "--seed",
        "2",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("# ippp ")
    _, rerun_out, _ = run(
        capsys, "simulate", "--rate", "1", "--window", "0", "5", "--seed", "2"
    )
    assert text.splitlines()[1:] == rerun_out.splitlines()[1:]


def test_cmd_field_quotes_expression(capsys):
    _, out, _ = run(
        capsys, "simulate", "--rate", "2+sin(x)", "--window", "0", "1", "--seed", "1"
    )
    assert "cmd=ippp simulate --rate '2+sin(x)' --window 0 1 --seed 1" in out.splitlines()[0]


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("ippp ")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "intensity" in out


def test_reps_validation(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--rate",
        "1",
        "--window",
        "0",
        "1",
        "--seed",
        "1",
        "--reps",
        "0",
    )
    assert code == 2
    assert "--reps" in err


def test_tol_validation(capsys):
    for tol in ("-1", "nan", "inf"):
        code, _, err = run(
            capsys, "intensity", "--rate", "1", "--window", "0", "1", "--tol", tol
        )
        assert code == 2, tol
        assert "--tol" in err, tol


def test_numeric_error_surfaces_verbatim(capsys):
    code, out, err = run(capsys, "intensity", "--rate", "x-10", "--window", "0", "2")
    assert code == 1
    assert out == ""
    assert "negative" in err
    assert "x=" in err


def test_no_subcommand_needs_scipy():
    # scipy is a test dependency only: a child process in which importing
    # it fails must still run every subcommand
    code = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")
        return None

sys.meta_path.insert(0, NoScipy())
from ippp.cli import main

rate = ["--rate", "2+sin(x)"]
seed = ["--seed", "1", "--reps", "2"]
runs = [
    ["intensity", *rate, "--window", "0", "5"],
    ["simulate", *rate, "--window", "0", "5", *seed],
    ["simulate-n", *rate, "--window", "0", "5", "--count", "4", *seed],
    ["next-point", *rate, "--from", "1", "--n", "3", "--direction", "up", *seed],
    ["density", "order-stat", *rate, "--window", "0", "5", "--k", "2",
     "--m", "4", "--grid", "0", "5", "11", "--format", "json"],
    ["density", "nth-point", "--rate", "exp(-x^2/2)", "--from", "-1", "--n",
     "2", "--direction", "up", "--grid", "-1", "4", "11", "--format", "json"],
]
for argv in runs:
    assert main(argv) == 0, argv
assert "scipy" not in sys.modules
"""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert '"mass": ' in proc.stdout


# values whose JSON spellings the column writer must keep: null, the
# non-finite names, signed zero, the extremes and plain ints
ODD_VALUES = [None, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-300, 7, 0.1]


@pytest.mark.parametrize("key, names", [("points", ("rep", "point")), ("table", ("x", "value"))])
def test_json_writer_matches_json_dumps(key, names):
    meta = {"version": "0", "cmd": "ippp 'a, b'", "seed": None, "stream": 3, "mass": 0.5}
    cases = [
        [],
        [(0, 1.5)],
        list(enumerate(ODD_VALUES)),
        list(zip(ODD_VALUES, reversed(ODD_VALUES))),
    ]
    for rows in cases:
        body = {"meta": meta, key: [dict(zip(names, row)) for row in rows]}
        assert _render_json(meta, key, names, rows) == json.dumps(body, indent=2) + "\n"


def test_json_renderers_match_json_dumps_and_schema():
    argv = ["simulate", "--rate", "1", "--window", "0", "1", "--seed", "1", "--format", "json"]
    args = _build_parser().parse_args(argv)
    rows = [(rep, val) for rep, val in enumerate(ODD_VALUES) if val is None or math.isfinite(val)]
    body = {
        "meta": _meta(args, argv),
        "points": [{"rep": rep, "point": val} for rep, val in rows],
    }
    out = _render_points(args, argv, rows)
    assert out == json.dumps(body, indent=2) + "\n"
    jsonschema.validate(json.loads(out), load_schema())

    xs = np.array([-0.0, 5e-324, 1e300, 0.1, 2.0])
    values = np.array([0.0, 1e300, -0.0, 5e-324, 7.0])
    body = {
        "meta": _meta(args, argv, mass=0.25),
        "table": [{"x": float(x), "value": float(v)} for x, v in zip(xs, values)],
    }
    out = _render_table(args, argv, xs, values, mass=0.25)
    assert out == json.dumps(body, indent=2) + "\n"
    jsonschema.validate(json.loads(out), load_schema())


def test_bound_samples_a_rate_with_no_enclosure(capsys):
    # sqrt(x - x) has no finite enclosure: x - x encloses to [-w, w]
    argv = ["simulate", "--rate", "1 + sqrt(x - x)", "--window", "0", "1"]
    argv += ["--seed", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "declared_bound" in err and "--bound" in err
    code, out, err = run(capsys, *argv, "--bound", "1")
    assert code == 0, err
    points = [p for _, p in parse_csv_points(out)]
    assert points and all(0.0 <= p <= 1.0 for p in points)


def test_bound_validation(capsys):
    for value in ("0", "-1", "nan", "inf"):
        code, _, err = run(
            capsys, "intensity", "--rate", "1", "--window", "0", "1", "--bound", value
        )
        assert code == 2
        assert "--bound" in err


def test_bound_reaches_family_models(capsys):
    code, _, err = run(
        capsys,
        "simulate",
        "--rate-family",
        "constant",
        "--params",
        "c=2",
        "--window",
        "0",
        "5",
        "--seed",
        "1",
        "--bound",
        "1",
    )
    # the declared bound is below the rate: evaluation reports it
    assert code == 1
    assert "bound" in err


_WIN = ["--rate", "1", "--window", "0", "1"]
_ORDER = ["density", "order-stat", *_WIN, "--grid", "0", "1", "3"]
_NEXT = ["next-point", "--rate", "1", "--direction", "up", "--seed", "1"]

# one usage error per flag check: the flag, and a command line that fails it
FLAG_CHECKS = [
    ("--tol", ["intensity", *_WIN, "--tol", "0"]),
    ("--tol", ["simulate-n", *_WIN, "--count", "1", "--seed", "1", "--tol", "1e-9"]),
    ("--bound", ["intensity", *_WIN, "--bound", "-1"]),
    ("--rate", ["intensity", "--rate", "x+", "--window", "0", "1"]),
    ("--params", ["intensity", "--rate-family", "constant", "--params", "c=nan", "--window", "0", "1"]),
    ("--window", ["intensity", "--rate", "1", "--window", "1", "0"]),
    ("--reps", ["simulate", *_WIN, "--seed", "1", "--reps", "0"]),
    ("--count", ["simulate-n", *_WIN, "--seed", "1", "--count", "-1"]),
    ("--n", [*_NEXT, "--from", "0", "--n", "0"]),
    ("--from", [*_NEXT, "--from", "nan", "--n", "1"]),
    ("--k", [*_ORDER, "--k", "0", "--m", "2"]),
    ("--m", [*_ORDER, "--k", "3", "--m", "2"]),
    ("--grid", ["density", "order-stat", *_WIN, "--k", "1", "--m", "1", "--grid", "0", "1", "1"]),
    ("--grid", ["density", "order-stat", *_WIN, "--k", "1", "--m", "1", "--grid", "1", "0", "3"]),
]


@pytest.mark.parametrize("flag, argv", FLAG_CHECKS)
def test_each_flag_check_exits_2_naming_its_flag(capsys, flag, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert flag in err
