#!/usr/bin/env python3
"""Benchmark of ippp: one workload, one run, one JSON line.

    python3 bench/run.py --workload {window,timechange,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its
``src``.  The run sets up, then repeats whole rounds of the workload's
operations until ``--seconds`` have passed, checks every output against
the analytic oracles, and runs the law tests on the pooled outputs.
The run is correct when every law test passes and every failed
operation fails by one of the workload's named faults.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays every
operation through its public layer calls and prints the per-layer
metrics.  Either way the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``, and a result file with
the versions, the failed operations and every figure is written under
``bench/results/``.  See ``bench/README.md``.
"""

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from speed import Probe, scaled  # noqa: E402

# set-up is timed this many times in fresh interpreters, besides the run's own
SETUP_CHILDREN = 4


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("window", "timechange", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _env():
    return dict(os.environ, PYTHONPATH=SRC)


def timed_setup(workload, seed):
    """Set up a workload; returns it and its (scaled, raw) set-up time."""
    import workloads

    probe = Probe()
    before = probe()
    t0 = time.perf_counter()
    wl = workloads.make(workload, seed, ROOT)
    wl.setup()
    raw = time.perf_counter() - t0
    return wl, (scaled(raw, before, probe()), raw)


def _setup_in_child(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), "setup", workload, str(seed)],
        cwd=ROOT,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def _import_times(tr, k=3):
    """cli.import_ms and cli.scipy_import_ms from ``python -X importtime``."""
    for _ in range(k):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import ippp.cli"],
            cwd=ROOT,
            env=_env(),
            capture_output=True,
            text=True,
            timeout=150,
        )
        top, cumulative = 0.0, {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( +)(\S+)\s*$", line)
            if m:
                cumulative.setdefault(m.group(3), int(m.group(1)) * 1e-6)
                if len(m.group(2)) == 1 and m.group(3).split(".")[0] == "ippp":
                    top += int(m.group(1)) * 1e-6  # a top-level line holds its nested imports
        tr.time["cli.import"] += top
        tr.calls["cli.import"] += 1
        # absent when nothing imports scipy.special: then it costs nothing
        tr.time["cli.scipy_import"] += cumulative.get("scipy.special", 0.0)
        tr.calls["cli.scipy_import"] += 1


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout; git would search the directories above
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    i = int(pos)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (pos - i)


def _run_rounds(wl, seconds, tr=None):
    """Whole rounds until ``seconds`` have passed; returns the tallies.

    Each operation's latency is kept raw and scaled to the reference
    speed of ``speed.py`` by the probes taken just before and after it.
    """
    probe = Probe()
    raw, lat, rounds = [], [], []
    by_op, failures, unexpected, mismatches = {}, {}, {}, []
    failed = points = 0
    replay_s = 0.0
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        if tr is not None:
            tr.first = r == 0
        first, round_points = len(lat), points
        for op in wl.round(r):
            before = probe()
            t0 = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception as exc:  # an operation that raises is a failed operation
                out, error = None, exc
            raw.append(time.perf_counter() - t0)
            lat.append(scaled(raw[-1], before, probe()))
            by_op.setdefault(op.name, []).append(lat[-1])
            if error is None:
                reason, n = op.check(out)
            else:
                reason, n = f"raised {type(error).__name__}: {error}", 0
            points += n
            if reason is not None:
                failed += 1
                failures.setdefault(op.name, reason)
                if not wl.is_named_fault(op.name, reason):
                    unexpected.setdefault(op.name, reason)
            if tr is not None and error is None:
                t1 = time.perf_counter()
                if not op.replay(tr, out):
                    mismatches.append(f"round {r}: {op.name}")
                replay_s += time.perf_counter() - t1
        rounds.append((first, len(lat), points - round_points))
        r += 1
    return {
        "rounds": r,
        "attempted": len(lat),
        "failed": failed,
        "failures": failures,
        "unexpected": unexpected,
        "mismatches": mismatches,
        "replay_s": replay_s,
        "op_s": sum(raw),
        "timing": _timing(lat, rounds),
        "raw_timing": _timing(raw, rounds),
        "op_median_ms": {name: 1e3 * statistics.median(v) for name, v in by_op.items()},
        "op_counts": {name: len(v) for name, v in by_op.items()},
        "round_s": [sum(raw[a:b]) for a, b, _ in rounds],
    }


def _timing(lat, rounds):
    """Latency percentiles, and rates as medians over the run's rounds
    (every round runs the same operations)."""
    per_round = [(b - a, p, sum(lat[a:b])) for a, b, p in rounds]
    return {
        "ops_per_s": statistics.median(n / t for n, _, t in per_round),
        "points_per_s": statistics.median(p / t for _, p, t in per_round),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * _percentile(lat, 0.9),
    }


def main(argv=None):
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "ippp", "__init__.py")):
        print(f"bench: no ippp sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # one core for the run and its children, so the speed probes time
        # the core the operations run on
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, SRC)
    import workloads
    from trace import Tracer, layer_metrics

    wl, setup = timed_setup(args.workload, args.seed)
    setup = [setup]
    import ippp

    if os.path.dirname(os.path.abspath(ippp.__file__)) != os.path.join(SRC, "ippp"):
        print(f"bench: imported ippp from {ippp.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    result = {}
    if args.trace:
        tr = Tracer()
        tr.enabled = False
        wl.trace_setup(tr)
        tally = _run_rounds(wl, args.seconds, tr)
        _import_times(tr)
        # layers this workload never calls are measured on one round of the
        # workloads that call them
        fill = Tracer()
        for other in workloads.WORKLOADS:
            if other != args.workload:
                ow = workloads.make(other, args.seed, ROOT)
                ow.setup()
                fill.enabled = False
                ow.trace_setup(fill)
                _run_rounds(ow, 0.0, fill)
        metrics, source = layer_metrics(tr, fill)
        result["tracing"] = {
            "metric_source": source,
            "replay_mismatches": tally["mismatches"],
            "overhead": tally["replay_s"] / tally["op_s"] - 1.0,
            "spans": tr.dump(),
        }
        if tally["mismatches"]:
            print(f"bench: replay differs from the operation, layer figures stale: {tally['mismatches'][:5]}", file=sys.stderr)
    else:
        setup += [_setup_in_child(args.workload, args.seed) for _ in range(SETUP_CHILDREN)]
        tally = _run_rounds(wl, args.seconds)
        if args.workload == "cli":
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        units = {"ops_per_s": "1/s", "points_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms"}
        metrics = {"setup_s": {"value": statistics.median(s for s, _ in setup), "unit": "s"}}
        metrics.update({name: {"value": v, "unit": units[name]} for name, v in tally["timing"].items()})
        metrics["peak_rss_mib"] = {"value": rss_kib / 1024.0, "unit": "MiB"}
        result["raw"] = dict(tally["raw_timing"], setup_s=statistics.median(r for _, r in setup))

    laws = wl.laws()
    bad_laws = [(name, p) for name, p in laws if not p >= workloads.LAW_ALPHA]
    correct = not bad_laws and not tally["unexpected"]
    defects = wl.known_defects()

    import numpy
    import scipy

    result.update(
        {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "rounds": tally["rounds"],
            "attempted": tally["attempted"],
            "failed": tally["failed"],
            "failed_ops": tally["failures"],
            "failed_not_named_fault": tally["unexpected"],
            "known_defects": defects,
            "op_median_ms": tally["op_median_ms"],
            "op_counts": tally["op_counts"],
            "round_s": tally["round_s"],
            "laws": dict(laws),
            "setup_samples_s": setup,  # (scaled, raw) pairs
            "library_log_records": wl.log.records,
            "metrics": metrics,
        }
    )
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    for name, op in sorted(tally["failures"].items()):
        named = "" if name not in tally["unexpected"] else " (not a named fault)"
        print(f"failed{named}  {name}: {op}")
    for name, d in defects.items():
        print(f"known defect {name}: {'present' if d['present'] else 'absent'}: {d['detail']}")
    for name, p in bad_laws:
        print(f"law test failed  {name}: p={p:.3g}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": correct, "attempted": tally["attempted"], "failed": tally["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
