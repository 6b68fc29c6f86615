"""The three workloads: their inputs, operations, checks and law tests.

Each workload is a closed loop: one operation at a time, in one process
(``cli`` starts one child process per operation and waits for it).  A run
repeats whole rounds of the same operations; the inputs of round r come
from ``(seed, r)``, so a seed fixes every input of a run.

Every output is checked against the analytic oracles in ``oracles.py``
and against the properties the method promises, never against stored
output.  The law tests pool the outputs of a run's first POOL_ROUNDS
rounds and run once at its end.  After the timed rounds, each workload
also runs fixed cases of the defects its mix leaves out
(:meth:`Workload.known_defects`); their outcome is reported apart from
the failed operations.
"""

from __future__ import annotations

import json
import logging
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import mix
import oracles
from oracles import LAW_ALPHA
from trace import (
    TOL,
    counting_model,
    replay_conditional,
    replay_nth,
    replay_nth_table,
    replay_order_stat,
    replay_time_change,
    replay_window,
    same,
)

HERE = os.path.dirname(os.path.abspath(__file__))

# The named-fault operations draw from this seed whatever the workload
# seed, so that they fail the same way in every run.
FAULT_SEED = 20190130

# stream for warm-up draws, apart from every operation's stream
WARM_STREAM = 2**40

# The law tests pool the outputs of this many rounds only, so that the
# memory the pools hold, which peak_rss_mib includes, does not grow with
# the speed of the program.  A 30 s run holds 30 rounds or more.
POOL_ROUNDS = 12


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # returns (None or the reason the output is wrong, points sampled)
    check: Callable[[Any], tuple]
    # replays the operation through its public calls on a Tracer and says
    # whether the result is bitwise equal to ``run``'s
    replay: Callable[[Any, Any], bool]


def _points_ok(pts, lo, hi):
    pts = np.asarray(pts, dtype=float)
    if pts.size and not (np.all(np.diff(pts) >= 0) and pts[0] >= lo and pts[-1] <= hi):
        return f"points not sorted inside [{lo!r}, {hi!r}]"
    return None


def _mass_ok(what, got, rate, lo, hi):
    want = rate.mass(lo, hi)
    if abs(got - want) > 2 * TOL + rate.mass_err(lo, hi):
        return f"{what} {got!r} != analytic {want!r} on [{lo!r}, {hi!r}]"
    return None


def _round_trip_ok(rate, xs, targets):
    """|R(x) - y| <= 2 tol plus the oracle's error, through the analytic R."""
    err = np.abs(rate.R(xs) - targets)
    bad = err > 2 * TOL + rate.err(xs)
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"inverse round trip off by {float(err[i]):.3g} at x={float(xs[i])!r}"
    return None


def _erlang_table_ok(rate, anchor, n, sign, xs, vals, mass):
    """The n-th point density integrates to its mass; both match Erlang."""
    m_dir = sign * (rate.edge(sign) - float(rate.R(anchor)))
    want = float(oracles.erlang_cdf(n, m_dir)) if math.isfinite(m_dir) else 1.0
    if abs(mass - want) > 1e-9:
        return f"nth_point_mass {mass!r} != Erlang CDF {want!r}"
    onside = sign * (xs - anchor) > 0
    u = np.where(onside, sign * (rate.R(xs) - float(rate.R(anchor))), 0.0)
    true = np.where(onside, rate.r(xs) * oracles.erlang_pdf(n, u), 0.0)
    grid_err = abs(oracles.simpson(true, xs) - want)
    got = oracles.simpson(vals, xs)
    if abs(got - mass) > grid_err + 1e-7:
        return f"density integrates to {got!r}, mass is {mass!r} (grid error {grid_err:.2g})"
    return None


def _order_stat_ok(rate, lo, hi, k, m, xs, vals):
    F = rate.cdf(xs, lo, hi)
    f = rate.r(xs) / rate.mass(lo, hi)
    true = k * math.comb(m, k) * F ** (k - 1) * (1.0 - F) ** (m - k) * f
    grid_err = abs(oracles.simpson(true, xs) - 1.0)
    got = oracles.simpson(vals, xs)
    if abs(got - 1.0) > grid_err + 1e-7:
        return f"order-statistic density integrates to {got!r} (grid error {grid_err:.2g})"
    return None


class _CountingLogHandler(logging.Handler):
    """Counts the library's log records (envelope doublings) instead of printing them."""

    def __init__(self):
        super().__init__()
        self.records = 0

    def emit(self, record):
        self.records += 1


def _pooled_ks_p(chunks):
    """KS p-value of pooled PIT values against uniform; an empty pool
    (every operation that feeds it failed) fails the test."""
    if not chunks:
        return 0.0
    return oracles.ks_p(np.concatenate(chunks), "uniform")


class Workload:
    name = ""
    # operation -> how its check fails because of a named fault; any
    # other failure makes the run incorrect
    named_faults: dict[str, str] = {}

    def __init__(self, seed: int, root: str):
        self.seed = int(seed)
        self.root = root
        self.log = _CountingLogHandler()

    def setup(self):
        """Import, input generation and warm-up."""
        raise NotImplementedError

    def trace_setup(self, tr):
        """Counted twins of the models, warmed like the originals."""
        raise NotImplementedError

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def laws(self) -> list[tuple[str, float]]:
        return []

    def is_named_fault(self, op_name: str, reason: str) -> bool:
        prefix = self.named_faults.get(op_name)
        return prefix is not None and reason.startswith(prefix)

    def known_defects(self) -> dict[str, dict]:
        """Fixed cases of known defects, run once after the timed rounds
        on inputs that do not depend on the seed: name -> {"present",
        "detail"}.  They are not operations of the workload."""
        return {}

    def _quiet_library_log(self):
        lib = logging.getLogger("ippp")
        lib.addHandler(self.log)
        lib.propagate = False

    def _parse_probe(self, tr, names):
        from ippp import parse_text

        for name in names:
            text = mix.expression(name)
            if text:
                for _ in range(20):
                    with tr.span("rate_expr.parse_text"):
                        parse_text(text)


# -- window --------------------------------------------------------------------

# rate, window, shift the window by U(0, 2 pi) from the seed, simulate_window
# reps per round, simulate_conditional (m, reps) per round
WINDOW_MIX = (
    ("const2", 0.0, 5.0, False, 6, None),
    ("pwconst", 0.0, 8.0, False, 6, None),
    ("linear", 0.0, 40.0, False, 4, (200, 1)),
    ("sinexpr", 0.0, 200.0, True, 4, None),
    ("sin", 0.0, 2000.0, True, 4, None),
    ("bump", 0.0, 10.0, False, 6, (500, 2)),
    # simulate_window on the plateau is left out: integrate misses its
    # mass by up to 3e-5 on most shifts (see CHANGES.md)
    ("plateau", 0.0, 60.0, True, 0, (200, 4)),
    ("bigsin", 0.0, 1000.0, True, 1, None),
)

# fixed shifts of the plateau window in Window.known_defects
PLATEAU_SHIFTS = 8

# fault 2: simulate_conditional pooled to 100 x 200 points; the share of
# points within +-5e-4 of the spike is tested against the analytic share
SPIKE2_REPS, SPIKE2_M, SPIKE2_BAND = 100, 200, 5e-4


@dataclass
class _Item:
    rate: str
    model: Any
    window: Any
    cm: Any = None


class Window(Workload):
    """The rejection route with warm caches."""

    name = "window"
    named_faults = {
        "simulate_window:spike": "meta mean ",
        "simulate_conditional:spike2": "spike band: ",
    }

    def setup(self):
        from ippp import Interval, expected_count

        self._quiet_library_log()
        g = np.random.default_rng(self.seed)
        self.items = {}
        self.windowed = {"spike"}  # the rates simulate_window runs on
        self.plan = []
        for rate, lo, hi, shift, reps, cond in WINDOW_MIX:
            s = float(g.uniform(0.0, 2 * math.pi)) if shift else 0.0
            item = _Item(rate, mix.model(rate), Interval(lo + s, hi + s))
            if reps:
                self.windowed.add(rate)
                expected_count(item.model, item.window)
            self.items[rate] = item
            self.plan += [("simulate_window", rate, None)] * reps
            if cond:
                self.plan += [("simulate_conditional", rate, cond[0])] * cond[1]
        self.spike = _Item("spike", mix.model("spike"), Interval(0.0, 10.0))
        self.spike2 = _Item("spike2", mix.model("spike2"), Interval(0.0, 1.0))
        expected_count(self.spike.model, self.spike.window)
        self.counts = {r: [0, 0.0] for r in self.items}  # total count, total mean
        self.locs = {r: [] for r in self.items}

    def trace_setup(self, tr):
        from ippp import expected_count, integrate

        for item in (*self.items.values(), self.spike, self.spike2):
            item.cm = counting_model(item.model, tr)
        for item in (*self.items.values(), self.spike):
            if item.rate in self.windowed:
                expected_count(item.cm, item.window)
        tr.enabled = True
        for item in self.items.values():
            if item.rate not in self.windowed:
                continue
            for _ in range(3):
                with tr.span("quadrature.integrate"):
                    integrate(item.model, item.window.lo, item.window.hi)
        self._parse_probe(tr, self.items)

    def round(self, r):
        from ippp import RngState, simulate_conditional, simulate_window

        ops = []
        pool = r < POOL_ROUNDS
        for j, (kind, rate, m) in enumerate(self.plan):
            item = self.items[rate]
            stream = r * 1000 + j
            if kind == "simulate_window":
                ops.append(self._window_op(item, self.seed, stream, pool))
            else:
                ops.append(
                    Op(
                        f"simulate_conditional:{rate}",
                        lambda item=item, m=m, s=stream: simulate_conditional(
                            item.model, item.window, m, RngState(self.seed, s)
                        ),
                        lambda es, item=item, m=m: self._check_conditional(item, es, m, pool),
                        lambda tr, es, item=item, m=m, s=stream: same(
                            replay_conditional(tr, item.cm, item.model, item.window, RngState(self.seed, s), m),
                            es.points,
                        ),
                    )
                )
        ops.append(self._window_op(self.spike, FAULT_SEED, r, pool=False))
        ops.append(self._spike2_op(r))
        return ops

    def _window_op(self, item, seed, stream, pool):
        from ippp import RngState, simulate_window

        def check(es):
            rate = mix.ORACLES[item.rate]
            lo, hi = item.window.lo, item.window.hi
            reason = _mass_ok("meta mean", es.meta["mean"], rate, lo, hi) or _points_ok(es.points, lo, hi)
            if reason is None and pool:
                self.counts[item.rate][0] += len(es)
                self.counts[item.rate][1] += rate.mass(lo, hi)
                self.locs[item.rate].append(es.points)
            return reason, len(es)

        def replay(tr, es):
            mean, pts = replay_window(tr, item.cm, item.model, item.window, RngState(seed, stream))
            return mean == es.meta["mean"] and same(pts, es.points)

        return Op(
            f"simulate_window:{item.rate}",
            lambda: simulate_window(item.model, item.window, RngState(seed, stream)),
            check,
            replay,
        )

    def _check_conditional(self, item, es, m, pool):
        reason = _points_ok(es.points, item.window.lo, item.window.hi)
        if reason is None and len(es) != m:
            reason = f"{len(es)} points, asked for {m}"
        if reason is None and pool:
            self.locs[item.rate].append(es.points)
        return reason, len(es)

    def _spike2_op(self, r):
        from ippp import RngState, simulate_conditional

        item = self.spike2
        streams = [r * SPIKE2_REPS + i for i in range(SPIKE2_REPS)]

        def run():
            return [simulate_conditional(item.model, item.window, SPIKE2_M, RngState(FAULT_SEED, s)) for s in streams]

        def check(sets):
            for es in sets:
                reason = _points_ok(es.points, 0.0, 1.0)
                if reason or len(es) != SPIKE2_M:
                    return reason or f"{len(es)} points, asked for {SPIKE2_M}", 0
            pts = np.concatenate([es.points for es in sets])
            rate = mix.ORACLES["spike2"]
            mu = rate.mu
            share = rate.mass(mu - SPIKE2_BAND, mu + SPIKE2_BAND) / rate.mass(0.0, 1.0)
            inside = int(np.count_nonzero(np.abs(pts - mu) <= SPIKE2_BAND))
            p = oracles.binom_p(inside, pts.size, share)
            if p < LAW_ALPHA:
                return (
                    f"spike band: {inside / pts.size:.4%} of {pts.size} points within {SPIKE2_BAND:g} of the spike, "
                    f"analytic {share:.4%} (p={p:.2g})",
                    pts.size,
                )
            return None, pts.size

        def replay(tr, sets):
            return all(
                same(
                    replay_conditional(tr, item.cm, item.model, item.window, RngState(FAULT_SEED, s), SPIKE2_M),
                    es.points,
                )
                for s, es in zip(streams, sets)
            )

        return Op("simulate_conditional:spike2", run, check, replay)

    def laws(self):
        out = []
        for rate, item in self.items.items():
            oracle = mix.ORACLES[rate]
            total, mean = self.counts[rate]
            if rate in self.windowed:
                out.append((f"count:{rate}", oracles.poisson_sum_p(total, mean) if mean else 0.0))
            pits = [oracle.cdf(locs, item.window.lo, item.window.hi) for locs in self.locs[rate]]
            out.append((f"location:{rate}", _pooled_ks_p(pits)))
        return out

    def known_defects(self):
        from ippp import Interval, RngState, simulate_window

        # simulate_window on the plateau: the window mass misses by more
        # than 2 tol when a kink falls inside a wide integration panel
        oracle = mix.ORACLES["plateau"]
        model = self.items["plateau"].model
        missed, worst = 0, 0.0
        shifts = np.random.default_rng(FAULT_SEED).uniform(0.0, 2 * math.pi, PLATEAU_SHIFTS)
        for j, s in enumerate(shifts):
            window = Interval(float(s), float(s) + 60.0)
            es = simulate_window(model, window, RngState(FAULT_SEED, j))
            err = abs(es.meta["mean"] - oracle.mass(window.lo, window.hi))
            worst = max(worst, err)
            missed += bool(_mass_ok("", es.meta["mean"], oracle, window.lo, window.hi))
        out = {
            "plateau_window_mass": {
                "present": missed > 0,
                "detail": f"{missed} of {PLATEAU_SHIFTS} window means off beyond 2 tol, worst by {worst:.3g}",
            }
        }
        # simulate_window on a piecewise-constant rate with jumps off the
        # dyadic points of the window: integrate raises ToleranceNotMet
        rate = "pwconst_offgrid"
        window = Interval(0.0, 8.0)
        try:
            es = simulate_window(mix.model(rate), window, RngState(FAULT_SEED, 0))
        except Exception as exc:  # the defect shows as an exception
            detail = f"raised {type(exc).__name__}: {exc}"
        else:
            detail = _mass_ok("meta mean", es.meta["mean"], mix.ORACLES[rate], 0.0, 8.0) or _points_ok(
                es.points, 0.0, 8.0
            )
        out["pwconst_offgrid_window"] = {"present": detail is not None, "detail": detail or "window mean within 2 tol"}
        return out


# -- timechange ----------------------------------------------------------------


def _path_ok(model, oracle, window, rng, es):
    """None if a time-change path is right: its mass, its points, and
    each point's analytic R against its target; else the reason."""
    from ippp import cumulative_intensity

    lo, hi = window.lo, window.hi
    pts = es.points
    reason = _mass_ok("meta mass", es.meta["mass"], oracle, lo, hi) or _points_ok(pts, lo, hi)
    if reason:
        return reason
    # the path's targets: R(lo) plus the running sum of its Exp(1) gaps
    ci = cumulative_intensity(model, TOL, span=window)
    steps = rng.exponential(size=len(pts) + 1)
    ys = np.cumsum(np.concatenate([[ci(lo)], steps]))[1:]
    if ys[-1] <= ci(hi) or (len(pts) and ys[-2] > ci(hi)):
        return "the path does not stop at the first target past R(hi)"
    return _round_trip_ok(oracle, pts, ys[:-1])


def _nth_ok(model, oracle, q, rng, out):
    """None if a batch of n-th point draws is right, else the reason."""
    from ippp import cumulative_intensity

    sign = q.direction.sign
    m_dir = sign * (oracle.edge(sign) - float(oracle.R(q.anchor)))
    steps = rng.erlang(q.n, size=len(out))
    targets = cumulative_intensity(model, TOL)(q.anchor) + sign * steps
    present = ~np.isnan(out)
    if np.any(~present & (steps < m_dir - 4 * TOL)):
        return "a draw within the reachable mass came back absent"
    if np.any(present & (steps > m_dir + 4 * TOL)):
        return "a draw past the reachable mass came back present"
    xs = out[present]
    if np.any(sign * (xs - q.anchor) < 0):
        return "a point on the wrong side of the anchor"
    return _round_trip_ok(oracle, xs, targets[present])


# rate, paths per round, range of the window's lo, width: every path gets a
# window of its own, so every operation builds a fresh checkpoint table
TC_FRESH = (
    ("sin", 3, (0.0, 400.0), 50.0),
    ("sinexpr", 2, (0.0, 400.0), 50.0),
    ("spike", 1, (-0.5, 0.0), 10.5),
    ("bump", 3, (-2.0, 0.0), 10.0),
    ("linear", 2, (0.0, 20.0), 40.0),
)
# The plateau rate is left out of the fresh paths and of sample_nth_point:
# R and its inverse are off by up to 2e-6 around its kinks wherever a
# checkpoint segment is wide (see CHANGES.md).  Its density table stays
# within the check, so it is kept there.
#
# queries on shared warm models: label -> rate, anchor range, n, direction,
# grid length for the density table; every round draws its anchors anew
TC_QUERIES = {
    "sin:above": ("sin", (0.0, 10.0), 5, "above", 40.0),
    "sin:below": ("sin", (0.0, 10.0), 5, "below", 40.0),
    "bump:below": ("bump", (3.0, 6.0), 3, "below", 20.0),
    "gauss:above": ("gauss", (-1.5, -0.5), 2, "above", 10.0),
    "plateau:below": ("plateau", (0.0, 2 * math.pi), 3, "below", 40.0),
}
TC_NTH = ("sin:above", "sin:below", "bump:below", "gauss:above")
TC_TABLES = ("sin:above", "sin:below", "gauss:above", "plateau:below")
NTH_SIZE = 10_000
# fixed plateau windows in TimeChange.known_defects
PLATEAU_PATHS = 4
NTH_GRID = 4001
# rate, window, k, m
TC_ORDER = (("bump", (0.0, 10.0), 3, 10), ("sin", (0.0, 20.0), 5, 5))
ORDER_GRID = 2001


class TimeChange(Workload):
    """The integration route: fresh tables, then warm inverse and density tables."""

    name = "timechange"

    def setup(self):
        from ippp import Interval, RngState, order_statistic_density, sample_path_time_change

        self.models = {rate: mix.model(rate) for rate in {t[0] for t in (*TC_FRESH, *TC_QUERIES.values(), *TC_ORDER)}}
        self.cms = {}
        self._warm_queries(self.models)
        self.order = []
        for rate, (lo, hi), k, m in TC_ORDER:
            xs = np.linspace(lo, hi, ORDER_GRID)
            self.order.append((rate, Interval(lo, hi), k, m, xs))
            order_statistic_density(self.models[rate], Interval(lo, hi), k, m, xs)
        for rate, _, (lo, _), width in TC_FRESH:
            sample_path_time_change(self.models[rate], Interval(lo - 1.0, lo - 1.0 + width), RngState(self.seed, WARM_STREAM))
        self.tc_count = [0, 0.0]
        self.gaps = []
        self.pits = {label: [] for label in TC_NTH}
        self.absent = {label: [0, 0.0, 0.0] for label in TC_NTH}  # count, its mean, its variance

    def _query(self, label, anchor):
        from ippp import NthPointQuery

        rate, _, n, direction, length = TC_QUERIES[label]
        q = NthPointQuery(anchor, n, direction)
        xs = np.sort(anchor + q.direction.sign * np.linspace(0.0, length, NTH_GRID))
        return rate, q, xs

    def _warm_queries(self, models):
        """Grow the shared tables over both ends of each anchor range."""
        from ippp import RngState, nth_point_density, nth_point_mass, sample_nth_point

        for label, (_, anchors, *_) in TC_QUERIES.items():
            for anchor in anchors:
                rate, q, xs = self._query(label, anchor)
                if label in TC_NTH:
                    sample_nth_point(models[rate], q, RngState(self.seed, WARM_STREAM), size=1000)
                if label in TC_TABLES:
                    nth_point_density(models[rate], q, xs)
                    nth_point_mass(models[rate], q)

    def trace_setup(self, tr):
        from ippp import order_statistic_density

        self.cms = {rate: counting_model(model, tr) for rate, model in self.models.items()}
        self._warm_queries(self.cms)
        for rate, window, k, m, xs in self.order:
            order_statistic_density(self.cms[rate], window, k, m, xs)
        tr.enabled = True
        self._parse_probe(tr, self.models)

    def round(self, r):
        from ippp import Interval

        g = np.random.default_rng([self.seed, r])
        ops = []
        pool = r < POOL_ROUNDS
        stream = r * 1000
        for rate, reps, (lo_a, lo_b), width in TC_FRESH:
            for _ in range(reps):
                lo = float(g.uniform(lo_a, lo_b))
                ops.append(self._path_op(rate, Interval(lo, lo + width), stream, pool))
                stream += 1
        queries = {label: self._query(label, float(g.uniform(*TC_QUERIES[label][1]))) for label in TC_QUERIES}
        for label in TC_NTH:
            ops.append(self._nth_op(label, *queries[label][:2], stream, pool))
            stream += 1
        for label in TC_TABLES:
            ops.append(self._table_op(label, *queries[label]))
        for rate, window, k, m, xs in self.order:
            ops.append(self._order_op(rate, window, k, m, xs))
        return ops

    def _path_op(self, rate, window, stream, pool):
        from ippp import RngState, sample_path_time_change

        model = self.models[rate]
        oracle = mix.ORACLES[rate]
        lo, hi = window.lo, window.hi

        def check(es):
            reason = _path_ok(model, oracle, window, RngState(self.seed, stream), es)
            if reason or not pool:
                return reason, len(es)
            pts = es.points
            self.tc_count[0] += len(es)
            self.tc_count[1] += oracle.mass(lo, hi)
            # each gap is Exp(1) truncated to the mass left in the window
            r_prev = np.concatenate([[float(oracle.R(lo))], oracle.R(pts)])
            gap = np.maximum(np.diff(r_prev), 0.0)
            left = float(oracle.R(hi)) - r_prev[:-1]
            self.gaps.append(np.clip(np.expm1(-gap) / np.expm1(-left), 0.0, 1.0))
            return None, len(es)

        def replay(tr, es):
            return same(replay_time_change(tr, self.cms[rate], window, RngState(self.seed, stream)), es.points)

        return Op(
            f"sample_path_time_change:{rate}",
            lambda: sample_path_time_change(model, window, RngState(self.seed, stream)),
            check,
            replay,
        )

    def _nth_op(self, label, rate, q, stream, pool):
        from ippp import RngState, sample_nth_point

        model = self.models[rate]
        oracle = mix.ORACLES[rate]
        sign = q.direction.sign
        r_anchor = float(oracle.R(q.anchor))
        m_dir = sign * (oracle.edge(sign) - r_anchor)

        def check(out):
            reason = _nth_ok(model, oracle, q, RngState(self.seed, stream), out)
            if reason or not pool:
                return reason, NTH_SIZE
            present = ~np.isnan(out)
            u = sign * (oracle.R(out[present]) - r_anchor)
            full = float(oracles.erlang_cdf(q.n, m_dir)) if math.isfinite(m_dir) else 1.0
            self.pits[label].append(np.clip(oracles.erlang_cdf(q.n, u) / full, 0.0, 1.0))
            p_absent = 1.0 - full
            self.absent[label][0] += int(np.count_nonzero(~present))
            self.absent[label][1] += NTH_SIZE * p_absent
            self.absent[label][2] += NTH_SIZE * p_absent * (1.0 - p_absent)
            return None, NTH_SIZE

        def replay(tr, out):
            return same(replay_nth(tr, self.cms[rate], q, RngState(self.seed, stream), NTH_SIZE), out)

        return Op(
            f"sample_nth_point:{label}",
            lambda: sample_nth_point(model, q, RngState(self.seed, stream), size=NTH_SIZE),
            check,
            replay,
        )

    def _table_op(self, label, rate, q, xs):
        from ippp import nth_point_density, nth_point_mass

        model = self.models[rate]

        def run():
            return nth_point_density(model, q, xs), nth_point_mass(model, q)

        def check(out):
            vals, mass = out
            return _erlang_table_ok(mix.ORACLES[rate], q.anchor, q.n, q.direction.sign, xs, vals, mass), 0

        def replay(tr, out):
            vals, mass = replay_nth_table(tr, self.cms[rate], q, xs)
            return same(vals, out[0]) and mass == out[1]

        return Op(f"nth_point_density:{label}", run, check, replay)

    def _order_op(self, rate, window, k, m, xs):
        from ippp import order_statistic_density

        model = self.models[rate]

        def check(vals):
            return _order_stat_ok(mix.ORACLES[rate], window.lo, window.hi, k, m, xs, vals), 0

        def replay(tr, vals):
            return same(replay_order_stat(tr, self.cms[rate], window, k, m, xs), vals)

        return Op(
            f"order_statistic_density:{rate}",
            lambda: order_statistic_density(model, window, k, m, xs),
            check,
            replay,
        )

    def laws(self):
        total, mean = self.tc_count
        out = [
            ("time_change:count", oracles.poisson_sum_p(total, mean) if mean else 0.0),
            ("time_change:gaps", _pooled_ks_p(self.gaps)),
        ]
        for label in TC_NTH:
            out.append((f"nth_point:{label}", _pooled_ks_p(self.pits[label])))
            # the share of absent draws; no pooled draw at all fails it
            absent = self.absent[label]
            out.append((f"nth_point_absent:{label}", oracles.normal_p(*absent) if self.pits[label] else 0.0))
        return out

    def known_defects(self):
        from ippp import Interval, NthPointQuery, RngState, sample_nth_point, sample_path_time_change

        # the plateau on the time-change route: R and its inverse miss
        # beyond 2 tol around the kinks wherever a checkpoint segment is wide
        oracle = mix.ORACLES["plateau"]
        model = self.models["plateau"]
        missed, first = 0, None
        los = np.random.default_rng(FAULT_SEED).uniform(0.0, 400.0, PLATEAU_PATHS)
        for j, lo in enumerate(los):
            window = Interval(float(lo), float(lo) + 50.0)
            es = sample_path_time_change(model, window, RngState(FAULT_SEED, j))
            reason = _path_ok(model, oracle, window, RngState(FAULT_SEED, j), es)
            missed += reason is not None
            first = first or reason
        out = {
            "plateau_time_change": {
                "present": missed > 0,
                "detail": f"{missed} of {PLATEAU_PATHS} paths wrong" + (f", first: {first}" if first else ""),
            }
        }
        # sample_nth_point below an anchor, once draws leave the uniform
        # checkpoint zone; the tables are shared with the workload's
        # plateau queries, but their values do not depend on query order
        q = NthPointQuery(1.0, 3, "below")
        got = sample_nth_point(model, q, RngState(FAULT_SEED, 7), size=NTH_SIZE)
        reason = _nth_ok(model, oracle, q, RngState(FAULT_SEED, 7), got)
        out["plateau_nth_below"] = {"present": reason is not None, "detail": reason or "every draw within 2 tol"}
        return out


# -- cli -----------------------------------------------------------------------


def cli_argv(spec: dict) -> list[str]:
    """The ippp command line of one CLI operation."""
    kind = spec["kind"]
    flags = mix.cli_flags(spec["rate"])
    rep = repr
    if kind in ("order-stat", "nth-point"):
        argv = ["density", kind, *flags]
    else:
        argv = [kind, *flags]
    if "window" in spec:
        argv += ["--window", *(rep(v) for v in spec["window"])]
    if kind == "simulate-n":
        argv += ["--count", str(spec["count"])]
    if "anchor" in spec:
        argv += [f"--from={spec['anchor']!r}", "--n", str(spec["n"]), "--direction", spec["direction"]]
    if kind == "order-stat":
        argv += ["--k", str(spec["k"]), "--m", str(spec["m"])]
    if "grid" in spec:
        lo, hi, steps = spec["grid"]
        argv += ["--grid", rep(lo), rep(hi), str(steps)]
    if "seed" in spec:
        argv += ["--seed", str(spec["seed"]), "--stream", str(spec["stream"]), "--reps", str(spec["reps"])]
    if "format" in spec:
        argv += ["--format", spec["format"]]
    return argv


def cli_specs(seed: int, r: int) -> list[dict]:
    """Round r of the cli workload: all six subcommands, CSV and JSON."""
    g = np.random.default_rng([seed, r])
    s = int(g.integers(0, 2**31))
    a = round(float(g.uniform(0.0, 10.0)), 6)
    ag = round(float(g.uniform(-1.5, -0.5)), 6)
    specs = [
        dict(kind="intensity", rate="sinexpr", window=(0.0, 2000.0)),
        dict(kind="intensity", rate="linear", window=(0.0, 40.0)),
        dict(kind="simulate", rate="sinexpr", window=(0.0, 12.0), reps=1, format="csv"),
        dict(kind="simulate", rate="sin", window=(0.0, 20.0), reps=200, format="json"),
        # twice, so that about ten samples of this cost sit at the 90th percentile
        dict(kind="simulate", rate="sin", window=(0.0, 20.0), reps=200, format="json"),
        dict(kind="simulate-n", rate="bump", window=(0.0, 10.0), count=50, reps=20, format="csv"),
        dict(kind="simulate-n", rate="pwconst", window=(0.0, 8.0), count=100, reps=5, format="json"),
        dict(kind="next-point", rate="sinexpr", anchor=a, n=3, direction="up", reps=1, format="csv"),
        dict(kind="next-point", rate="sinexpr", anchor=a, n=3, direction="down", reps=300, format="json"),
        dict(kind="order-stat", rate="bump", window=(0.0, 10.0), k=3, m=10, grid=(0.0, 10.0, 2001), format="csv"),
        dict(kind="order-stat", rate="sin", window=(0.0, 20.0), k=5, m=5, grid=(0.0, 20.0, 2001), format="json"),
        dict(kind="nth-point", rate="sinexpr", anchor=a, n=5, direction="up", grid=(a, a + 40.0, 4001), format="csv"),
        dict(kind="nth-point", rate="gauss", anchor=ag, n=2, direction="up", grid=(ag, ag + 10.0, 4001), format="json"),
    ]
    for j, spec in enumerate(specs):
        if "reps" in spec:
            spec["seed"] = s
            spec["stream"] = j * 1000
    return specs


def parse_cli_output(spec: dict, text: str, schema=None):
    """(rows, mass) from CLI output; rows are (rep, value) or (x, value).

    Raises ValueError naming what is malformed.
    """
    if spec["kind"] == "intensity":
        return [(0, float(text.strip()))], None
    if spec["format"] == "json":
        body = json.loads(text)
        if schema is not None:
            schema.validate(body)
        if "points" in body:
            rows = [(p["rep"], math.nan if p["point"] is None else float(p["point"])) for p in body["points"]]
        else:
            rows = [(float(t["x"]), float(t["value"])) for t in body["table"]]
        return rows, body["meta"].get("mass")
    lines = text.splitlines()
    head = lines[0] if lines else ""
    if not (head.startswith("# ippp ") and " seed=" in head and " cmd=ippp " in head):
        raise ValueError(f"CSV provenance line missing: {head!r}")
    body = lines[1:]
    mass = None
    if body and body[0].startswith("# mass="):
        mass = float(body[0][len("# mass=") :])
        body = body[1:]
    want = "x,value" if spec["kind"] in ("order-stat", "nth-point") else "rep,point"
    if not body or body[0] != want:
        raise ValueError(f"CSV header is not {want!r}")
    rows = []
    for line in body[1:]:
        a, _, b = line.partition(",")
        rows.append((float(a) if want == "x,value" else int(a), math.nan if b == "" else float(b)))
    return rows, mass


def _by_rep(rows, reps):
    out = [[] for _ in range(reps)]
    for rep, val in rows:
        out[rep].append(val)
    return [np.asarray(v, dtype=float) for v in out]


def check_cli(spec: dict, rows, mass):
    """None if the parsed output is right, else the reason; and points sampled."""
    kind = spec["kind"]
    rate = mix.ORACLES[spec["rate"]]
    if kind == "intensity":
        lo, hi = spec["window"]
        return _mass_ok("intensity", rows[0][1], rate, lo, hi), 0
    if kind in ("simulate", "simulate-n"):
        lo, hi = spec["window"]
        for pts in _by_rep(rows, spec["reps"]):
            reason = _points_ok(pts, lo, hi)
            if reason:
                return reason, len(rows)
            if kind == "simulate-n" and len(pts) != spec["count"]:
                return f"{len(pts)} rows in a rep, asked for --count {spec['count']}", len(rows)
        return None, len(rows)
    if kind == "next-point":
        if len(rows) != spec["reps"]:
            return f"{len(rows)} rows for --reps {spec['reps']}", len(rows)
        sign = 1 if spec["direction"] == "up" else -1
        vals = np.asarray([v for _, v in rows])
        present = vals[~np.isnan(vals)]
        if np.any(sign * (present - spec["anchor"]) < 0):
            return "a point on the wrong side of the anchor", len(rows)
        return None, len(rows)
    xs = np.asarray([x for x, _ in rows])
    vals = np.asarray([v for _, v in rows])
    if len(xs) != spec["grid"][2]:
        return f"{len(xs)} table rows for a grid of {spec['grid'][2]}", 0
    if kind == "order-stat":
        lo, hi = spec["window"]
        return _order_stat_ok(rate, lo, hi, spec["k"], spec["m"], xs, vals), 0
    sign = 1 if spec["direction"] == "up" else -1
    if mass is None:
        return "no mass in the nth-point table", 0
    return _erlang_table_ok(rate, spec["anchor"], spec["n"], sign, xs, vals, mass), 0


def replay_cli(tr, spec: dict, text: str) -> bool:
    """Replay one CLI operation through the library's public calls, on
    counted models with cold caches, and compare with its output."""
    from ippp import Interval, NthPointQuery, RngState, integrate, parse_text

    rows, mass = parse_cli_output(spec, text)
    text_expr = mix.expression(spec["rate"])
    if text_expr:
        with tr.span("rate_expr.parse_text"):
            parse_text(text_expr)
    model = mix.model(spec["rate"])
    cm = counting_model(model, tr)
    kind = spec["kind"]
    if kind == "intensity":
        lo, hi = spec["window"]
        with tr.span("quadrature.integrate"):
            value = integrate(cm, lo, hi, TOL)
        return repr(value) == text.strip()
    if kind in ("simulate", "simulate-n"):
        window = Interval(*spec["window"])
        ok = True
        for rep, pts in enumerate(_by_rep(rows, spec["reps"])):
            rng = RngState(spec["seed"], spec["stream"] + rep)
            if kind == "simulate":
                _, got = replay_window(tr, cm, model, window, rng)
            else:
                got = replay_conditional(tr, cm, model, window, rng, spec["count"])
            ok = ok and same(got, pts)
        return ok
    if kind == "order-stat":
        xs = np.linspace(*spec["grid"][:2], int(spec["grid"][2]))
        got = replay_order_stat(tr, cm, Interval(*spec["window"]), spec["k"], spec["m"], xs)
        return same(got, [v for _, v in rows])
    q = NthPointQuery(spec["anchor"], spec["n"], "above" if spec["direction"] == "up" else "below")
    if kind == "next-point":
        got = [
            replay_nth(tr, cm, q, RngState(spec["seed"], spec["stream"] + rep), 1)[0] for rep in range(spec["reps"])
        ]
        return same(got, [v for _, v in rows])
    xs = np.linspace(*spec["grid"][:2], int(spec["grid"][2]))
    vals, got_mass = replay_nth_table(tr, cm, q, xs)
    return same(vals, [v for _, v in rows]) and got_mass == mass


class Cli(Workload):
    """One ``python -m ippp`` process per operation, against the checkout's src."""

    name = "cli"

    def setup(self):
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self._cli(["--version"])  # the first process also fills the bytecode cache

    def _cli(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "ippp", *argv],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=150,
        )

    def _schema(self):
        import jsonschema

        if not hasattr(self, "_validator"):
            with open(os.path.join(self.root, "src", "ippp", "output.schema.json")) as fh:
                self._validator = jsonschema.Draft7Validator(json.load(fh))
        return self._validator

    def trace_setup(self, tr):
        tr.enabled = True

    def round(self, r):
        return [self._op(spec, r) for spec in cli_specs(self.seed, r)]

    def _op(self, spec, r):
        argv = cli_argv(spec)

        def check(proc):
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}", 0
            try:
                rows, mass = parse_cli_output(spec, proc.stdout, self._schema())
            except Exception as exc:  # malformed output of any kind fails the operation
                return f"malformed output: {type(exc).__name__}: {exc}", 0
            return check_cli(spec, rows, mass)

        def replay(tr, proc):
            child = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), "cli", json.dumps(spec), str(int(tr.first))],
                cwd=self.root,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=150,
            )
            if child.returncode != 0:
                raise RuntimeError(f"cli replay failed: {child.stderr.strip()[-400:]}")
            got = json.loads(child.stdout.splitlines()[-1])
            tr.merge(got["tracer"])
            return got["equal"] and got["stdout"] == proc.stdout

        return Op(f"cli:{spec['kind']}:{spec.get('format', 'text')}", lambda: self._cli(argv), check, replay)


WORKLOADS = {"window": Window, "timechange": TimeChange, "cli": Cli}


def make(name: str, seed: int, root: str) -> Workload:
    return WORKLOADS[name](seed, root)
