"""Spans and counts for the traced run, and the replays that produce them.

The traced run replays each operation as the sequence of public ``ippp``
calls it is made of, with a span around each call.  Rate evaluations are
counted by :class:`CountingSource`, which wraps a model's rate source and
is passed back through the public ``RateModel(source=...)`` constructor.
Philox words are read from the change in an ``RngState``'s counter; the
benchmark never advances a generator itself.

Spans are aggregated in memory by name: total time, self time (the span
minus its child spans) and calls.  Counts taken during the first round of
a run are also kept apart, so that count metrics repeat exactly for a
given seed however many rounds fit in the run.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9  # ippp.quadrature.DEFAULT_TOL, used by every operation here


class Tracer:
    def __init__(self):
        self.time = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.counts0 = Counter()  # first round only
        self.calls0 = Counter()
        self.first = True
        self.enabled = True
        self._stack = []

    @contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.time[name] += dt
            self.self_time[name] += dt - frame[1]
            self.calls[name] += 1
            if self.first:
                self.calls0[name] += 1
            if self._stack:
                self._stack[-1][1] += dt

    def current(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def add(self, name, n):
        if not self.enabled:
            return
        self.counts[name] += n
        if self.first:
            self.counts0[name] += n

    def dump(self) -> dict:
        return {
            "time": dict(self.time),
            "self_time": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "counts0": dict(self.counts0),
            "calls0": dict(self.calls0),
        }

    def merge(self, d: dict):
        for key in ("time", "self_time"):
            for k, v in d[key].items():
                getattr(self, key)[k] += v
        for key in ("calls", "counts", "counts0", "calls0"):
            getattr(self, key).update(d[key])


@dataclass(frozen=True)
class CountingSource:
    """A rate source that counts and times the calls it delegates."""

    inner: object
    tracer: Tracer = field(compare=False, hash=False, repr=False)
    span_name: str = "rate_model.source"

    def __call__(self, x):
        tr = self.tracer
        where = tr.current()
        n = int(np.size(x))
        with tr.span(self.span_name):
            out = self.inner(x)
        tr.add("rate.calls", 1)
        tr.add("rate.points", n)
        tr.add("rate.points@" + where, n)
        if self.span_name == "rate_expr.evaluate":
            tr.add("rate_expr.points", n)
        return out

    def supremum(self, lo, hi):
        return self.inner.supremum(lo, hi)

    def describe(self):
        return self.inner.describe()


def counting_model(model, tracer):
    """The same rate, domain and bound, with its source counted."""
    from ippp import RateModel
    from ippp.rate_model import ExpressionRate

    name = "rate_expr.evaluate" if isinstance(model.source, ExpressionRate) else "rate_model.source"
    return RateModel(CountingSource(model.source, tracer, name), model.domain, model.declared_bound)


def words(rng) -> int:
    """Philox words drawn so far: four per counter step, less the buffer."""
    st = rng._bits.state
    ctr = sum(int(v) << (64 * i) for i, v in enumerate(st["state"]["counter"]))
    return 4 * ctr + int(st["buffer_pos"]) - 4


# -- replays -----------------------------------------------------------------
# Each returns what the operation returned, rebuilt from its public calls.


def _poisson(tr, rng, mean):
    w = words(rng)
    with tr.span("rng.poisson"):
        count = rng.poisson(mean)
    tr.add("poisson.words", words(rng) - w)
    tr.add("poisson.draws", 1)
    return count


def _locations(tr, cm, model, window, rng, count):
    from ippp import sample_location

    with tr.span("rate_model.bound_on"):
        model.bound_on(window)  # the uncounted model: a probe, not part of the count
    if not count:
        return np.empty(0)
    w = words(rng)
    with tr.span("sampling_bounded.sample_location"):
        pts = sample_location(cm, window, rng, size=count)
    tr.add("candidates", (words(rng) - w) // 2)  # one x and one u word each
    tr.add("accepted", count)
    return np.sort(pts)


@contextmanager
def _sampling_op(tr, layer, rng):
    """Span one replayed sampling operation; count its words and rate points."""
    w = words(rng)
    p = tr.counts["rate.points"]
    box = {}
    with tr.span("op." + layer):
        yield box
    tr.add("ops", 1)
    tr.add("words", words(rng) - w)
    tr.add("points", int(box["points"].size))
    tr.add("sampled.rate_points", tr.counts["rate.points"] - p)


def replay_window(tr, cm, model, window, rng):
    """simulate_window: expected_count, RngState.poisson, sample_location."""
    from ippp import expected_count

    with _sampling_op(tr, "sampling_bounded", rng) as box:
        with tr.span("sampling_bounded.expected_count"):
            mean = expected_count(cm, window)
        count = _poisson(tr, rng, mean)
        box["points"] = _locations(tr, cm, model, window, rng, count)
    return mean, box["points"]


def replay_conditional(tr, cm, model, window, rng, m):
    """simulate_conditional: sample_location(size=m)."""
    with _sampling_op(tr, "sampling_bounded", rng) as box:
        box["points"] = _locations(tr, cm, model, window, rng, m)
    return box["points"]


def replay_time_change(tr, cm, window, rng):
    """sample_path_time_change: table, R at both edges, Exp(1) gaps, inverse."""
    from ippp import cumulative_intensity

    with _sampling_op(tr, "sampling_line", rng) as box:
        with tr.span("quadrature.table_build"):
            ci = cumulative_intensity(cm, TOL, span=window)
            r_lo = ci(window.lo)
            r_hi = ci(window.hi)
        with tr.span("rng.exponential_loop"):
            ys = []
            y = r_lo + rng.exponential()
            while y <= r_hi:
                ys.append(y)
                y += rng.exponential()
        if ys:
            with tr.span("quadrature.inverse_many"):
                pts = ci.inverse_many(np.asarray(ys))
            tr.add("targets", len(ys))
        else:
            pts = np.empty(0)
        box["points"] = np.clip(pts, window.lo, window.hi)
    tr.add("tc.points", len(ys))
    tr.add("checkpoints", len(ci.checkpoints))
    return box["points"]


def replay_nth(tr, cm, query, rng, size):
    """sample_nth_point: R at the anchor, Erlang steps, inverse_many(missing="nan")."""
    from ippp import cumulative_intensity

    with _sampling_op(tr, "sampling_line", rng) as box:
        ci = cumulative_intensity(cm, TOL)
        with tr.span("quadrature.R"):
            y = ci(query.anchor)
        with tr.span("rng.erlang"):
            steps = rng.erlang(query.n, size=size)
        tr.add("erlang.draws", size)
        with tr.span("quadrature.inverse_many"):
            box["points"] = ci.inverse_many(y + query.direction.sign * steps, missing="nan")
        tr.add("targets", size)
    return box["points"]


def replay_nth_table(tr, cm, query, xs):
    from ippp import nth_point_density, nth_point_mass

    with tr.span("op.sampling_line"):
        with tr.span("sampling_line.nth_point_density"):
            vals = nth_point_density(cm, query, xs)
        with tr.span("sampling_line.nth_point_mass"):
            mass = nth_point_mass(cm, query)
    tr.add("ops", 1)
    return vals, mass


def replay_order_stat(tr, cm, window, k, m, xs):
    from ippp import order_statistic_density

    with tr.span("op.sampling_bounded"):
        with tr.span("sampling_bounded.order_statistic_density"):
            vals = order_statistic_density(cm, window, k, m, xs)
    tr.add("ops", 1)
    return vals


def same(a, b) -> bool:
    """Bitwise equality of two float arrays, NaN lanes included."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.view(np.uint64).tobytes() == b.view(np.uint64).tobytes()


# -- per-layer metrics ---------------------------------------------------------


def _ratio(num, den, scale=1.0):
    return None if not den else scale * num / den


def _per_call(tr, name, scale):
    return _ratio(tr.time[name], tr.calls[name], scale)


def _rate_time(tr):
    return tr.time["rate_expr.evaluate"] + tr.time["rate_model.source"]


# name -> (unit, function of a Tracer); None means the run made no such call
LAYER_METRICS = {
    "rng.words_per_point": ("words", lambda t: _ratio(t.counts0["words"], t.counts0["points"])),
    "rng.poisson_words_per_draw": ("words", lambda t: _ratio(t.counts0["poisson.words"], t.counts0["poisson.draws"])),
    "rng.poisson_ms": ("ms/call", lambda t: _per_call(t, "rng.poisson", 1e3)),
    "rng.gap_draw_us_per_point": ("us", lambda t: _ratio(t.time["rng.exponential_loop"], t.counts["tc.points"], 1e6)),
    "rng.erlang_ns_per_draw": ("ns", lambda t: _ratio(t.time["rng.erlang"], t.counts["erlang.draws"], 1e9)),
    "rate_expr.parse_us": ("us", lambda t: _per_call(t, "rate_expr.parse_text", 1e6)),
    "rate_expr.evaluate_ns_per_point": (
        "ns",
        lambda t: _ratio(t.time["rate_expr.evaluate"], t.counts["rate_expr.points"], 1e9),
    ),
    "rate_model.evals_per_point": ("count", lambda t: _ratio(t.counts0["sampled.rate_points"], t.counts0["points"])),
    "rate_model.eval_calls_per_op": ("count", lambda t: _ratio(t.counts0["rate.calls"], t.counts0["ops"])),
    "rate_model.evaluate_ms_per_op": ("ms", lambda t: _ratio(_rate_time(t), t.counts["ops"], 1e3)),
    "rate_model.bound_on_us": ("us", lambda t: _per_call(t, "rate_model.bound_on", 1e6)),
    "quadrature.integrate_ms": ("ms", lambda t: _per_call(t, "quadrature.integrate", 1e3)),
    "quadrature.table_build_ms": ("ms", lambda t: _per_call(t, "quadrature.table_build", 1e3)),
    "quadrature.checkpoints_per_op": (
        "count",
        lambda t: _ratio(t.counts0["checkpoints"], t.calls0["quadrature.table_build"]),
    ),
    "quadrature.inverse_us_per_target": (
        "us",
        lambda t: _ratio(t.time["quadrature.inverse_many"], t.counts["targets"], 1e6),
    ),
    "quadrature.inverse_evals_per_target": (
        "count",
        lambda t: _ratio(t.counts0["rate.points@quadrature.inverse_many"], t.counts0["targets"]),
    ),
    "sampling_bounded.acceptance_ratio": ("ratio", lambda t: _ratio(t.counts0["accepted"], t.counts0["candidates"])),
    "sampling_bounded.rejection_ns_per_point": (
        "ns",
        lambda t: _ratio(t.self_time["sampling_bounded.sample_location"], t.counts["accepted"], 1e9),
    ),
    "sampling_bounded.expected_count_us": ("us", lambda t: _per_call(t, "sampling_bounded.expected_count", 1e6)),
    "sampling_bounded.order_stat_table_ms": (
        "ms",
        lambda t: _per_call(t, "sampling_bounded.order_statistic_density", 1e3),
    ),
    "sampling_line.self_ms_per_op": ("ms", lambda t: _ratio(t.self_time["op.sampling_line"], t.calls["op.sampling_line"], 1e3)),
    "sampling_line.nth_density_table_ms": ("ms", lambda t: _per_call(t, "sampling_line.nth_point_density", 1e3)),
    "sampling_line.nth_mass_us": ("us", lambda t: _per_call(t, "sampling_line.nth_point_mass", 1e6)),
    "cli.import_ms": ("ms", lambda t: _per_call(t, "cli.import", 1e3)),
    "cli.scipy_import_ms": ("ms", lambda t: _per_call(t, "cli.scipy_import", 1e3)),
    "cli.in_process_ms": ("ms", lambda t: _per_call(t, "cli.main", 1e3)),
}


def layer_metrics(own: Tracer, fill: Tracer):
    """Every per-layer metric, from ``own`` where the workload made the
    calls, else from ``fill`` (one round of the workload that does)."""
    out, source = {}, {}
    for name, (unit, fn) in LAYER_METRICS.items():
        value, where = fn(own), "own"
        if value is None:
            value, where = fn(fill), "fill"
        if value is None or not math.isfinite(value):
            raise RuntimeError(f"no calls measured for {name}")
        out[name] = {"value": float(value), "unit": unit}
        source[name] = where
    return out, source
