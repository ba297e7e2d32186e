"""Spans and counters around ridesim's layers, installed from outside the package.

ridesim's modules call each other through module attributes (``kpi.validate_log``)
or through names bound at import (``cli.run_day``); this module rebinds those
names to wrappers, so nothing under ``src/`` changes. Calls that happen a few
times per run (``run_day``, ``materialize``, the KPI builders, the writers)
become spans with a parent. Per-request calls (the decision hooks,
``match_batch``, ``linear_sum_assignment``) are aggregated into a call count
and summed time per thread; ``match_instant`` is only counted.
"""

import dataclasses
import itertools
import threading
import time
from collections import defaultdict

perf = time.perf_counter

HOOKS = ("f_match", "f_trav_out", "f_trav_mode", "f_platform_choice",
         "f_driver_decline", "f_driver_repos", "f_driver_out")

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "engine.events", "engine.matching_passes", "decisions.f_match.calls",
    "platforms.match_instant.calls", "platforms.lap_solves",
    "kpi.validate_log.calls", "netgraph.build_skim.calls",
    "netgraph.content_key.calls",
)

# tail percentiles tried from the highest down; the first with >= 10 samples
# beyond it is reported
_TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "thread", "agg_child")

    def __init__(self, span_id, parent, name, thread):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.agg_child = 0.0      # aggregated calls made directly inside this span
        self.start = perf()
        self.end = None


class _ThreadState:
    def __init__(self, ident):
        self.ident = ident
        self.stack = []                          # open spans, innermost last
        self.depth = 0                           # open aggregated calls
        self.agg = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.samples = []                        # f_match durations
        self.queue = [0, 0, 0]                   # sum requests, max requests, sum idle


class Tracer:
    """Collects spans and per-thread aggregates for one run (one trace id)."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._main = self._state()

    def _state(self) -> _ThreadState:
        try:
            return self._local.st
        except AttributeError:
            st = _ThreadState(threading.get_ident())
            self._local.st = st
            with self._lock:
                self._threads.append(st)
            return st

    # ---------------------------------------------------------- wrappers

    def span(self, name, fn):
        def wrapper(*args, **kwargs):
            st = self._state()
            if st.stack:
                parent = st.stack[-1].span_id
            else:
                # a worker thread's first span is caused by the main thread's
                # open span (run_grid waiting on its pool)
                parent = self._main.stack[-1].span_id if self._main.stack else None
            sp = Span(next(self._ids), parent, name, st.ident)
            st.stack.append(sp)
            try:
                return fn(*args, **kwargs)
            finally:
                sp.end = perf()
                st.stack.pop()
                self.spans.append(sp)
        return wrapper

    def timed(self, name, fn, on_result=None):
        local = self._local

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = self._state()
            st.depth += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                st.depth -= 1
                rec = st.agg[name]
                rec[0] += 1
                rec[1] += dt
                if st.depth == 0 and st.stack:
                    st.stack[-1].agg_child += dt
            if on_result is not None:
                on_result(st, args, result, dt)
            return result
        return wrapper

    def counted(self, name, fn):
        """Count calls and non-None results, without a timer."""
        local = self._local
        hits = name + ".hits"

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            try:
                agg = local.st.agg
            except AttributeError:
                agg = self._state().agg
            agg[name][0] += 1
            if result is not None:
                agg[hits][0] += 1
            return result
        return wrapper

    def add(self, name, n):
        self._state().agg[name][0] += n

    # ------------------------------------------------------------ results

    def aggregates(self) -> dict:
        total = defaultdict(lambda: [0, 0.0])
        for st in self._threads:
            for name, (calls, secs) in st.agg.items():
                total[name][0] += calls
                total[name][1] += secs
        return total

    def self_times(self) -> dict:
        """Span id -> duration minus the part its children cover."""
        children = defaultdict(list)
        for sp in self.spans:
            children[sp.parent].append(sp)
        out = {}
        for sp in self.spans:
            covered = 0.0
            cur_start = cur_end = None
            for c in sorted(children[sp.span_id], key=lambda c: c.start):
                s, e = max(c.start, sp.start), min(c.end, sp.end)
                if e <= s:
                    continue
                if cur_end is None or s > cur_end:
                    if cur_end is not None:
                        covered += cur_end - cur_start
                    cur_start, cur_end = s, e
                else:
                    cur_end = max(cur_end, e)
            if cur_end is not None:
                covered += cur_end - cur_start
            out[sp.span_id] = sp.end - sp.start - covered - sp.agg_child
        return out

    def dump(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "spans": [
                {"id": sp.span_id, "parent": sp.parent, "name": sp.name,
                 "start": sp.start, "end": sp.end, "thread": sp.thread}
                for sp in self.spans
            ],
            "aggregates": {k: {"calls": c, "s": s}
                           for k, (c, s) in sorted(self.aggregates().items())},
        }


# ------------------------------------------------------------ installation

def install_setup_hook(cli, experiments, on_first=None):
    """Untraced runs: timestamp the first ``run_day`` entry, and pass it to
    ``on_first`` if given, and count the records each run produces.
    Returns (entry stamps, record counts)."""
    stamps, records = [], []

    def wrap(fn):
        def run_day(*args, **kwargs):
            if not stamps:
                stamps.append(perf())
                if on_first is not None:
                    on_first(stamps[0])
            result = fn(*args, **kwargs)
            records.append(len(result.log))
            return result
        return run_day

    cli.run_day = wrap(cli.run_day)
    experiments.run_day = wrap(experiments.run_day)
    return stamps, records


def install(tracer: Tracer, ridesim) -> None:
    """Rebind the names ridesim's callers use to traced wrappers."""
    cli, experiments = ridesim.cli, ridesim.experiments
    scenario, netgraph, platforms, kpi = (
        ridesim.scenario, ridesim.netgraph, ridesim.platforms, ridesim.kpi)

    def run_day_span(fn):
        traced = tracer.span("engine.run_day", fn)

        def run_day(*args, **kwargs):
            result = traced(*args, **kwargs)
            tracer.add("engine.events", len(result.log))
            return result
        return run_day

    for mod in (cli, experiments):
        mod.run_day = run_day_span(mod.run_day)
        mod.materialize = tracer.span("scenario.materialize", mod.materialize)
        mod.build_decision_set = _traced_decisions(tracer, mod.build_decision_set)
    for mod in (scenario, experiments):
        mod.build_skim = tracer.span("netgraph.build_skim", _count_skim_bytes(tracer, mod.build_skim))
    scenario.generate_demand = tracer.span("scenario.generate_demand", scenario.generate_demand)
    netgraph.RoadNetwork.content_key = tracer.span(
        "netgraph.content_key", netgraph.RoadNetwork.content_key)
    cli.run_grid = tracer.span("experiments.run_grid", cli.run_grid)
    cli.day_to_day = tracer.span("experiments.day_to_day", cli.day_to_day)

    platforms.match_instant = tracer.counted("platforms.match_instant", platforms.match_instant)
    platforms.match_batch = tracer.timed("platforms.match_batch", platforms.match_batch)
    platforms.linear_sum_assignment = tracer.timed(
        "platforms.lap_solves", platforms.linear_sum_assignment)

    for name in ("validate_log", "traveller_kpis", "driver_kpis", "system_kpis",
                 "node_aggregates"):
        setattr(kpi, name, tracer.span(f"kpi.{name}", getattr(kpi, name)))
    for name in ("write_events_csv", "write_traveller_csv", "write_driver_csv",
                 "write_system_csv", "write_node_csv"):
        setattr(kpi, name, tracer.span("kpi.write_csv", getattr(kpi, name)))


def _count_skim_bytes(tracer, fn):
    def build_skim(net):
        tracer.add("netgraph.skim_bytes", 16 * net.n * net.n)
        return fn(net)
    return build_skim


def _sample_match(st, args, pairs, dt):
    ctx = args[0]
    n_req, n_idle = len(ctx.requests), len(ctx.idle)
    st.samples.append(dt)
    q = st.queue
    q[0] += n_req
    q[1] = max(q[1], n_req)
    q[2] += n_idle
    if n_req and n_idle:
        st.agg["engine.matching_passes"][0] += 1


def _traced_decisions(tracer, build):
    def build_decision_set(*args, **kwargs):
        ds = build(*args, **kwargs)
        return dataclasses.replace(ds, **{
            hook: tracer.timed(f"decisions.{hook}", getattr(ds, hook),
                               _sample_match if hook == "f_match" else None)
            for hook in HOOKS
        })
    return build_decision_set


# ----------------------------------------------------------------- metrics

def layer_metrics(tracer: Tracer, threads: int) -> dict:
    """Per-layer values of one traced run (probes and ratios are added by the
    caller)."""
    agg = tracer.aggregates()
    self_s = tracer.self_times()
    by_id = {sp.span_id: sp for sp in tracer.spans}
    span_s = defaultdict(float)
    span_self = defaultdict(float)
    span_calls = defaultdict(int)
    for sp in tracer.spans:
        span_s[sp.name] += sp.end - sp.start
        span_self[sp.name] += self_s[sp.span_id]
        span_calls[sp.name] += 1

    def under_experiments(sp):
        while sp.parent is not None:
            sp = by_id[sp.parent]
            if sp.name.startswith("experiments."):
                return True
        return False

    m = {
        "netgraph.build_skim.s": span_s["netgraph.build_skim"],
        "netgraph.build_skim.calls": span_calls["netgraph.build_skim"],
        "netgraph.content_key.calls": span_calls["netgraph.content_key"],
        "netgraph.content_key.s": span_s["netgraph.content_key"],
        "netgraph.skim_bytes": agg["netgraph.skim_bytes"][0],
        "scenario.materialize.calls": span_calls["scenario.materialize"],
        "scenario.materialize.self_s": span_self["scenario.materialize"],
        "scenario.generate_demand.s": span_s["scenario.generate_demand"],
        "engine.run_day.s": span_s["engine.run_day"],
        "engine.run_day.self_s": span_self["engine.run_day"],
        "engine.events": agg["engine.events"][0],
        "engine.matching_passes": agg["engine.matching_passes"][0],
    }
    for hook in HOOKS:
        calls, secs = agg[f"decisions.{hook}"]
        m[f"decisions.{hook}.calls"] = calls
        m[f"decisions.{hook}.s"] = secs

    samples = sorted(s for st in tracer._threads for s in st.samples)
    n = len(samples)
    m["decisions.f_match.p50_us"] = _pct(samples, 50.0) * 1e6
    tail = next((p for p in _TAIL_LADDER if n * (100.0 - p) / 100.0 >= 10), 50.0)
    m["decisions.f_match.tail_pct"] = tail
    m["decisions.f_match.tail_us"] = _pct(samples, tail) * 1e6
    m["decisions.f_match.tail_n"] = sum(1 for s in samples if s > _pct(samples, tail))

    instant = agg["platforms.match_instant"][0]
    q_sum = sum(st.queue[0] for st in tracer._threads)
    q_max = max((st.queue[1] for st in tracer._threads), default=0)
    idle_sum = sum(st.queue[2] for st in tracer._threads)
    m.update({
        "platforms.match_instant.calls": instant,
        "platforms.scan_yield":
            agg["platforms.match_instant.hits"][0] / instant if instant else 0.0,
        "platforms.match_batch.calls": agg["platforms.match_batch"][0],
        "platforms.match_batch.s": agg["platforms.match_batch"][1],
        "platforms.lap_solves": agg["platforms.lap_solves"][0],
        "platforms.queue_len.mean": q_sum / n if n else 0.0,
        "platforms.queue_len.max": q_max,
        "platforms.idle.mean": idle_sum / n if n else 0.0,
        "kpi.validate_log.calls": span_calls["kpi.validate_log"],
        "kpi.validate_log.s": span_s["kpi.validate_log"],
        "kpi.traveller_kpis.s": span_s["kpi.traveller_kpis"],
        "kpi.driver_kpis.s": span_s["kpi.driver_kpis"],
        "kpi.system_kpis.s": span_s["kpi.system_kpis"],
        "kpi.node_aggregates.s": span_s["kpi.node_aggregates"],
        "kpi.write_csv.s": span_s["kpi.write_csv"],
        "experiments.run_grid.s": span_s["experiments.run_grid"],
        "experiments.runs": sum(
            1 for sp in tracer.spans
            if sp.name == "engine.run_day" and under_experiments(sp)),
        "experiments.busy_ratio":
            span_s["engine.run_day"] / (span_s["experiments.run_grid"] * threads)
            if span_s["experiments.run_grid"] else 0.0,
        "experiments.day_to_day.s": span_s["experiments.day_to_day"],
        "cli.main.self_s": span_self["cli.main"],
    })
    return m


def _pct(sorted_values, p):
    """Linearly interpolated percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    k = (len(sorted_values) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (k - lo)
