"""Span tracer, the closed pass loop, and the metrics derived from both.

One process runs one workload: set-up once, then passes over the workload's
fixed task list, one after the other (a closed loop with a single client),
until the run's time is up.  End-to-end metrics come from untraced passes.
A traced run makes each pass twice, once traced and once untraced on the
same inputs; the spans of the traced ones give the per-layer metrics, and
the two runs of a pass together give the tracing overhead.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from workloads import WORKLOADS, Pass, Sizes


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing task span
    task: int           # id shared by a task span and the calls made inside it


class Tracer:
    """Records a span around each library call when enabled; otherwise
    calls straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._parent: int | None = None
        self._task_id = -1

    @contextmanager
    def task(self, name: str):
        if not self.enabled:
            yield
            return
        self._task_id += 1
        self._parent = len(self.spans)
        span = Span(name, time.perf_counter(), float("nan"), None, self._task_id)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._parent = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), self._parent, self._task_id))


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def setup(workload: str, seed: int, tracer: Tracer, sizes: Sizes):
    p = Pass(tracer, seed, -1)
    with tracer.task("setup"):
        return WORKLOADS[workload](p, seed, sizes)


def run_pass(work, tracer: Tracer, index: int) -> dict:
    """Pass number `index` over the task list.  A task that raises counts
    as one failed check; the pass goes on with the next task."""
    p = Pass(tracer, work.seed, index)
    first_span = len(tracer.spans)
    gc.collect()  # every pass starts from the same heap state
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    for name, task in work.tasks():
        with tracer.task(name):
            try:
                task(p)
            except Exception as exc:  # a failing layer call is a failed check, not a crash
                traceback.print_exc(file=sys.stderr)
                p.check(f"{name} raised {type(exc).__name__}: {exc}", 1.0, 0.0)
    wall = time.perf_counter() - t0
    return {"index": index, "wall_s": wall, "cpu_s": _cpu_s() - cpu0, "checks": p.checks,
            "counts": dict(p.counts), "span_offset": first_span,
            "spans": tracer.spans[first_span:]}


def run_passes(work, seconds: float, traced: Tracer | None) -> list[dict]:
    """Passes until `seconds` have gone by, and at least three.  With a
    tracer, each pass index runs twice, untraced and traced, in alternating
    order, so that both kinds of pass see the same inputs."""
    plain = Tracer(False)
    passes = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        if traced is None:
            tracers = (plain,)
        else:
            tracers = (plain, traced) if index % 2 == 0 else (traced, plain)
        for tracer in tracers:
            result = run_pass(work, tracer, index)
            result["traced"] = tracer.enabled
            passes.append(result)
        index += 1
        if index >= 3 and time.perf_counter() >= deadline:
            return passes


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# per-layer time metrics: the span names whose durations they add up
LAYER_TIMES = {
    "forward_sim.simulate_s": ("forward_sim.simulate",),
    "forward_sim.graph_s": ("forward_sim.simulate_graph",),
    "forward_sim.summary_s": ("forward_sim.compartment_fraction",
                              "forward_sim.historical_measure"),
    "infection_graph.oracle_s": ("infection_graph.brute_force_infection_times",),
    "limit_solver.march_s": ("limit_solver.solve_delay",),
    "limit_solver.picard_s": ("limit_solver.picard_delay",),
    "limit_solver.curve_s": ("limit_solver.compartment_curve",
                             "limit_solver.final_size_settled_contact"),
    "poisson_tree.estimate_B_s": ("poisson_tree.estimate_B",),
    "poisson_tree.first_step_s": ("poisson_tree.conditioned_first_step",),
    "poisson_tree.geodesic_s": ("poisson_tree.sample_geodesic",),
    "backward_chain.h_chains_s": ("backward_chain.sample_h_chains",),
    "backward_chain.h_first_steps_s": ("backward_chain.sample_h_first_steps",),
    "backward_chain.renewal_s": ("backward_chain.martingale_diagnostic",
                                 "backward_chain.survival_representation_check"),
}

# exact counts, straight from the outputs of the calls
LAYER_COUNTS = ("forward_sim.infections", "limit_solver.picard_iterations",
                "poisson_tree.geodesic_nodes", "backward_chain.h_transitions")

# throughputs: (count, time metric); 0 where the layer does no work
LAYER_RATES = {
    "forward_sim.infections_per_s": ("forward_sim.infections", "forward_sim.simulate_s"),
    "limit_solver.march_steps_per_s": ("limit_solver.march_steps", "limit_solver.march_s"),
    "poisson_tree.estimate_B_samples_per_s": ("poisson_tree.estimate_B_samples",
                                              "poisson_tree.estimate_B_s"),
    "poisson_tree.first_step_samples_per_s": ("poisson_tree.first_step_samples",
                                              "poisson_tree.first_step_s"),
    "poisson_tree.geodesic_nodes_per_s": ("poisson_tree.geodesic_nodes",
                                          "poisson_tree.geodesic_s"),
    "backward_chain.h_transitions_per_s": ("backward_chain.h_transitions",
                                           "backward_chain.h_chains_s"),
    "backward_chain.renewal_chains_per_s": ("backward_chain.renewal_chains",
                                            "backward_chain.renewal_s"),
}

# useful outcomes over attempts: (numerator count, denominator count)
LAYER_RATIOS = {
    "poisson_tree.conditioned_ratio": ("poisson_tree.conditioned",
                                       "poisson_tree.first_step_samples"),
    "backward_chain.survival_ratio": ("backward_chain.survivors",
                                      "backward_chain.renewal_chains"),
}


def span_times(spans: list[Span], offset: int) -> dict:
    """Per-pass span totals: time in each layer metric, the tasks' self time
    (the harness's own work between library calls), and the time covered by
    library calls.  `offset` is the index of spans[0] in the tracer."""
    by_name: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            by_name[s.name] = by_name.get(s.name, 0.0) + s.end - s.start
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
    check_s = sum(s.end - s.start - child_time.get(offset + i, 0.0)
                  for i, s in enumerate(spans) if s.parent is None)
    out = {metric: sum(by_name.get(n, 0.0) for n in names)
           for metric, names in LAYER_TIMES.items()}
    out["bench.check_s"] = check_s
    out["busy_s"] = sum(child_time.values())
    return out


def per_layer_metrics(passes: list[dict]) -> dict:
    """Times and throughputs are medians over the traced passes.  Counts and
    ratios are those of pass 0, so they repeat exactly for a seed however
    many passes the run makes.  The tracing overhead is the median, over
    pass indices, of traced over untraced time on the same inputs."""
    traced = [r for r in passes if r["traced"]]
    plain = [r for r in passes if not r["traced"]]
    counts = traced[0]["counts"]
    rows = [span_times(r["spans"], r["span_offset"]) for r in traced]
    med = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    metrics = {k: (med[k], "s") for k in LAYER_TIMES}
    for k in LAYER_COUNTS:
        metrics[k] = (counts.get(k, 0), "count")
    for k, (count, time_metric) in LAYER_RATES.items():
        metrics[k] = (statistics.median(
            r["counts"].get(count, 0) / row[time_metric] if row[time_metric] else 0.0
            for r, row in zip(traced, rows)), "1/s")
    for k, (num, den) in LAYER_RATIOS.items():
        metrics[k] = (counts.get(num, 0) / counts[den] if counts.get(den) else 0.0, "ratio")
    metrics["bench.check_s"] = (med["bench.check_s"], "s")
    metrics["bench.layer_busy_ratio"] = (statistics.median(
        row["busy_s"] / r["wall_s"] for row, r in zip(rows, traced)), "ratio")
    untraced_wall = {r["index"]: r["wall_s"] for r in plain}
    metrics["bench.trace_overhead_ratio"] = (statistics.median(
        r["wall_s"] / untraced_wall[r["index"]] for r in traced), "ratio")
    return metrics


def check_totals(passes: list[dict]) -> tuple[int, int]:
    """(checks attempted, checks failed) over all passes."""
    return (sum(len(r["checks"]) for r in passes),
            sum(not c.passed for r in passes for c in r["checks"]))


def end_to_end_metrics(passes: list[dict], setup_times: list[float]) -> dict:
    plain = [r for r in passes if not r["traced"]]
    attempted, failed = check_totals(passes)
    return {
        "wall_s": (statistics.median(r["wall_s"] for r in plain), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in plain), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "passed_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def check_records(passes: list[dict]) -> list[dict]:
    """Every check of every pass, with its value next to its band."""
    return [{"pass": r["index"], "traced": r["traced"], **asdict(c), "passed": c.passed}
            for r in passes for c in r["checks"]]
