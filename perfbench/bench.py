"""One benchmark run: repeated set-up, measured window(s), check, metrics.

``--trace 0`` sets up the workload's ``setup_repeats`` times (keeping the
last; ``setup_s`` is their median), warms up for
:data:`WARMUP_SECONDS` untimed, measures one window with
tracing off and reports the end-to-end metrics.  ``--trace 1`` traces
the last set-up, warms up, measures half the time untraced and half
traced, reports the per-layer metrics from the traced half's spans, and
prints the traced-minus-untraced difference of every end-to-end metric
as the tracing overhead.  Warm-up operations count as attempted and can
fail the run, but are in no metric.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from perfbench.catalogue import GATED, PER_LAYER, unit_of
from perfbench.probes import Probe, layer_metrics, require_spans
from perfbench.report import (Value, format_overhead, format_table, metadata,
                              peak_rss_mb)
from perfbench.workloads import end_to_end, make_workload
from repro.telemetry import format_summary, load_trace

#: Untimed operations between set-up and the window.  On a shared 2-vCPU
#: cloud VM, plain Python ran ~40% slower for up to ~20 s after an idle
#: spell, and the first paper cells of a process were the slowest.
WARMUP_SECONDS = 3.0


@dataclass
class Outcome:
    """Everything one run produced."""

    attempted: int
    failed: int
    metrics: Dict[str, Value]
    report: Dict[str, object]
    lines: List[str] = field(default_factory=list)

    def result_line(self) -> Dict[str, object]:
        """The final stdout line: the gated or the per-layer metrics."""
        names = PER_LAYER if self.report["trace"] else GATED
        metrics = {}
        for name in names:
            value = self.metrics[name].value
            if value is None:
                raise RuntimeError(f"{name} has no value: nothing completed")
            metrics[name] = {"value": value, "unit": unit_of(name)}
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _values(values: Dict[str, Value]) -> Dict[str, Dict[str, object]]:
    return {name: value.to_dict(unit_of(name))
            for name, value in values.items()}


def run(name: str, seed: int, seconds: float, trace: bool, out_dir: str,
        malloc_arena_max: Optional[int] = None) -> Outcome:
    """Run workload ``name`` once and return its outcome.

    ``malloc_arena_max`` is the allocator cap the caller set, recorded in
    the report.
    """
    began = time.perf_counter()
    os.makedirs(out_dir, exist_ok=True)
    workload = make_workload(name, seed, out_dir, seconds)
    probe = Probe() if trace else None
    setup_seconds: List[float] = []
    try:
        for attempt in range(workload.setup_repeats):
            last = attempt == workload.setup_repeats - 1
            if last and probe is not None:
                probe.install("setup")
            start = time.perf_counter()
            workload.setup(keep=last)
            setup_seconds.append(time.perf_counter() - start)
            if probe is not None:
                probe.uninstall()
            if not last:
                workload.teardown()
        warm = workload.warm_up(WARMUP_SECONDS)
        if probe is None:
            windows = [workload.measure(seconds)]
            rss = [peak_rss_mb()]
        else:
            windows = [workload.measure(seconds / 2)]
            rss = [peak_rss_mb()]
            probe.install("measure")
            windows.append(workload.measure(seconds / 2))
            probe.uninstall()
            rss.append(peak_rss_mb())
        check = workload.check()
    finally:
        if probe is not None:
            probe.uninstall()
        workload.teardown()

    attempted = (warm.attempted + sum(w.attempted for w in windows)
                 + check.attempted)
    failures = ([f for w in [warm] + windows for f in w.failures]
                + check.failures)
    failed = len(failures)
    report: Dict[str, object] = metadata(
        workload=name, seed=seed, seconds=seconds, trace=int(trace),
        load_threads=workload.load_threads,
        malloc_arena_max=malloc_arena_max)
    report.update(attempted=attempted, failed=failed,
                  failures=failures[:20],
                  answers_checked=check.compared,
                  setup_seconds=setup_seconds,
                  warmup=dict(seconds=warm.seconds, ops=warm.ops),
                  wall_seconds=time.perf_counter() - began)
    lines = [f"workload {name}  seed {seed}  seconds {seconds:g}  "
             f"trace {int(trace)}  attempted {attempted}  failed {failed}  "
             f"answers checked {check.compared}",
             f"cpu_count {report['cpu_count']}  load threads "
             f"{workload.load_threads}  python {report['python']}  numpy "
             f"{report['numpy']}  scipy {report['scipy']}  blas "
             f"{json.dumps(report['blas'], sort_keys=True)}  malloc arenas "
             f"{malloc_arena_max}"]

    if probe is None:
        metrics = end_to_end(workload, windows[0], setup_seconds, rss[0],
                             check.attempted, len(check.failures))
        report["end_to_end"] = _values(metrics)
        lines += format_table("end-to-end (tracing off)", metrics)
    else:
        untraced = end_to_end(workload, windows[0], setup_seconds[:-1], rss[0])
        traced = end_to_end(workload, windows[1], setup_seconds[-1:], rss[1])
        spans = probe.spans()
        require_spans(name, spans)
        metrics = layer_metrics(
            spans, client_read_seconds=windows[1].samples.get("read", []),
            counters=windows[1].counters,
            writer_late=windows[1].samples.get("late", []))
        trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.jsonl")
        if os.path.exists(trace_path):
            os.remove(trace_path)
        probe.write_jsonl(trace_path)
        reread = load_trace(trace_path)  # what python -m repro.telemetry reads
        report.update(end_to_end_untraced=_values(untraced),
                      end_to_end_traced=_values(traced),
                      per_layer=_values(metrics), trace_path=trace_path,
                      spans=len(reread))
        lines += format_table("per-layer (traced half)", metrics)
        lines += format_overhead(untraced, traced)
        lines += ["", f"trace: {trace_path} ({len(reread)} spans)",
                  format_summary(reread, limit=5)]

    report_path = os.path.join(
        out_dir, f"report-{name}-seed{seed}-trace{int(trace)}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    lines.append(f"report: {report_path}")
    return Outcome(attempted=attempted, failed=failed, metrics=metrics,
                   report=report, lines=lines)


__all__ = ["run", "Outcome", "WARMUP_SECONDS"]
