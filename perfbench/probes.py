"""Span probes: the benchmark's own wrappers around each layer's entry points.

The program under test is not modified.  :class:`Probe` replaces each
entry point in :data:`ENTRY_POINTS` (a module function or a class
method, looked up where its callers find it) with a wrapper that opens
a :class:`repro.telemetry.Tracer` span around the call, records it in an
in-memory :class:`repro.telemetry.SpanRecorder`, and restores the
original on exit.  Spans nest per thread, so
:func:`repro.telemetry.summary.self_times` turns them into per-layer
self times; :func:`layer_metrics` reduces those to the per-layer
metrics of :mod:`perfbench.catalogue`.

Every span carries the ``phase`` (``setup`` or ``measure``) the run was
in when it opened.  A workload whose expected entry point recorded no
span fails the traced run (:func:`require_spans`): a renamed entry
point is caught instead of read as zero.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import JsonlSpanSink, SpanRecorder, Tracer
from repro.telemetry.summary import self_times

from perfbench.catalogue import PAPER, READ, WRITE
from perfbench.report import Value, mean, median

SpanDict = Dict[str, object]
#: ``(span, args, result)`` — copies counts from a call's result onto its span.
Annotate = Callable[[object, tuple, object], None]


def _operator_nnz(span, args, result) -> None:
    span.set("nnz", int(result.nnz))


def _push_counts(span, args, result) -> None:
    span.set("pushes", int(result.num_pushes))
    span.set("rounds", int(result.num_rounds or 0))


def _epochs(span, args, result) -> None:
    span.set("epochs", int(result.num_epochs))


def _row_pushes(span, args, result) -> None:
    span.set("pushes", int(result[0].num_pushes) if result else 0)


def _repair_pushes(span, args, result) -> None:
    span.set("pushes", int(result.num_pushes))


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped call site: ``module.attr`` or ``module.Class.method``."""

    span: str
    module: str
    attr: str
    annotate: Optional[Annotate] = None

    def owner_and_name(self) -> Tuple[object, str]:
        owner: object = importlib.import_module(self.module)
        *path, name = self.attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("datasets.load", "repro.datasets.registry", "load_dataset"),
    EntryPoint("api.run", "repro.api", "run"),
    EntryPoint("models.create", "repro.training.evaluation", "create_model"),
    EntryPoint("simrank.precompute", "repro.models.sigma", "simrank_operator",
               _operator_nnz),
    EntryPoint("simrank.localpush", "repro.simrank.topk", "localpush_simrank",
               _push_counts),
    EntryPoint("propagation.forward", "repro.propagation.sparse_ops",
               "SparsePropagation.forward"),
    EntryPoint("propagation.backward", "repro.propagation.sparse_ops",
               "SparsePropagation.backward"),
    EntryPoint("training.fit", "repro.training.trainer", "Trainer.fit",
               _epochs),
    EntryPoint("serve.submit", "repro.serve.batching", "QueryBatcher.submit"),
    EntryPoint("serve.topk_batch", "repro.serve.service",
               "SimRankService.topk_batch"),
    EntryPoint("serve.score", "repro.serve.service", "SimRankService.score"),
    EntryPoint("simrank.rows", "repro.simrank.engine",
               "multi_source_localpush", _row_pushes),
    EntryPoint("serve.update", "repro.serve.service",
               "SimRankService.apply_update"),
    EntryPoint("graphs.apply_delta", "repro.graphs.graph", "Graph.apply_delta"),
    EntryPoint("dynamic.build", "repro.dynamic.operator",
               "DynamicOperator.__init__"),
    EntryPoint("dynamic.apply", "repro.dynamic.operator",
               "DynamicOperator.apply", _repair_pushes),
    EntryPoint("dynamic.rounds", "repro.dynamic.operator", "resume_localpush"),
    EntryPoint("cache.store_delta", "repro.simrank.cache",
               "OperatorCache.store_delta"),
)

_SERVE_SPANS = ("datasets.load", "serve.submit", "serve.topk_batch",
                "serve.score", "simrank.rows")

#: Span names each workload must record at least once in a traced run.
EXPECTED_SPANS: Dict[str, Tuple[str, ...]] = {
    PAPER: ("datasets.load", "api.run", "models.create",
            "simrank.precompute", "simrank.localpush", "propagation.forward",
            "propagation.backward", "training.fit"),
    READ: _SERVE_SPANS,
    WRITE: _SERVE_SPANS + ("serve.update", "graphs.apply_delta",
                           "dynamic.build", "dynamic.apply", "dynamic.rounds",
                           "cache.store_delta"),
}


class Probe:
    """Wraps every entry point in spans while installed."""

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.recorder = SpanRecorder(max_spans=max_spans)
        self.tracer = Tracer([self.recorder])
        self.phase = "setup"
        self._saved: List[Tuple[object, str, object]] = []

    def _wrap(self, point: EntryPoint, original: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with tracer.span(point.span, phase=self.phase) as span:
                result = original(*args, **kwargs)
                if point.annotate is not None:
                    point.annotate(span, args, result)
                return result

        return traced

    def install(self, phase: str) -> "Probe":
        """Wrap every entry point; spans opened now carry ``phase``."""
        self.phase = phase
        for point in ENTRY_POINTS:
            owner, name = point.owner_and_name()
            original = vars(owner)[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(point, original))
        return self

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def spans(self) -> List[SpanDict]:
        if self.recorder.dropped:
            raise RuntimeError(f"span recorder dropped "
                               f"{self.recorder.dropped} spans")
        return self.recorder.spans()

    def write_jsonl(self, path: str) -> None:
        """Write every recorded span once, as ``repro-trace`` JSONL."""
        sink = JsonlSpanSink(path)
        try:
            for span in self.spans():
                sink.write(span)
        finally:
            sink.close()


def require_spans(workload: str, spans: Sequence[SpanDict]) -> None:
    """Fail when an entry point ``workload`` exercises recorded nothing."""
    seen = {span["name"] for span in spans}
    missing = [name for name in EXPECTED_SPANS[workload] if name not in seen]
    if missing:
        raise RuntimeError(
            f"traced {workload} run recorded no span for {missing}: an "
            f"entry point was renamed or bypassed")


@dataclass
class SpanTable:
    """Spans grouped by name, with self times, for the metric reductions."""

    spans: Sequence[SpanDict]

    def __post_init__(self) -> None:
        self.selves = self_times(list(self.spans))
        self.by_id = {span["span_id"]: span for span in self.spans}

    def named(self, name: str, phase: Optional[str] = "measure",
              parent: Optional[str] = None) -> List[SpanDict]:
        out = []
        for span in self.spans:
            if span["name"] != name:
                continue
            if phase is not None and span["attributes"].get("phase") != phase:
                continue
            if parent is not None:
                up = self.by_id.get(span["parent_id"])
                if up is None or up["name"] != parent:
                    continue
            out.append(span)
        return out

    def total(self, spans: Sequence[SpanDict]) -> float:
        return sum(float(span["duration"]) for span in spans)

    def self_total(self, spans: Sequence[SpanDict]) -> float:
        return sum(self.selves[span["span_id"]] for span in spans)

    def attr_total(self, spans: Sequence[SpanDict], key: str) -> float:
        return sum(float(span["attributes"][key]) for span in spans)


def layer_metrics(spans: Sequence[SpanDict], *,
                  client_read_seconds: Sequence[float],
                  counters: Dict[str, float],
                  writer_late: Sequence[float]) -> Dict[str, Value]:
    """Every per-layer metric of :mod:`perfbench.catalogue`, by name.

    ``counters`` are the daemon's ``/metrics`` counter deltas over the
    traced window, ``client_read_seconds`` the client latencies of the
    window's reads and ``writer_late`` the writer's lateness samples.
    A layer the workload does not exercise reports ``0.0`` with ``n=0``.
    """
    table = SpanTable(spans)
    named = table.named
    out: Dict[str, Value] = {}

    # Set-up's own generation calls; the paper warm-up cell's memo hit
    # runs inside api.run.
    loads = [span for span in named("datasets.load", phase="setup")
             if span["parent_id"] is None]
    out["datasets.load_s"] = mean(table.total(loads), len(loads))

    cells = named("api.run")
    precomputes = named("simrank.precompute")
    out["simrank.precompute_s"] = mean(table.total(precomputes),
                                       len(precomputes))
    pushes = named("simrank.localpush")
    out["simrank.pushes"] = mean(table.attr_total(pushes, "pushes"),
                                 len(pushes))
    out["simrank.rounds"] = mean(table.attr_total(pushes, "rounds"),
                                 len(pushes))
    out["simrank.operator_nnz"] = mean(table.attr_total(precomputes, "nnz"),
                                       len(precomputes))
    builds = named("models.create")
    out["models.build_s"] = mean(table.self_total(builds), len(builds))
    propagation = named("propagation.forward") + named("propagation.backward")
    out["propagation.aggregate_s"] = mean(table.total(propagation),
                                          len(cells))
    fits = named("training.fit")
    epochs = table.attr_total(fits, "epochs")
    out["training.epochs"] = mean(epochs, len(fits))
    out["training.epoch_ms"] = Value(
        1000.0 * table.self_total(fits) / epochs if epochs else 0.0,
        int(epochs))

    rows = named("simrank.rows")
    out["simrank.rows_ms"] = mean(1000.0 * table.total(rows), len(rows))
    out["simrank.row_pushes"] = mean(table.attr_total(rows, "pushes"),
                                     len(rows))
    submits = named("serve.submit")
    scores = named("serve.score")
    served = named("serve.topk_batch") + scores
    reads = len(client_read_seconds)
    out["serve.http_ms"] = mean(
        1000.0 * (sum(client_read_seconds)
                  - table.total(submits) - table.total(scores)), reads)
    out["serve.batcher_wait_ms"] = mean(1000.0 * table.self_total(submits),
                                        len(submits))
    out["serve.service_ms"] = mean(1000.0 * table.self_total(served),
                                   len(served))
    queries = counters.get("queries", 0.0)
    batches = counters.get("batches", 0.0)
    exact = counters.get("exact_served", 0.0)
    out["serve.batch_size"] = Value(exact / batches if batches else 0.0,
                                    int(batches))
    for name, counter in (("serve.coalesced_frac", "coalesced"),
                          ("serve.exact_frac", "exact_served"),
                          ("serve.stale_frac", "stale_served")):
        out[name] = Value(counters.get(counter, 0.0) / queries
                          if queries else 0.0, int(queries))
    out["serve.cached_served"] = Value(
        float(counters.get("cached_served", 0.0)), int(queries))

    updates = named("serve.update")
    out["serve.update_ms"] = mean(1000.0 * table.self_total(updates),
                                  len(updates))
    deltas = named("graphs.apply_delta")
    out["graphs.apply_delta_ms"] = mean(1000.0 * table.total(deltas),
                                        len(deltas))
    dyn_builds = named("dynamic.build", phase="setup")
    out["dynamic.build_s"] = mean(table.total(dyn_builds), len(dyn_builds))
    applies = named("dynamic.apply")
    out["dynamic.apply_ms"] = mean(1000.0 * table.self_total(applies),
                                   len(applies))
    rounds = named("dynamic.rounds", parent="dynamic.apply")
    out["dynamic.rounds_ms"] = mean(1000.0 * table.total(rounds), len(rounds))
    out["dynamic.pushes"] = mean(table.attr_total(applies, "pushes"),
                                 len(applies))
    stores = named("cache.store_delta")
    out["cache.store_ms"] = mean(1000.0 * table.total(stores), len(stores))
    out["cache.stores"] = Value(float(len(stores)), len(stores))
    out["load.writer_late_p50_ms"] = median(writer_late, 1000.0) \
        if writer_late else Value(0.0, 0)
    out["load.writer_late_max_ms"] = Value(
        1000.0 * max(writer_late) if writer_late else 0.0, len(writer_late))
    return out


__all__ = ["Probe", "ENTRY_POINTS", "EXPECTED_SPANS", "EntryPoint",
           "require_spans", "layer_metrics"]
