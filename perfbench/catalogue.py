"""Every metric the benchmark reports: unit, direction, workloads, and effect.

``BENCHMARK.json`` holds only what its schema allows (name, unit,
direction, and a bound for the gated end-to-end metrics); this module
is the full register.  It adds the workloads each metric applies to
and, for each per-layer metric, the end-to-end metrics (and workloads)
it should move.  Every other workload should show no change.

The gated end-to-end metrics must be defined, and non-zero, on every
workload, so the workload-specific user metrics are gated through two
uniform ones: ``op_p50_ms`` is the median latency of the workload's
headline operation (a paper cell, a read, an update) and ``ops_per_s``
counts the user-visible operations completed per measured second.  The
workload-specific metrics (``cell_s``, ``qps``, ``query_p95_ms``,
``repair_p90_ms``, ...) are printed by name in every run's report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

PAPER = "paper-pokec"
READ = "serve-read"
WRITE = "serve-write"
WORKLOADS = (PAPER, READ, WRITE)
SERVE = (READ, WRITE)

#: What each workload is and why it was chosen (``BENCHMARK.json``'s ``why``).
WHY = {
    PAPER: "repro.api.run of one fixed SIGMA cell: pokec at 2000 nodes, "
           "LocalPush eps 0.02, top-k 32, cold precompute, 60 epochs; "
           "precompute and training both show; headline op: the cell",
    READ: "in-process daemon on a fixed 2000-node pokec graph, 2 closed-loop "
          "readers, seeded Zipf(1.1) sources, 80% /topk 20% /score: HTTP, "
          "coalescing, query rounds, no repair; headline op: a read",
    WRITE: "same daemon and mix from 1 reader beside an open-loop writer of "
           "seeded 4-edit /update batches at 4/s with wait: the only repair "
           "and chain-store load; headline op: an update",
}


@dataclass(frozen=True)
class Metric:
    """One reported metric."""

    unit: str
    better: str
    workloads: Tuple[str, ...]
    meaning: str
    #: ``((end-to-end metric, workload), ...)`` a per-layer metric moves.
    moves: Tuple[Tuple[str, str], ...] = ()


def _moves(*pairs: str) -> Tuple[Tuple[str, str], ...]:
    """``"metric@workload"`` strings to pairs."""
    out = []
    for pair in pairs:
        metric, _, workload = pair.partition("@")
        out.append((metric, workload))
    return tuple(out)


#: The gated end-to-end metrics (``BENCHMARK.json``'s ``end_to_end``),
#: defined on every workload.
GATED = ("setup_s", "peak_rss_mb", "op_p50_ms", "ops_per_s")

#: Bound per gated metric: the share of the parent's median by which it
#: may get worse before a change counts as a regression.  The timings get
#: the widest bound allowed: on a shared 2-vCPU host the speed of plain
#: single-threaded Python moves by ±20% from one 2-second slice to the
#: next, and by more over minutes, so whole runs shift.  Peak memory does
#: not follow the host and keeps a tighter bound.
BOUNDS = {"setup_s": 0.25, "peak_rss_mb": 0.2, "op_p50_ms": 0.25,
          "ops_per_s": 0.25}

#: Length of one measured window in seconds (``BENCHMARK.json``'s
#: ``run_seconds``).  With start-up, set-ups and warm-up a run takes
#: 44-49 s on ``paper-pokec`` and 37-41 s on the serve workloads (2
#: vCPUs), so the 70 runs of three workloads need ~49 min.
RUN_SECONDS = 30

END_TO_END: Dict[str, Metric] = {
    "setup_s": Metric(
        "s", "lower", WORKLOADS,
        "median over repeated set-ups: dataset generation, daemon bind, "
        "warm-up reads, the warm-up update on serve-write and the warm-up "
        "cell on paper-pokec (the untimed warm-up window is not in it)"),
    "peak_rss_mb": Metric(
        "MB", "lower", WORKLOADS, "the process's high-water resident memory"),
    "op_p50_ms": Metric(
        "ms", "lower", WORKLOADS,
        "median latency of the headline operation: cell_s on paper-pokec, "
        "query_p50_ms on serve-read, repair_p50_ms on serve-write"),
    "ops_per_s": Metric(
        "1/s", "higher", WORKLOADS,
        "user-visible operations completed per measured second: cells on "
        "paper-pokec, reads on serve-read, reads plus updates on "
        "serve-write"),
    "fail_frac": Metric(
        "ratio", "lower", WORKLOADS,
        "failed over attempted operations (a non-200, a non-exact path, an "
        "answer failing its check, an exception or a non-finite accuracy)"),
    "cell_s": Metric(
        "s", "lower", (PAPER,),
        "wall time of repro.api.run(spec) with the dataset memo warm"),
    "test_acc": Metric(
        "ratio", "higher", (PAPER,), "summary.mean_accuracy of the cell"),
    "qps": Metric(
        "1/s", "higher", SERVE, "completed reads per measured second"),
    "query_p50_ms": Metric(
        "ms", "lower", SERVE, "median read latency seen by the client"),
    "query_p95_ms": Metric(
        "ms", "lower", SERVE, "p95 read latency seen by the client"),
    "repair_p50_ms": Metric(
        "ms", "lower", (WRITE,),
        "median time from an update's due instant to its response"),
    "repair_p90_ms": Metric(
        "ms", "lower", (WRITE,),
        "p90 time from an update's due instant to its response"),
}

PER_LAYER: Dict[str, Metric] = {
    "datasets.load_s": Metric(
        "s", "lower", WORKLOADS,
        "load_dataset span, set-up generation calls",
        _moves("setup_s@paper-pokec", "setup_s@serve-read",
               "setup_s@serve-write")),
    "simrank.precompute_s": Metric(
        "s", "lower", (PAPER,), "simrank_operator as SIGMA calls it",
        _moves("cell_s@paper-pokec", "peak_rss_mb@paper-pokec",
               "setup_s@paper-pokec")),
    "simrank.pushes": Metric(
        "count", "lower", (PAPER,), "LocalPushResult.num_pushes",
        _moves("cell_s@paper-pokec")),
    "simrank.rounds": Metric(
        "count", "lower", (PAPER,), "LocalPushResult.num_rounds",
        _moves("cell_s@paper-pokec")),
    "simrank.operator_nnz": Metric(
        "count", "lower", (PAPER,), "stored entries of the SIGMA operator",
        _moves("cell_s@paper-pokec")),
    "models.build_s": Metric(
        "s", "lower", (PAPER,), "create_model self time (minus precompute)",
        _moves("cell_s@paper-pokec")),
    "propagation.aggregate_s": Metric(
        "s", "lower", (PAPER,),
        "SparsePropagation.forward plus backward, summed per cell",
        _moves("cell_s@paper-pokec", "setup_s@paper-pokec")),
    "training.epochs": Metric(
        "count", "lower", (PAPER,), "epochs Trainer.fit ran per cell",
        _moves("cell_s@paper-pokec")),
    "training.epoch_ms": Metric(
        "ms", "lower", (PAPER,), "Trainer.fit self time per epoch",
        _moves("cell_s@paper-pokec", "setup_s@paper-pokec")),
    "simrank.rows_ms": Metric(
        "ms", "lower", SERVE, "multi_source_localpush per shared exact batch",
        _moves("query_p50_ms@serve-read", "qps@serve-read",
               "query_p50_ms@serve-write", "qps@serve-write")),
    "simrank.row_pushes": Metric(
        "count", "lower", SERVE,
        "pushes per shared exact batch (depends on batch composition)",
        _moves("query_p50_ms@serve-read", "qps@serve-read")),
    "serve.http_ms": Metric(
        "ms", "lower", SERVE,
        "client latency minus QueryBatcher.submit or SimRankService.score: "
        "HTTP parsing, thread per connection, JSON encoding",
        _moves("query_p50_ms@serve-read", "query_p50_ms@serve-write")),
    "serve.batcher_wait_ms": Metric(
        "ms", "lower", SERVE,
        "QueryBatcher.submit self time: batch window plus waiting on the "
        "leader", _moves("query_p50_ms@serve-read")),
    "serve.service_ms": Metric(
        "ms", "lower", SERVE,
        "SimRankService.topk_batch or score self time: query-lock wait, "
        "ladder, entry sort",
        _moves("query_p95_ms@serve-write", "query_p95_ms@serve-read")),
    "serve.batch_size": Metric(
        "count", "higher", SERVE, "/metrics exact_served per batch",
        _moves("qps@serve-read")),
    "serve.coalesced_frac": Metric(
        "ratio", "higher", SERVE, "/metrics coalesced per query",
        _moves("qps@serve-read")),
    "serve.exact_frac": Metric(
        "ratio", "higher", SERVE,
        "/metrics exact_served per query (exact_served counts distinct "
        "sources of a batch)", _moves("qps@serve-read")),
    "serve.stale_frac": Metric(
        "ratio", "lower", SERVE, "/metrics stale_served per query",
        _moves("query_p95_ms@serve-write")),
    "serve.cached_served": Metric(
        "count", "higher", SERVE,
        "/metrics cached_served in the window, beside cache.stores",
        _moves("query_p50_ms@serve-write")),
    "serve.update_ms": Metric(
        "ms", "lower", (WRITE,),
        "SimRankService.apply_update self time: eager validation and the "
        "lock waits of the swap", _moves("repair_p50_ms@serve-write")),
    "graphs.apply_delta_ms": Metric(
        "ms", "lower", (WRITE,), "Graph.apply_delta",
        _moves("repair_p50_ms@serve-write")),
    "dynamic.build_s": Metric(
        "s", "lower", (WRITE,),
        "DynamicOperator constructor wall time (warm-up update in set-up)",
        _moves("setup_s@serve-write")),
    "dynamic.apply_ms": Metric(
        "ms", "lower", (WRITE,),
        "DynamicOperator.apply self time: residual seeding, estimate merge, "
        "snapshot",
        _moves("repair_p50_ms@serve-write", "repair_p90_ms@serve-write",
               "query_p95_ms@serve-write")),
    "dynamic.rounds_ms": Metric(
        "ms", "lower", (WRITE,), "resume_localpush inside apply",
        _moves("repair_p50_ms@serve-write")),
    "dynamic.pushes": Metric(
        "count", "lower", (WRITE,), "RepairResult.num_pushes per repair",
        _moves("repair_p50_ms@serve-write")),
    "cache.store_ms": Metric(
        "ms", "lower", (WRITE,), "OperatorCache.store_delta, once per repair",
        _moves("repair_p50_ms@serve-write")),
    "cache.stores": Metric(
        "count", "lower", (WRITE,), "store_delta calls in the window",
        _moves("repair_p50_ms@serve-write")),
    "load.writer_late_p50_ms": Metric(
        "ms", "lower", (WRITE,),
        "median lateness of the open-loop writer behind its schedule",
        _moves("repair_p50_ms@serve-write")),
    "load.writer_late_max_ms": Metric(
        "ms", "lower", (WRITE,),
        "largest lateness of the open-loop writer behind its schedule",
        _moves("repair_p90_ms@serve-write")),
}


def unit_of(name: str) -> str:
    """The unit of any registered metric."""
    return (END_TO_END.get(name) or PER_LAYER[name]).unit


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document this register implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WHY[name]} for name in WORKLOADS],
        "end_to_end": [{"name": name, "unit": END_TO_END[name].unit,
                        "better": END_TO_END[name].better,
                        "bound": BOUNDS[name]} for name in GATED],
        "per_layer": [{"name": name, "unit": metric.unit,
                       "better": metric.better}
                      for name, metric in PER_LAYER.items()],
    }


__all__ = ["Metric", "END_TO_END", "PER_LAYER", "GATED", "BOUNDS",
           "RUN_SECONDS", "WHY",
           "WORKLOADS", "PAPER", "READ", "WRITE", "SERVE", "benchmark_json",
           "unit_of"]
