"""The serving core: single-source queries behind a degradation ladder.

:class:`SimRankService` answers ``topk``/``score`` queries against one
long-lived graph.  Every query walks the same three-rung ladder:

1. **exact** — the single-source LocalPush engine at the configured ε,
   admission-controlled by ``ServeConfig.max_pushes_per_query`` (the
   engine raises past the cap) and ``ServeConfig.time_budget_seconds``
   (a completed answer that took longer is discarded as over-budget).
2. **cached** — any dominating all-pairs operator-cache entry serves the
   row via :meth:`repro.simrank.cache.OperatorCache.lookup_row`, with no
   push work at all.
3. **degraded** — a looser-ε recompute at
   ``ε × ServeConfig.degraded_epsilon_factor``; cheap because the push
   threshold ``(1−c)·ε`` grows with ε.

Only when the last rung fails does the query raise
:class:`repro.errors.ServeError`; every earlier failure falls through
and is recorded in the per-path counters (see :class:`ServiceCounters`).
The ``compute_exact``/``compute_degraded`` callables are injectable so
the fault-injection suite can force any rung to fail.

This module is in the R3 determinism lint scope: given one service
instance, equal queries return bit-identical answers regardless of
batch composition (the engine guarantee) — no wall-clock reads, global
RNG or unordered-set iteration may influence an answer.  The latency
metrics below read the *monotonic* clock (R3-exempt) and feed only the
observability payloads, never an answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from threading import Lock, Thread
from time import monotonic
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np
import scipy.sparse as sp

from repro.config import DynamicConfig, ServeConfig, SimRankConfig
from repro.errors import GraphError, ServeError, SimRankError
from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.dynamic.operator import DynamicOperator, RepairResult
    from repro.graphs.delta import Updates
    from repro.simrank.cache import OperatorCache
    from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
    from repro.telemetry.runtime import Telemetry

#: The ladder rungs, in fall-through order; every answer names its rung.
SERVE_PATHS = ("exact", "cached", "degraded")

#: Injectable row computation: ``(sources, top_k, epsilon) -> {source: row}``
#: where each row is a ``1×n`` CSR matrix.
RowCompute = Callable[[Sequence[int], Optional[int], float],
                      Dict[int, sp.csr_matrix]]

#: Registry help strings for the twelve service counters, in the
#: ``ServiceCounters.to_dict`` key order.
_COUNTER_HELP = {
    "queries": "Total queries answered.",
    "batches": "Shared exact frontier rounds executed.",
    "coalesced": "Queries that shared their exact round with another.",
    "exact_served": "Queries answered by the exact rung.",
    "cached_served": "Queries answered from a cached operator row.",
    "degraded_served": "Queries answered at the degraded epsilon.",
    "failed": "Queries for which every serving rung failed.",
    "exact_failures": "Queries whose exact rung faulted.",
    "budget_overruns": "Exact answers discarded as over the time budget.",
    "updates_applied": "Update batches whose incremental repair landed.",
    "repair_seconds": "Cumulative wall seconds of landed repairs.",
    "stale_served": "Queries answered while a repair was in flight.",
}


#: The :meth:`repro.simrank.cache.OperatorCache.stats` names in the
#: ``/metrics`` ``cache`` section.
_CACHE_SECTION = ("hits", "exact_hits", "reuse_hits", "misses", "row_hits",
                  "row_misses", "stores")


def _serve_metric_name(name: str) -> str:
    """Prometheus name for one service counter (``repro_serve_...``)."""
    if name.endswith("_seconds"):
        return f"repro_serve_{name}"
    return f"repro_serve_{name}_total"


@dataclass
class QueryAnswer:
    """One answered ``topk`` query: the entries plus serving provenance."""

    source: int
    k: Optional[int]
    entries: List[Tuple[int, float]]
    path: str
    epsilon: float
    elapsed_seconds: float
    batch_size: int = 1


@dataclass
class ScoreAnswer:
    """One answered single-pair query."""

    u: int
    v: int
    value: float
    path: str
    epsilon: float
    elapsed_seconds: float


class ServiceCounters:
    """Per-path query accounting (all counts are *queries*, not batches).

    ``queries`` is the total answered; each one is also counted in
    exactly one of ``exact_served``/``cached_served``/``degraded_served``
    or ``failed`` — a source repeated within one coalesced batch shares
    its computed row but is counted once per query, so ``queries ==
    exact_served + cached_served + degraded_served`` holds for every
    batch composition.  ``exact_failures`` counts queries whose exact rung
    faulted (admission cap or injected error) and ``budget_overruns``
    those whose completed exact answer was discarded for exceeding the
    time budget — both then fell through the ladder.  ``batches`` counts
    shared exact frontier rounds and ``coalesced`` the queries that
    shared their round with at least one other query.

    The dynamic-update integration adds ``updates_applied`` (update
    batches whose repair landed), ``repair_seconds`` (cumulative wall
    time those repairs took — the only non-integer counter) and
    ``stale_served`` (queries answered from the pre-update graph while a
    repair was still in flight — the documented freshness trade of
    background repair, see :meth:`SimRankService.apply_update`).

    Latency
    -------
    :meth:`record_latency` observes each answered query's wall seconds
    on the ``repro_serve_latency_seconds{path}``
    :class:`repro.telemetry.metrics.Histogram` of the same registry
    (:data:`repro.telemetry.metrics.DEFAULT_BUCKETS`).
    :meth:`latency_summary` reads the ``/metrics`` latency section back
    from it: per path the ``count`` and the p50/p95/p99 seconds
    interpolated from the buckets (:meth:`Histogram.quantile`, the
    Prometheus ``histogram_quantile`` rule) over every query since the
    service started — ``window_size`` is ``None`` to say so — plus
    queries-per-second over the span from the first to the last
    answered query.  Latency is observability only — it never
    influences an answer (see the module docstring's R3 note).

    Thread safety
    -------------
    Every count is backed by a
    :class:`repro.telemetry.metrics.MetricsRegistry` counter named
    ``repro_serve_<name>_total`` (``repro_serve_repair_seconds`` for the
    one non-count sum), so increments and latency observations are
    atomic under the registry's lock and survive the daemon's
    thread-per-request server without lost updates; only the qps span's
    two instants have a small lock of their own.  Mutate through
    :meth:`inc` — the old bare integer attributes are gone precisely
    because ``+=`` on them was a read-modify-write race.
    """

    #: The twelve counter names, in ``to_dict`` key order.
    NAMES = tuple(_COUNTER_HELP)

    def __init__(self, registry: Optional["MetricsRegistry"] = None) -> None:
        if registry is None:
            from repro.telemetry.metrics import MetricsRegistry

            registry = MetricsRegistry()
        self.registry = registry
        self._counters: Dict[str, "Counter"] = {
            name: registry.counter(_serve_metric_name(name),
                                   _COUNTER_HELP[name])
            for name in self.NAMES}
        self._latency: "Histogram" = registry.histogram(
            "repro_serve_latency_seconds",
            "Answered-query latency per serving path.")
        self._span_lock = Lock()
        self._first_query_at: Optional[float] = None
        self._last_query_at: Optional[float] = None

    def inc(self, name: str, amount: float = 1.0) -> None:
        """Atomically add ``amount`` to counter ``name``."""
        self._counters[name].inc(amount)

    def value(self, name: str) -> float:
        """Current value of counter ``name``."""
        return self._counters[name].value()

    def record_latency(self, path: str, seconds: float) -> None:
        """Record one answered query's wall time under its serving path."""
        self._latency.observe(seconds, path=path)
        now = monotonic()
        with self._span_lock:
            if self._first_query_at is None:
                self._first_query_at = now
            self._last_query_at = now

    def qps(self) -> Optional[float]:
        """Answered queries per second across the first-to-last span.

        ``None`` until two distinct instants exist.
        """
        with self._span_lock:
            first, last = self._first_query_at, self._last_query_at
        if first is None or last is None or last <= first:
            return None
        answered = sum(entry.count
                       for entry in self._latency.series().values())
        return answered / (last - first)

    def latency_summary(self) -> Dict[str, object]:
        """The ``/metrics`` latency section, read from the histogram.

        ``paths`` maps every serving path to ``None`` (no queries yet) or
        to its ``count`` plus ``p50/p95/p99_seconds`` interpolated from
        the latency buckets over every query since start
        (``window_size`` is ``None``: there is no rolling window);
        ``qps`` is :meth:`qps`.
        """
        series = self._latency.series()
        paths: Dict[str, Optional[Dict[str, object]]] = {}
        for path in SERVE_PATHS:
            entry = series.get((("path", path),))
            if entry is None:
                paths[path] = None
                continue
            paths[path] = {"count": entry.count, **{
                f"p{percent}_seconds": self._latency.quantile(percent / 100,
                                                              path=path)
                for percent in (50, 95, 99)}}
        return {"paths": paths, "qps": self.qps(), "window_size": None}

    def to_dict(self) -> Dict[str, float]:
        values: Dict[str, float] = {}
        for name in self.NAMES:
            raw = self._counters[name].value()
            values[name] = raw if name == "repair_seconds" else int(raw)
        return values


def _row_entries(row: sp.csr_matrix) -> List[Tuple[int, float]]:
    """Stored row entries sorted by descending score, ties to smaller id."""
    order = np.lexsort((row.indices, -row.data))
    return [(int(row.indices[i]), float(row.data[i])) for i in order]


class SimRankService:
    """Long-lived query service over one graph and one warm cache.

    Parameters
    ----------
    graph:
        The graph every query runs against.
    simrank:
        The operator contract (ε, decay, top-k semantics, normalisation,
        worker count).  Its ``cache_dir`` provides the cached rung.
    serve:
        The :class:`repro.config.ServeConfig` ladder/batching knobs.
    cache:
        Explicit :class:`repro.simrank.cache.OperatorCache` for the
        cached rung; defaults to ``simrank.cache_dir``'s shared instance
        (no cached rung when both are absent).
    compute_exact / compute_degraded:
        Injectable row computations (fault-injection hooks).  Defaults
        run the single-source engine at ε and at the degraded ε
        respectively.  A rung fails by raising :class:`SimRankError`.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` handle.  When
        enabled, the counters and the latency histogram land in its
        registry and each shared exact frontier round is traced as a
        ``serve.exact_batch`` span.  The default is the inert handle:
        counters and latency still live on a private registry (they are
        always-on service state), but no spans are recorded.  The
        operator cache counts its events on its own registry either way
        (:meth:`prometheus_metrics` renders it after the service's).
    """

    def __init__(self, graph: Graph, *,
                 simrank: Optional[SimRankConfig] = None,
                 serve: Optional[ServeConfig] = None,
                 dynamic: Optional[DynamicConfig] = None,
                 cache: Optional["OperatorCache"] = None,
                 compute_exact: Optional[RowCompute] = None,
                 compute_degraded: Optional[RowCompute] = None,
                 telemetry: Optional["Telemetry"] = None) -> None:
        self.graph = graph
        self.simrank = simrank if simrank is not None else SimRankConfig()
        self.serve = serve if serve is not None else ServeConfig()
        self.dynamic = dynamic if dynamic is not None else DynamicConfig()
        if cache is None and self.simrank.cache_dir is not None:
            from repro.simrank.cache import get_operator_cache

            cache = get_operator_cache(self.simrank.cache_dir,
                                       max_bytes=self.simrank.cache_max_bytes)
        self.cache = cache
        self._compute_exact = (compute_exact if compute_exact is not None
                               else self._engine_rows)
        self._compute_degraded = (compute_degraded
                                  if compute_degraded is not None
                                  else self._engine_rows)
        from repro.telemetry.runtime import resolve_telemetry

        self.telemetry = resolve_telemetry(telemetry)
        self._tracer = self.telemetry.tracer
        # Counters need a registry either way (they are always-on service
        # state); an enabled handle contributes its own so one scrape
        # sees every layer, the inert default gets a private one — never
        # DISABLED's module-global registry, which is shared.
        self.counters = ServiceCounters(
            self.telemetry.registry if self.telemetry.enabled else None)
        # One query batch at a time: the engine already parallelises via
        # its worker pool, and serialising here keeps the counters and the
        # coalescing story simple under the daemon's thread-per-request
        # server.  Concurrency comes from the batcher coalescing queries
        # into one shared round, not from racing rounds.
        self._lock = Lock()
        # Updates repair on a separate lock so queries keep flowing (from
        # the pre-update graph) while a repair is in flight; only the
        # final graph/operator swap takes the query lock.
        self._update_lock = Lock()
        self._dynamic_op: Optional["DynamicOperator"] = None
        self._repairs_pending = 0
        self.last_update_error: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Default (real) row computations
    # ------------------------------------------------------------------ #
    def _engine_rows(self, sources: Sequence[int], top_k: Optional[int],
                     epsilon: float) -> Dict[int, sp.csr_matrix]:
        """Single-source engine rows for ``sources`` in one shared round."""
        from repro.graphs.sparse import sparse_row_normalize
        from repro.simrank.engine import multi_source_localpush
        from repro.simrank.localpush import resolve_workers

        cfg = self.simrank
        results = multi_source_localpush(
            self.graph, list(sources), decay=cfg.decay, epsilon=epsilon,
            prune=True, absorb_residual=True,
            max_pushes=self.serve.max_pushes_per_query,
            num_workers=resolve_workers(cfg.workers, self.graph.num_nodes),
            top_k=top_k, dtype=cfg.dtype)
        rows: Dict[int, sp.csr_matrix] = {}
        for result in results:
            row = result.row
            if cfg.row_normalize:
                row = sparse_row_normalize(row)
            rows[result.source] = row
        return rows

    # ------------------------------------------------------------------ #
    # The degradation ladder
    # ------------------------------------------------------------------ #
    def _validate(self, sources: Sequence[int]) -> List[int]:
        n = self.graph.num_nodes
        cleaned: List[int] = []
        for source in sources:
            if isinstance(source, bool) or not isinstance(source, int):
                raise SimRankError(
                    f"query node must be an integer, got {source!r}")
            if not 0 <= source < n:
                raise SimRankError(
                    f"query node {source} out of range for a graph "
                    f"with {n} nodes")
            cleaned.append(int(source))
        if not cleaned:
            raise SimRankError("a query batch needs at least one source")
        return cleaned

    def _serve_rows(self, sources: Sequence[int], top_k: Optional[int]
                    ) -> Dict[int, Tuple[sp.csr_matrix, str, float]]:
        """Walk the ladder for the deduplicated ``sources``.

        Returns ``{source: (row, path, epsilon)}`` where ``epsilon`` is
        the error bound the served row actually satisfies.  Each row is
        computed once per distinct source, but the path counters count
        every query in ``sources``, repeats included.  Must be called
        under ``self._lock``.
        """
        counters = self.counters
        cfg = self.simrank
        repeats: Dict[int, int] = {}
        for source in sources:
            repeats[source] = repeats.get(source, 0) + 1
        unique = sorted(repeats)
        count = len(sources)

        # Rung 1: exact, all sources in one shared frontier round.
        if self.serve.exact_enabled:
            from repro.utils.timer import Timer

            timer = Timer()
            timer.start()
            try:
                with self._tracer.span("serve.exact_batch",
                                       batch_size=len(unique)):
                    rows = self._compute_exact(unique, top_k, cfg.epsilon)
            except SimRankError:
                counters.inc("exact_failures", count)
            else:
                elapsed = timer.stop()
                budget = self.serve.time_budget_seconds
                if budget is not None and elapsed > budget:
                    counters.inc("budget_overruns", count)
                else:
                    counters.inc("batches")
                    counters.inc("exact_served", count)
                    return {source: (rows[source], "exact", cfg.epsilon)
                            for source in unique}

        # Rungs 2 and 3, per source.
        served: Dict[int, Tuple[sp.csr_matrix, str, float]] = {}
        degraded_epsilon = cfg.epsilon * self.serve.degraded_epsilon_factor
        for source in unique:
            if self.serve.serve_cached_rows and self.cache is not None:
                hit = self.cache.lookup_row(
                    self.graph, source, decay=cfg.decay, epsilon=cfg.epsilon,
                    top_k=top_k, row_normalize=cfg.row_normalize,
                    dtype=None if cfg.dtype == "float64" else cfg.dtype)
                if hit is not None:
                    row, entry_epsilon = hit
                    counters.inc("cached_served", repeats[source])
                    served[source] = (row, "cached", entry_epsilon)
                    continue
            try:
                rows = self._compute_degraded([source], top_k,
                                              degraded_epsilon)
            except SimRankError as error:
                counters.inc("failed", repeats[source])
                raise ServeError(
                    f"every serving rung failed for source {source} "
                    f"(exact {'disabled' if not self.serve.exact_enabled else 'failed'}, "
                    f"no cached row, degraded ε={degraded_epsilon} failed): "
                    f"{error}") from error
            counters.inc("degraded_served", repeats[source])
            served[source] = (rows[source], "degraded", degraded_epsilon)
        return served

    # ------------------------------------------------------------------ #
    # Public queries
    # ------------------------------------------------------------------ #
    def topk_batch(self, sources: Sequence[int],
                   k: Optional[int] = None) -> List[QueryAnswer]:
        """Answer a batch of ``topk`` queries from one shared ladder walk.

        Results align with ``sources`` (duplicates share the computed
        row) and are identical to issuing each query alone — the
        single-source engine's batch guarantee.  A ``k`` below 1 is a
        :class:`SimRankError` raised before the ladder runs, so it
        touches no counter.
        """
        from repro.utils.timer import Timer

        cleaned = self._validate(sources)
        k = k if k is not None else self.serve.default_top_k
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise SimRankError(f"k must be a positive integer, got {k!r}")
        timer = Timer()
        timer.start()
        with self._lock:
            served = self._serve_rows(cleaned, k)
            self.counters.inc("queries", len(cleaned))
            if len(cleaned) > 1:
                self.counters.inc("coalesced", len(cleaned))
            if self._repairs_pending:
                self.counters.inc("stale_served", len(cleaned))
        elapsed = timer.stop()
        for source in cleaned:
            self.counters.record_latency(served[source][1], elapsed)
        return [QueryAnswer(
            source=source,
            k=k,
            entries=_row_entries(served[source][0]),
            path=served[source][1],
            epsilon=served[source][2],
            elapsed_seconds=elapsed,
            batch_size=len(cleaned),
        ) for source in cleaned]

    def topk(self, source: int, k: Optional[int] = None) -> QueryAnswer:
        """Answer one ``topk`` query (a batch of one)."""
        return self.topk_batch([source], k)[0]

    def score(self, u: int, v: int) -> ScoreAnswer:
        """Answer a single-pair query from the full (un-truncated) row."""
        from repro.utils.timer import Timer

        cleaned = self._validate([u, v])
        timer = Timer()
        timer.start()
        with self._lock:
            served = self._serve_rows([cleaned[0]], None)
            self.counters.inc("queries")
            if self._repairs_pending:
                self.counters.inc("stale_served")
        elapsed = timer.stop()
        row, path, epsilon = served[cleaned[0]]
        self.counters.record_latency(path, elapsed)
        return ScoreAnswer(u=cleaned[0], v=cleaned[1],
                           value=float(row[0, cleaned[1]]), path=path,
                           epsilon=epsilon, elapsed_seconds=elapsed)

    # ------------------------------------------------------------------ #
    # Dynamic updates
    # ------------------------------------------------------------------ #
    def apply_update(self, updates: "Updates",
                     wait: Optional[bool] = None) -> Dict[str, object]:
        """Apply an edge-update batch to the served graph.

        The batch is validated against the currently served graph (a bad
        delta raises :class:`repro.errors.GraphError` immediately), then
        the maintained :class:`repro.dynamic.operator.DynamicOperator`
        repairs incrementally — in a background thread by default
        (``DynamicConfig.background_repair``), synchronously when
        ``wait=True``.  Until the repair lands, queries keep answering
        from the pre-update graph and count ``stale_served``; the landing
        atomically swaps in the updated graph (and, with
        ``store_repaired``, writes the repaired full-fidelity snapshot to
        the operator cache so the *cached* rung serves post-update rows
        without push work).

        Returns an acknowledgement payload; synchronous repairs include
        the repair telemetry (``num_pushes``, ``repair_seconds``,
        ``warm_start``).  Concurrent updates serialise on an update lock
        in submission order.
        """
        from repro.graphs.delta import UpdateBatch

        batch = UpdateBatch.coerce(updates)
        if len(batch) == 0:
            return {"accepted": True, "num_deltas": 0, "background": False}
        if len(batch) > self.dynamic.max_batch_edges:
            raise SimRankError(
                f"update batch has {len(batch)} deltas, exceeding "
                f"max_batch_edges={self.dynamic.max_batch_edges}")
        # Eager validation against the graph being served right now —
        # the daemon maps the GraphError to a 400 before any repair work.
        self.graph.apply_delta(batch)
        background = (self.dynamic.background_repair if wait is None
                      else not wait)
        with self._lock:
            self._repairs_pending += 1
        if background:
            Thread(target=self._repair, args=(batch, False),
                   daemon=True).start()
            return {"accepted": True, "num_deltas": len(batch),
                    "background": True}
        result = self._repair(batch, True)
        assert result is not None
        return {"accepted": True, "num_deltas": len(batch),
                "background": False, "num_pushes": result.num_pushes,
                "num_rounds": result.num_rounds,
                "repair_seconds": result.repair_seconds,
                "warm_start": result.warm_start}

    def _repair(self, batch: "Updates", reraise: bool
                ) -> Optional["RepairResult"]:
        """Run one repair to convergence and land its graph swap.

        Serialised on ``self._update_lock`` so concurrent submissions
        repair one at a time against a consistent operator.  A failed
        repair (e.g. the batch conflicts with an earlier update that
        landed after its validation) leaves the service on the previous
        graph, still answering; background failures are recorded in
        ``last_update_error`` instead of raised.  A landed repair whose
        best-effort delta-chain write failed still swaps and counts;
        the write error goes to ``last_update_error``.  The pending
        count is released whatever happens, so no failure leaves every
        later query counted as stale.
        """
        with self._update_lock:
            result: Optional["RepairResult"] = None
            try:
                operator = self._ensure_operator()
                result = operator.apply(batch)
            except (GraphError, SimRankError) as error:
                self.last_update_error = str(error)
                if reraise:
                    raise
            finally:
                with self._lock:
                    self._repairs_pending -= 1
                    if result is not None:
                        self.graph = operator.graph
                        self.counters.inc("updates_applied")
                        self.counters.inc("repair_seconds",
                                          result.repair_seconds)
            if result is not None and result.store_error is not None:
                self.last_update_error = result.store_error
        return result

    def _ensure_operator(self) -> "DynamicOperator":
        """The maintained operator, built lazily on the first update.

        The build happens inside the repair (so a background update's
        initial full-fidelity precompute never blocks queries) and warm
        starts from any cached base-graph entry.  Once built, only
        :meth:`_repair` advances it, under the update lock, so its graph
        tracks ``self.graph`` exactly.
        """
        if self._dynamic_op is None:
            from repro.dynamic.operator import DynamicOperator

            self._dynamic_op = DynamicOperator(
                self.graph, simrank=self.simrank, dynamic=self.dynamic,
                cache=self.cache, telemetry=self.telemetry)
        return self._dynamic_op

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def metrics(self) -> Dict[str, object]:
        """The ``/metrics`` payload: counters, latency, cache, graph, config."""
        cache_stats: Optional[Dict[str, int]] = None
        if self.cache is not None:
            stats = self.cache.stats()
            cache_stats = {name: stats[name] for name in _CACHE_SECTION}
        return {
            "counters": self.counters.to_dict(),
            "latency": self.counters.latency_summary(),
            "cache": cache_stats,
            "graph": {
                "num_nodes": int(self.graph.num_nodes),
                "num_edges": int(self.graph.num_edges),
            },
            "config": {
                "epsilon": self.simrank.epsilon,
                "decay": self.simrank.decay,
                "dtype": self.simrank.dtype,
                "default_top_k": self.serve.default_top_k,
                "exact_enabled": self.serve.exact_enabled,
                "time_budget_seconds": self.serve.time_budget_seconds,
                "max_pushes_per_query": self.serve.max_pushes_per_query,
                "degraded_epsilon_factor": self.serve.degraded_epsilon_factor,
                "serve_cached_rows": self.serve.serve_cached_rows,
                "batch_window_seconds": self.serve.batch_window_seconds,
                "max_batch_size": self.serve.max_batch_size,
            },
        }

    def prometheus_metrics(self) -> str:
        """The Prometheus text exposition of the service and its cache.

        The counters and the ``repro_serve_latency_seconds{path}``
        histogram are live in the service registry already; this
        refreshes the scrape-time gauges — ``repro_serve_qps`` and the
        served graph size — then renders the service registry followed
        by the operator cache's (``repro_cache_events_total``), the same
        counter ``/metrics``' ``cache`` section reads.
        """
        from repro.telemetry.exposition import prometheus_text

        registry = self.counters.registry
        qps_gauge = registry.gauge(
            "repro_serve_qps",
            "Queries per second over the observed query span.")
        qps = self.counters.qps()
        if qps is not None:
            qps_gauge.set(qps)
        registry.gauge("repro_serve_graph_nodes",
                       "Nodes in the served graph.").set(
            float(self.graph.num_nodes))
        registry.gauge("repro_serve_graph_edges",
                       "Edges in the served graph.").set(
            float(self.graph.num_edges))
        text = prometheus_text(registry)
        if self.cache is not None:
            text += prometheus_text(self.cache.registry)
        return text


__all__ = ["SimRankService", "QueryAnswer", "ScoreAnswer",
           "ServiceCounters", "RowCompute", "SERVE_PATHS"]
