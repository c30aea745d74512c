"""The serving core: single-source queries behind a degradation ladder.

:class:`SimRankService` answers ``topk``/``score`` queries against one
long-lived graph.  It serves from an immutable :class:`GraphVersion`:
the graph, its fingerprint and, computed at most once per connected
component, that graph's exact rows.  Every query walks the same
three-rung ladder on the version it started on:

1. **exact** — a slice of the version's rows at the configured ε.  The
   first read of a component runs one row computation for the whole
   component; concurrent first readers wait for it and every later read
   shares it.  ``ServeConfig.max_pushes_per_query`` caps each row
   computation (the engine raises past the cap, failing the rung for
   every read waiting on it) and ``ServeConfig.time_budget_seconds``
   bounds each read's wait for its rows.
2. **cached** — any dominating all-pairs operator-cache entry serves the
   row via :meth:`repro.simrank.cache.OperatorCache.lookup_row`, with no
   push work at all.
3. **degraded** — a looser-ε recompute of the one source row at
   ``ε × ServeConfig.degraded_epsilon_factor``; cheap because the push
   threshold ``(1−c)·ε`` grows with ε.

Only when the last rung fails does the query raise
:class:`repro.errors.ServeError`; every earlier failure falls through
and is recorded in the per-path counters (see :class:`ServiceCounters`).
The ``compute_exact``/``compute_degraded`` callables are injectable so
the fault-injection suite can force any rung to fail.

This module is in the R3 determinism lint scope: given one graph
version, equal queries return bit-identical answers regardless of which
read ran the row computation (the engine guarantee) — no wall-clock
reads, global RNG or unordered-set iteration may influence an answer.
The latency metrics and the time budget read the *monotonic* clock
(R3-exempt); the budget may move a query to a lower rung, never change
the bits a rung returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from threading import TIMEOUT_MAX, Event, Lock, Thread
from time import monotonic
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional, Sequence,
                    Tuple)

import numpy as np
import scipy.sparse as sp

from repro.config import DynamicConfig, ServeConfig, SimRankConfig
from repro.errors import GraphError, ServeError, SimRankError
from repro.graphs.graph import Graph
from repro.graphs.sparse import top_k_row
from repro.simrank.engine import _validate_sources

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.dynamic.operator import DynamicOperator, RepairResult
    from repro.graphs.delta import Updates
    from repro.simrank.cache import OperatorCache
    from repro.telemetry.metrics import Counter, Histogram, MetricsRegistry
    from repro.telemetry.runtime import Telemetry

#: The ladder rungs, in fall-through order; every answer names its rung.
SERVE_PATHS = ("exact", "cached", "degraded")

#: Injectable row computation: ``(graph, nodes, epsilon) -> rows``, an
#: ``n×n`` CSR matrix whose rows ``nodes`` hold the un-truncated,
#: un-normalised estimate rows of ``graph`` at ``epsilon``.  No other row
#: is read.  A computation fails the rung by raising :class:`SimRankError`;
#: any other exception propagates to every read waiting on it.
RowCompute = Callable[[Graph, np.ndarray, float], sp.csr_matrix]

#: Registry help strings for the eleven service counters, in the
#: ``ServiceCounters.to_dict`` key order.
_COUNTER_HELP = {
    "queries": "Total queries answered.",
    "batches": "Row computations run, one per graph version and component.",
    "exact_served": "Queries answered by the exact rung.",
    "cached_served": "Queries answered from a cached operator row.",
    "degraded_served": "Queries answered at the degraded epsilon.",
    "failed": "Queries for which every serving rung failed.",
    "exact_failures": "Queries whose exact rung faulted.",
    "budget_overruns": "Queries whose exact rows were not ready in budget.",
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
    """One answered ``topk`` query: the entries plus serving provenance.

    ``version`` is the fingerprint of the graph that answered
    (:func:`repro.graphs.fingerprint.graph_fingerprint`).
    """

    source: int
    k: Optional[int]
    entries: List[Tuple[int, float]]
    path: str
    epsilon: float
    elapsed_seconds: float
    version: str
    batch_size: int = 1


@dataclass
class ScoreAnswer:
    """One answered single-pair query, with the same provenance fields."""

    u: int
    v: int
    value: float
    path: str
    epsilon: float
    elapsed_seconds: float
    version: str


class ServiceCounters:
    """Per-path query accounting (all counts are *queries*, but one).

    ``queries`` is the total answered; each one is also counted in
    exactly one of ``exact_served``/``cached_served``/``degraded_served``
    or ``failed`` — a source repeated within one ``topk_batch`` call
    shares its row but is counted once per query, so ``queries ==
    exact_served + cached_served + degraded_served`` holds for every
    batch composition.  ``exact_failures`` counts queries whose exact rung
    faulted (admission cap or injected error) and ``budget_overruns``
    those whose rows were not ready within the time budget — both then
    fell through the ladder.  ``batches`` is the one count that is not
    of queries: the row computations run, at most one per graph version
    and connected component, so ``exact_served / batches`` is how many
    exact answers each computation served.

    The dynamic-update integration adds ``updates_applied`` (update
    batches whose repair landed), ``repair_seconds`` (cumulative wall
    time those repairs took — the only non-integer counter) and
    ``stale_served`` (queries answered from a graph version that had a
    repair in flight when the query took it — the documented freshness
    trade of background repair, see :meth:`SimRankService.apply_update`).

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

    #: The eleven counter names, in ``to_dict`` key order.
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


class _RowsFlight:
    """One component's row computation, which all its readers wait on."""

    def __init__(self) -> None:
        self.done = Event()
        self.rows: Optional[sp.csr_matrix] = None
        self.error: Optional[BaseException] = None


class GraphVersion:
    """One served graph and that graph's exact rows.

    ``graph`` and its ``fingerprint`` (the ``version`` every answer
    reports) are fixed at construction; a new graph is a new version.
    Its connected-component ``labels`` are computed by the first read
    that needs them, off the update path.  :meth:`rows` fills in the
    rows lazily, at most once per component, and keeps them for the life
    of the version.  The service holds only the current version, so an
    old one is freed once the last read that started on it finishes.
    """

    def __init__(self, graph: Graph) -> None:
        from repro.graphs.fingerprint import graph_fingerprint

        self.graph = graph
        self.fingerprint = graph_fingerprint(graph)
        self._lock = Lock()
        self._flights: Dict[int, _RowsFlight] = {}

    @cached_property
    def labels(self) -> np.ndarray:
        """The connected-component label of every node."""
        from scipy.sparse.csgraph import connected_components

        return connected_components(self.graph.adjacency, directed=False)[1]

    def rows(self, label: int,
             compute: Callable[[np.ndarray], sp.csr_matrix],
             deadline: Optional[float]) -> Optional[sp.csr_matrix]:
        """Component ``label``'s rows, computed at most once; ``None`` if late.

        The first reader of the component runs ``compute(nodes)`` inline;
        the others wait for that one computation until ``deadline`` (a
        :func:`time.monotonic` instant, ``None`` = no budget).  A failed
        computation raises its own error in every reader waiting on it,
        so one fault has one outcome, and is not kept: the next reader
        runs it again.
        """
        with self._lock:
            flight = self._flights.get(label)
            run = flight is None
            if flight is None:
                flight = self._flights[label] = _RowsFlight()
        if run:
            try:
                flight.rows = compute(np.flatnonzero(self.labels == label))
            except BaseException as error:
                with self._lock:
                    del self._flights[label]
                flight.error = error
                raise
            finally:
                flight.done.set()
        else:
            # ``Event.wait`` raises OverflowError above TIMEOUT_MAX
            # (about 292 years); a longer budget waits as if unbounded.
            timeout = (None if deadline is None
                       else min(max(0.0, deadline - monotonic()),
                                TIMEOUT_MAX))
            if not flight.done.wait(timeout):
                return None
            if flight.error is not None:
                raise flight.error
        if deadline is not None and monotonic() > deadline:
            return None
        return flight.rows


class SimRankService:
    """Long-lived query service over one graph and one warm cache.

    Parameters
    ----------
    graph:
        The graph every query runs against until an update lands.
    simrank:
        The operator contract (ε, decay, top-k semantics, normalisation,
        dtype).  Its ``cache_dir`` provides the cached rung.
    serve:
        The :class:`repro.config.ServeConfig` ladder knobs.
    cache:
        Explicit :class:`repro.simrank.cache.OperatorCache` for the
        cached rung; defaults to ``simrank.cache_dir``'s shared instance
        (no cached rung when both are absent).
    compute_exact / compute_degraded:
        Injectable :data:`RowCompute` hooks (fault injection).  Both
        default to :func:`repro.simrank.engine.multi_source_localpush`
        with ``top_k=None``, capped at ``max_pushes_per_query``: the
        exact rung asks for every node of a component at ε, the degraded
        rung for the one source at the degraded ε.  Either way the
        service then slices row ``source``, prunes it to the top ``k``
        and normalises it.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` handle.  When
        enabled, the counters and the latency histogram land in its
        registry, each exact-rung attempt is traced as a
        ``serve.exact_batch`` span and each row computation as a
        ``serve.version_rows`` span under the ``serve.exact_batch`` of
        the read that ran it.  The default is the inert handle:
        counters and latency still live on a private registry (they are
        always-on service state), but no spans are recorded.  The
        operator cache counts its events on its own registry either way
        (:meth:`prometheus_metrics` renders it after the service's).

    Concurrency
    -----------
    Reads take no service-wide lock: each reads the current
    :class:`GraphVersion`, with the count of repairs pending against
    it, once and finishes on it.  An update lands by assigning a new
    version, so neither side waits for the other.
    """

    def __init__(self, graph: Graph, *,
                 simrank: Optional[SimRankConfig] = None,
                 serve: Optional[ServeConfig] = None,
                 dynamic: Optional[DynamicConfig] = None,
                 cache: Optional["OperatorCache"] = None,
                 compute_exact: Optional[RowCompute] = None,
                 compute_degraded: Optional[RowCompute] = None,
                 telemetry: Optional["Telemetry"] = None) -> None:
        # The served version and the repairs submitted against it but not
        # yet landed, published together: a read unpacks both at once, so
        # it counts as stale exactly when its version had a repair pending.
        self._served: Tuple[GraphVersion, int] = (GraphVersion(graph), 0)
        self._served_lock = Lock()
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
        # Repairs run one at a time, on their own lock; reads never take it.
        self._update_lock = Lock()
        self._dynamic_op: Optional["DynamicOperator"] = None
        self.last_update_error: Optional[str] = None

    @property
    def graph(self) -> Graph:
        """The graph of the version served now."""
        return self._served[0].graph

    @property
    def version(self) -> str:
        """The fingerprint of the graph served now."""
        return self._served[0].fingerprint

    # ------------------------------------------------------------------ #
    # Default (real) row computation
    # ------------------------------------------------------------------ #
    def _engine_rows(self, graph: Graph, nodes: np.ndarray,
                     epsilon: float) -> sp.csr_matrix:
        """Engine rows of ``nodes`` in one round loop (:data:`RowCompute`).

        The push count lands on the span open around the call — the
        ``serve.version_rows`` span of a row computation.
        """
        from repro.simrank.engine import multi_source_localpush

        cfg = self.simrank
        results = multi_source_localpush(
            graph, nodes, decay=cfg.decay, epsilon=epsilon,
            prune=True, absorb_residual=True,
            max_pushes=self.serve.max_pushes_per_query, dtype=cfg.dtype)
        self._tracer.current_span().set("pushes", results[0].num_pushes)
        return results[0].estimate

    # ------------------------------------------------------------------ #
    # The degradation ladder
    # ------------------------------------------------------------------ #
    @staticmethod
    def _validate(graph: Graph, sources: Sequence[int]) -> List[int]:
        """The query's node ids as ints, checked by the engine's
        :func:`~repro.simrank.engine._validate_sources`."""
        return [int(source) for source in _validate_sources(graph, sources)]

    def _version_rows(self, version: GraphVersion,
                      nodes: np.ndarray) -> sp.csr_matrix:
        """One row computation: the exact rows of one ``version`` component."""
        with self._tracer.span("serve.version_rows",
                               component_size=int(nodes.size),
                               version=version.fingerprint):
            rows = self._compute_exact(version.graph, nodes,
                                       self.simrank.epsilon)
        self.counters.inc("batches")
        return rows

    def _serve_rows(self, version: GraphVersion, sources: Sequence[int],
                    top_k: Optional[int]
                    ) -> Dict[int, Tuple[sp.csr_matrix, str, float]]:
        """Walk the ladder on ``version`` for the deduplicated ``sources``.

        Returns ``{source: (row, path, epsilon)}`` where ``epsilon`` is
        the error bound the served row actually satisfies.  Each row is
        served once per distinct source, but the path counters count
        every query in ``sources``, repeats included.
        """
        counters = self.counters
        cfg = self.simrank
        repeats: Dict[int, int] = {}
        for source in sources:
            repeats[source] = repeats.get(source, 0) + 1
        unique = sorted(repeats)
        count = len(sources)

        # Rung 1: exact, a slice of each source component's shared rows.
        if self.serve.exact_enabled:
            budget = self.serve.time_budget_seconds
            deadline = None if budget is None else monotonic() + budget
            labels = version.labels
            compute = partial(self._version_rows, version)
            try:
                with self._tracer.span("serve.exact_batch",
                                       batch_size=len(unique)):
                    rows = {int(label): version.rows(int(label), compute,
                                                     deadline)
                            for label in np.unique(labels[unique])}
            except SimRankError:
                counters.inc("exact_failures", count)
            else:
                if any(component is None for component in rows.values()):
                    counters.inc("budget_overruns", count)
                else:
                    counters.inc("exact_served", count)
                    return {source: (top_k_row(
                                rows[int(labels[source])], source, top_k,
                                normalize=cfg.row_normalize),
                                "exact", cfg.epsilon)
                            for source in unique}

        # Rungs 2 and 3, per source.
        served: Dict[int, Tuple[sp.csr_matrix, str, float]] = {}
        degraded_epsilon = cfg.epsilon * self.serve.degraded_epsilon_factor
        for source in unique:
            if self.serve.serve_cached_rows and self.cache is not None:
                hit = self.cache.lookup_row(
                    version.graph, source, decay=cfg.decay,
                    epsilon=cfg.epsilon, top_k=top_k,
                    row_normalize=cfg.row_normalize,
                    dtype=None if cfg.dtype == "float64" else cfg.dtype)
                if hit is not None:
                    row, entry_epsilon = hit
                    counters.inc("cached_served", repeats[source])
                    served[source] = (row, "cached", entry_epsilon)
                    continue
            try:
                rows_of_source = self._compute_degraded(
                    version.graph, np.array([source]), degraded_epsilon)
            except SimRankError as error:
                counters.inc("failed", repeats[source])
                raise ServeError(
                    f"every serving rung failed for source {source} "
                    f"(exact {'disabled' if not self.serve.exact_enabled else 'failed'}, "
                    f"no cached row, degraded ε={degraded_epsilon} failed): "
                    f"{error}") from error
            counters.inc("degraded_served", repeats[source])
            served[source] = (top_k_row(rows_of_source, source, top_k,
                                        normalize=cfg.row_normalize),
                              "degraded", degraded_epsilon)
        return served

    def _count_answered(self, count: int, pending: int) -> None:
        self.counters.inc("queries", count)
        if pending:
            self.counters.inc("stale_served", count)

    def _track_pending(self, landed: Optional[GraphVersion],
                       change: int) -> None:
        """Move the pending count by ``change``; land ``landed`` with it."""
        with self._served_lock:
            version, pending = self._served
            self._served = (landed if landed is not None else version,
                            pending + change)

    # ------------------------------------------------------------------ #
    # Public queries
    # ------------------------------------------------------------------ #
    def topk_batch(self, sources: Sequence[int],
                   k: Optional[int] = None) -> List[QueryAnswer]:
        """Answer a batch of ``topk`` queries from one ladder walk.

        Results align with ``sources`` (duplicates share the served row)
        and are identical to issuing each query alone.  Every answer
        comes from the graph version current when the call started, and
        reports it.  A ``k`` below 1 is a :class:`SimRankError` raised
        before the ladder runs, so it touches no counter.
        """
        from repro.utils.timer import Timer

        version, pending = self._served
        cleaned = self._validate(version.graph, sources)
        k = k if k is not None else self.serve.default_top_k
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise SimRankError(f"k must be a positive integer, got {k!r}")
        timer = Timer()
        timer.start()
        served = self._serve_rows(version, cleaned, k)
        self._count_answered(len(cleaned), pending)
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
            version=version.fingerprint,
            batch_size=len(cleaned),
        ) for source in cleaned]

    def topk(self, source: int, k: Optional[int] = None) -> QueryAnswer:
        """Answer one ``topk`` query (a batch of one)."""
        return self.topk_batch([source], k)[0]

    def score(self, u: int, v: int) -> ScoreAnswer:
        """Answer a single-pair query from the full (un-truncated) row."""
        from repro.utils.timer import Timer

        version, pending = self._served
        cleaned = self._validate(version.graph, [u, v])
        timer = Timer()
        timer.start()
        served = self._serve_rows(version, [cleaned[0]], None)
        self._count_answered(1, pending)
        elapsed = timer.stop()
        row, path, epsilon = served[cleaned[0]]
        self.counters.record_latency(path, elapsed)
        return ScoreAnswer(u=cleaned[0], v=cleaned[1],
                           value=float(row[0, cleaned[1]]), path=path,
                           epsilon=epsilon, elapsed_seconds=elapsed,
                           version=version.fingerprint)

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
        from the pre-update version and count ``stale_served``; the
        landing assigns the updated graph's version, whose rows are
        computed by its first exact read.  Nothing here waits for a read:
        a read in flight finishes on the version it started on.  With
        ``store_repaired`` the operator's background writer then stores
        the repaired full-fidelity snapshot in the operator cache, under
        the key of the updated graph, after which the *cached* rung
        serves post-update rows without push work.  Before it lands, a
        query that falls past the exact rung answers ``degraded`` unless
        the cache already holds an entry for the updated graph (the
        cached rung matches the served graph's fingerprint, so it never
        serves a pre-update entry).

        Returns an acknowledgement payload; synchronous repairs include
        the repair telemetry (``num_pushes``, ``repair_seconds``,
        ``warm_start``) and the landed ``version``, and mean the repair
        landed and the version swapped — not that the snapshot entry is
        on disk (:meth:`close` waits for that).  An empty batch repairs
        nothing and reports the version served now.  Concurrent updates
        serialise on an update lock in submission order.
        """
        from repro.graphs.delta import UpdateBatch

        batch = UpdateBatch.coerce(updates)
        if len(batch) == 0:
            return {"accepted": True, "num_deltas": 0, "background": False,
                    "version": self.version}
        if len(batch) > self.dynamic.max_batch_edges:
            raise SimRankError(
                f"update batch has {len(batch)} deltas, exceeding "
                f"max_batch_edges={self.dynamic.max_batch_edges}")
        # Eager validation against the graph being served right now —
        # the daemon maps the GraphError to a 400 before any repair work.
        # The repair reuses the updated graph if nothing lands first.
        base = self.graph
        updated = base.apply_delta(batch)
        background = (self.dynamic.background_repair if wait is None
                      else not wait)
        self._track_pending(None, +1)
        if background:
            Thread(target=self._repair, args=(batch, base, updated, False),
                   daemon=True).start()
            return {"accepted": True, "num_deltas": len(batch),
                    "background": True}
        landed = self._repair(batch, base, updated, True)
        assert landed is not None
        result, version = landed
        return {"accepted": True, "num_deltas": len(batch),
                "background": False, "num_pushes": result.num_pushes,
                "num_rounds": result.num_rounds,
                "repair_seconds": result.repair_seconds,
                "warm_start": result.warm_start,
                "version": version.fingerprint}

    def _repair(self, batch: "Updates", base: Graph, updated: Graph,
                reraise: bool
                ) -> Optional[Tuple["RepairResult", GraphVersion]]:
        """Run one repair to convergence and land its version.

        Serialised on ``self._update_lock`` so concurrent submissions
        repair one at a time against a consistent operator.  ``updated``
        is ``base.apply_delta(batch)``, built by the validation; the
        operator reuses it when its graph is still ``base``, and applies
        the batch to its own graph otherwise.  A failed
        repair (e.g. the batch conflicts with an earlier update that
        landed after its validation) leaves the service on the previous
        version, still answering; background failures are recorded in
        ``last_update_error`` instead of raised.  The pending count is
        released whatever happens, in the same step that lands the
        version, so no failure leaves every later query counted as stale
        and no read sees the new version still counted pending.
        """
        with self._update_lock:
            landed: Optional[GraphVersion] = None
            try:
                operator = self._ensure_operator()
                result = operator.apply(
                    batch, updated if operator.graph is base else None)
                landed = GraphVersion(operator.graph)
            except (GraphError, SimRankError) as error:
                self.last_update_error = str(error)
                if reraise:
                    raise
                return None
            finally:
                self._track_pending(landed, -1)
            self.counters.inc("updates_applied")
            self.counters.inc("repair_seconds", result.repair_seconds)
            return result, landed

    def _record_write_error(self, error: str) -> None:
        """The operator's snapshot-write error callback (on its writer thread).

        The repair had already landed; only the cache entry is missing.
        """
        self.last_update_error = error

    def close(self) -> None:
        """Wait for the repair in progress, then drain its snapshot write.

        Afterwards the newest landed repair's snapshot is on disk, under
        the key of the served graph, or its failure is in
        ``last_update_error``.  The service stays usable;
        :meth:`repro.serve.daemon.ServeDaemon.server_close` calls this so
        a stopping daemon drops no entry.
        """
        with self._update_lock:
            if self._dynamic_op is not None:
                self._dynamic_op.flush()

    def _ensure_operator(self) -> "DynamicOperator":
        """The maintained operator, built lazily on the first update.

        The build happens inside the repair (so a background update's
        initial full-fidelity precompute never blocks queries) and warm
        starts from any cached base-graph entry.  Once built, only
        :meth:`_repair` advances it, under the update lock, so its graph
        tracks the served version's graph exactly.
        """
        if self._dynamic_op is None:
            from repro.dynamic.operator import DynamicOperator

            self._dynamic_op = DynamicOperator(
                self.graph, simrank=self.simrank, dynamic=self.dynamic,
                cache=self.cache, telemetry=self.telemetry,
                on_write_error=self._record_write_error)
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
        graph = self.graph
        return {
            "counters": self.counters.to_dict(),
            "latency": self.counters.latency_summary(),
            "cache": cache_stats,
            "graph": {
                "num_nodes": int(graph.num_nodes),
                "num_edges": int(graph.num_edges),
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
        graph = self.graph
        registry.gauge("repro_serve_graph_nodes",
                       "Nodes in the served graph.").set(
            float(graph.num_nodes))
        registry.gauge("repro_serve_graph_edges",
                       "Edges in the served graph.").set(
            float(graph.num_edges))
        text = prometheus_text(registry)
        if self.cache is not None:
            text += prometheus_text(self.cache.registry)
        return text


__all__ = ["SimRankService", "GraphVersion", "QueryAnswer", "ScoreAnswer",
           "ServiceCounters", "RowCompute", "SERVE_PATHS"]
