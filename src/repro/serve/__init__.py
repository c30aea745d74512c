"""Online serving layer: SimRank-as-a-service on the LocalPush engine.

The package turns the batch reproduction into a query system: a
long-lived daemon holds one graph plus a warm operator cache and answers
``topk(u, k)`` / ``score(u, v)`` over HTTP, with admission-controlled
graceful degradation.  Configure it with
:class:`repro.config.ServeConfig` (plus the usual
:class:`repro.config.SimRankConfig` operator contract) and start it with
``python -m repro.cli serve <dataset>``.

Graph versions
--------------
The service serves from an immutable
:class:`repro.serve.service.GraphVersion`: the graph, its fingerprint
(:func:`repro.graphs.fingerprint.graph_fingerprint`) and that graph's
exact rows.  The rows are computed at most once per connected
component, by one :func:`repro.simrank.engine.multi_source_localpush`
call over every node of the component, and every read of the version
shares them.  Seeding exactly the source's component gives the same
seeds and frontiers as :func:`repro.api.topk`, so a served row is
bit-identical to it on any graph.  An update lands by assigning a
new version: nothing on ``/update`` waits for a read, a read in flight
finishes on the version it started on, and an old version is freed once
no read holds it.  Every answer reports its ``version``.

The degradation ladder
----------------------
Every query walks the same three rungs, falling through on failure and
reporting the rung that answered in its response ``path`` field.  No
rung can be switched off; the cached rung is skipped only when the
service has no operator cache:

1. ``exact`` — row ``u`` sliced from the version's rows at the
   configured ε, pruned to the top ``k`` and optionally normalised.  The
   first read of a component runs its row computation; concurrent first
   readers wait for that one computation.  Admission control:
   ``max_pushes_per_query`` caps each row computation (on a connected
   graph that is the push count of one single-source query); past it
   the computation fails the rung for every read waiting on it and is
   not kept.  A failed computation raises the same error in each of
   those reads: a :class:`repro.errors.SimRankError` (the cap, an
   injected fault) falls through to the next rung, any other error
   propagates.  ``time_budget_seconds`` bounds each read's wait for its
   rows; a read over budget falls through, and rows that complete stay
   on the version for the next read.
2. ``cached`` — any dominating all-pairs operator-cache entry
   (tighter ε′ ≤ ε, larger k′ ≥ k, same graph/decay/normalisation)
   serves the row with zero push work via
   :meth:`repro.simrank.cache.OperatorCache.lookup_row`.
3. ``degraded`` — a looser-ε recompute of the one row at
   ``ε × degraded_epsilon_factor``; the answer still satisfies the
   Lemma III.5 bound at that loosened ε, which the response reports.

Only when the last rung fails does the query raise
:class:`repro.errors.ServeError` (HTTP 503); the daemon itself never
dies on a query.

Counter semantics
-----------------
:class:`repro.serve.service.ServiceCounters` counts *queries*, except
``batches``, exposed in every response and at ``/metrics``:

- ``queries`` — total answered; each is also counted in exactly one of
  ``exact_served`` / ``cached_served`` / ``degraded_served`` /
  ``failed``.
- ``exact_failures`` — queries whose exact rung raised a
  :class:`repro.errors.SimRankError` (admission cap or compute error)
  before falling through; ``budget_overruns`` —
  queries whose exact rows were not ready within the time budget.
  Both are *in addition to* the rung that finally served them.
- ``batches`` — row computations run, one per graph version and
  component, so ``exact_served / batches`` is how many exact answers
  each computation served.
- ``stale_served`` — queries whose version had an update repair in
  flight when the query took it (a read never waits for an update).
  The version and the count of pending repairs are published as one
  pair, so a read decides once, at its start, and a landing moves both
  together.
- The ``cache`` section of ``/metrics`` (``hits``, ``exact_hits``,
  ``reuse_hits``, ``misses``, ``row_hits``, ``row_misses``, ``stores``)
  is :meth:`repro.simrank.cache.OperatorCache.stats`, read from the
  cache's own ``repro_cache_events_total{event}`` counter.  The cache
  counts whether telemetry is on or off, and every service sharing a
  cache directory shares its one counter.

Where each number lives
-----------------------
Every counter is backed by a :mod:`repro.telemetry` registry counter
(``repro_serve_<name>_total``), making increments atomic under the
daemon's thread-per-request server.  Each answered query's wall time is
observed once on the ``repro_serve_latency_seconds{path}`` histogram of
the same registry; the ``/metrics`` ``latency`` section reads it back —
per path the ``count`` and the p50/p95/p99 seconds interpolated from the
buckets (Prometheus ``histogram_quantile``) over every query since the
service started (``window_size`` is ``null``: there is no rolling
window), plus ``qps`` over the first-to-last query span.
``GET /metrics/prometheus`` renders the service registry (with
``repro_serve_qps`` and the graph-size gauges refreshed at scrape time)
followed by the operator cache's registry, so the scrape and the JSON
``/metrics`` report the same numbers.  Start the daemon with
``--telemetry`` (and optionally ``--trace-path``) to additionally record
spans — ``serve.exact_batch`` per read's exact rung,
``serve.version_rows`` per row computation, ``dynamic.repair`` per
update batch, ``dynamic.snapshot_write`` per repaired-snapshot cache
write.

Updates and the snapshot write
------------------------------
``POST /update`` (``SimRankService.apply_update``) validates the batch,
repairs the maintained operator and lands the updated graph's version,
all under one update lock, and only then answers, with the repair
telemetry and the new ``version``.  Updates run one at a time; reads
never take that lock.  A ``"wait"`` key in the body is accepted (a
boolean) and changes nothing.  A failed update (a bad delta, the repair
cap) is a 400 and leaves the served version as it was.

The answer does not mean the repaired snapshot is in the cache: the
operator's background writer stores the newest repaired state after the
swap, under the key of the graph it describes, superseding any older
state still waiting (see :class:`repro.dynamic.operator.DynamicOperator`).
Until that entry lands, a post-update query that falls past the exact
rung answers ``degraded``, unless the cache already holds an entry for
the updated graph: the cached rung matches the served graph's
fingerprint, so it never serves a pre-update entry.
``SimRankService.close()`` waits for the update in progress and drains
the write; ``ServeDaemon.server_close()`` calls it, so a daemon stopped
by Ctrl-C or SIGTERM exits 0 with the newest entry on disk.

A repair lands even if its snapshot cache write fails (a full disk,
say): the graph swaps, ``updates_applied`` and ``repair_seconds`` count
it, and ``SimRankService.last_update_error`` reads the writer's error
text (``DynamicOperator.write_error``).
"""

from repro.serve.batching import QueryBatcher
from repro.serve.daemon import ServeDaemon, build_parser, main, make_daemon
from repro.serve.service import (
    SERVE_PATHS,
    QueryAnswer,
    ScoreAnswer,
    ServiceCounters,
    SimRankService,
)

__all__ = ["SimRankService", "QueryAnswer", "ScoreAnswer",
           "ServiceCounters", "QueryBatcher", "ServeDaemon", "make_daemon",
           "build_parser", "main", "SERVE_PATHS"]
