"""Online serving layer: SimRank-as-a-service on the LocalPush engine.

The package turns the batch reproduction into a query system: a
long-lived daemon holds one graph plus a warm operator cache and answers
``topk(u, k)`` / ``score(u, v)`` over HTTP, with request coalescing and
admission-controlled graceful degradation.  Configure it with
:class:`repro.config.ServeConfig` (plus the usual
:class:`repro.config.SimRankConfig` operator contract) and start it with
``python -m repro.cli serve <dataset>``.

The degradation ladder
----------------------
Every query walks the same three rungs, falling through on failure and
reporting the rung that answered in its response ``path`` field:

1. ``exact`` — the single-source LocalPush engine
   (:func:`repro.simrank.engine.multi_source_localpush`) at the
   configured ε, one shared frontier round per coalesced batch.
   Admission control: ``max_pushes_per_query`` caps the frontier work
   (the engine raises past it) and ``time_budget_seconds`` discards a
   completed answer that arrived too late.
2. ``cached`` — any dominating all-pairs operator-cache entry
   (tighter ε′ ≤ ε, larger k′ ≥ k, same graph/decay/normalisation)
   serves the row with zero push work via
   :meth:`repro.simrank.cache.OperatorCache.lookup_row`.
3. ``degraded`` — a looser-ε recompute at
   ``ε × degraded_epsilon_factor``; the answer still satisfies the
   Lemma III.5 bound at that loosened ε, which the response reports.

Only when the last rung fails does the query raise
:class:`repro.errors.ServeError` (HTTP 503); the daemon itself never
dies on a query.

Counter semantics
-----------------
:class:`repro.serve.service.ServiceCounters` counts *queries* (not
batches, except where noted), exposed in every response and at
``/metrics``:

- ``queries`` — total answered; each is also counted in exactly one of
  ``exact_served`` / ``cached_served`` / ``degraded_served`` /
  ``failed``.
- ``exact_failures`` — queries whose exact rung faulted (admission cap
  or compute error) before falling through; ``budget_overruns`` —
  queries whose completed exact answer was discarded as over-budget.
  Both are *in addition to* the rung that finally served them.
- ``batches`` — shared exact frontier rounds; ``coalesced`` — queries
  that shared their round with at least one other query.  Coalescing
  never changes an answer (the engine's batch guarantee; pinned by
  ``tests/test_serve.py``).
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
spans — ``serve.exact_batch`` per shared frontier round,
``dynamic.repair`` per update batch.

A repair lands even if its best-effort delta-chain cache write fails
(a full disk, say): the graph swaps, ``updates_applied`` and
``repair_seconds`` count it, and the write error is kept in
``SimRankService.last_update_error``.
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
