"""The live LocalPush operator maintained under an edge-update stream.

See the :mod:`repro.dynamic` package docstring for the invariant and the
repair algebra this module implements.  The class here owns three
things: the maintained raw ``(estimate, residual)`` pair (full fidelity
— never top-k pruned, never floor-pruned, float64), the repair loop
built on :func:`repro.simrank.engine.resume_localpush`, and the
delta-chained cache integration that lets a later process warm-start
from ``base fingerprint + delta hash`` instead of recomputing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.config import DynamicConfig, SimRankConfig
from repro.errors import SimRankError
from repro.graphs.delta import UpdateBatch, Updates
from repro.graphs.fingerprint import graph_fingerprint
from repro.graphs.graph import Graph
from repro.graphs.normalize import column_normalize
from repro.graphs.sparse import csr_row_indices, sparse_row_normalize
from repro.simrank.cache import OperatorCache, get_operator_cache
from repro.simrank.engine import resume_localpush
from repro.simrank.localpush import finalize_estimate, resolve_workers
from repro.simrank.topk import SimRankOperator, topk_simrank
from repro.utils.timer import Timer

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.telemetry.runtime import Telemetry

CacheLike = Union[OperatorCache, str, os.PathLike, None]


@dataclass
class RepairResult:
    """Telemetry of one applied update batch.

    ``warm_start`` records which algebra seeded the repair residual:
    ``"maintained"`` (the delta-sized correction of a held residual) or
    ``"reconstructed"`` (the estimate-only reconstruction used after a
    cache warm start).  ``num_pushes`` is the number of frontier
    absorptions the repair rounds performed — the quantity the
    incremental benchmark pits against a fresh precompute.
    ``store_error`` describes a failed delta-chain cache write (``None``
    when the write succeeded or was not attempted); the repair itself
    landed either way.
    """

    batch: UpdateBatch
    num_deltas: int
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    repair_seconds: float
    warm_start: str
    store_error: Optional[str] = None


def _resolve_cache(cache: CacheLike,
                   simrank: SimRankConfig) -> Optional[OperatorCache]:
    if isinstance(cache, OperatorCache):
        if simrank.cache_max_bytes is not None:
            cache.max_bytes = simrank.cache_max_bytes
        return cache
    if cache is not None:
        return get_operator_cache(cache, max_bytes=simrank.cache_max_bytes)
    if simrank.cache_dir is not None:
        return get_operator_cache(simrank.cache_dir,
                                  max_bytes=simrank.cache_max_bytes)
    return None


class DynamicOperator:
    """A LocalPush operator kept live under edge updates.

    Construction computes (or warm-starts from the cache) the base
    graph's full-fidelity ``(estimate, residual)`` state;
    :meth:`apply` then repairs it per update batch with delta-sized
    work.  Snapshots under the configured serving contract come from
    :meth:`operator`.

    The maintained state is always float64 and never pruned — pruning
    and the optional float32 cast are snapshot-time projections, so
    repair error never accumulates across updates: after every
    :meth:`apply` the state satisfies the exact invariant
    ``Ŝ + G(R) = S`` of the *current* graph, with
    ``|R| ≤ (1−c)·ε``.

    ``simrank`` supplies the LocalPush plan (ε, decay, workers) and the
    serving contract (top_k, row_normalize, dtype);
    ``dynamic`` the maintenance knobs (see
    :class:`repro.config.DynamicConfig`); ``cache`` an operator cache
    (instance or directory) overriding ``simrank.cache_dir``;
    ``telemetry`` an optional :class:`repro.telemetry.Telemetry` handle —
    when enabled, every :meth:`apply` repair is traced as a
    ``dynamic.repair`` span (attributes ``batch_size``/``num_pushes``/
    ``num_rounds``/``warm_start``).  The cache counts its own events
    whether or not telemetry is on.
    """

    def __init__(self, graph: Graph, *,
                 simrank: Optional[SimRankConfig] = None,
                 dynamic: Optional[DynamicConfig] = None,
                 cache: CacheLike = None,
                 telemetry: Optional["Telemetry"] = None) -> None:
        self._bootstrap(graph.num_nodes,
                        simrank if simrank is not None else SimRankConfig(),
                        dynamic if dynamic is not None else DynamicConfig(),
                        cache, telemetry)
        self.graph = graph
        self.base_fingerprint = graph_fingerprint(graph)
        self.chain = UpdateBatch()

        timer = Timer()
        timer.start()
        warm: Optional[SimRankOperator] = None
        if self._cache is not None:
            warm = self._cache.lookup(graph,
                                      fingerprint=self.base_fingerprint,
                                      **self._maintenance_fields)
        if warm is not None:
            # Estimate-only state: the first apply() uses the
            # reconstruction seeding (see the package docstring), which
            # is exact for any cached estimate within its ε contract.
            self._estimate = sp.csr_matrix(warm.matrix, dtype=np.float64)
            self._residual: Optional[sp.csr_matrix] = None
            self.build_pushes = 0
            self.build_cache_hit = True
        else:
            run = resume_localpush(
                graph,
                sp.identity(graph.num_nodes, dtype=np.float64, format="csr"),
                decay=self.simrank.decay, epsilon=self.simrank.epsilon,
                num_workers=self._num_workers)
            self._estimate = run.estimate_delta
            self._residual = run.residual
            self.build_pushes = run.num_pushes
            self.build_cache_hit = False
        self.build_seconds = timer.stop()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _bootstrap(self, num_nodes: int, simrank: SimRankConfig,
                   dynamic: DynamicConfig, cache: CacheLike,
                   telemetry: Optional["Telemetry"] = None) -> None:
        """Shared attribute setup for both construction paths."""
        from repro.telemetry.runtime import resolve_telemetry

        self.simrank = simrank
        self.dynamic = dynamic
        self.telemetry = resolve_telemetry(telemetry)
        self._tracer = self.telemetry.tracer
        self._cache = _resolve_cache(cache, simrank)
        # The maintained state is full fidelity at reference precision;
        # its cache contract (and the delta-chain key fields) say so.
        # One derivation path: SimRankConfig.cache_key_fields.
        maintenance = simrank.with_overrides(
            method="localpush", top_k=None, row_normalize=False,
            dtype="float64")
        self._maintenance_fields: Dict[str, object] = \
            maintenance.cache_key_fields(num_nodes)
        self._num_workers = resolve_workers(simrank.workers, num_nodes)
        self.updates_applied = 0
        self.repair_pushes = 0
        self.repair_seconds = 0.0

    @classmethod
    def from_chain(cls, base_graph: Graph, updates: Updates, *,
                   simrank: Optional[SimRankConfig] = None,
                   dynamic: Optional[DynamicConfig] = None,
                   cache: CacheLike = None,
                   telemetry: Optional["Telemetry"] = None
                   ) -> Optional["DynamicOperator"]:
        """Rebuild a repaired operator purely from a delta-chained entry.

        Looks up the cache entry keyed by the *base* graph's fingerprint
        plus the batch's content hash (stored by an earlier
        :meth:`apply` with ``store_repaired`` on).  On a hit, returns an
        operator whose graph is ``base_graph.apply_delta(updates)`` and
        whose estimate is the cached repaired snapshot — no push rounds
        at all.  Returns ``None`` on a miss (or without a cache); the
        caller falls back to building and repairing.
        """
        batch = UpdateBatch.coerce(updates)
        simrank = simrank if simrank is not None else SimRankConfig()
        dynamic = dynamic if dynamic is not None else DynamicConfig()
        cache_store = _resolve_cache(cache, simrank)
        if cache_store is None or len(batch) == 0:
            return None
        operator = cls.__new__(cls)
        operator._bootstrap(base_graph.num_nodes, simrank, dynamic, cache,
                            telemetry)
        entry = cache_store.lookup_delta(graph_fingerprint(base_graph),
                                         batch.content_hash(),
                                         operator._maintenance_fields)
        if entry is None:
            return None
        operator.graph = base_graph.apply_delta(batch)
        operator.base_fingerprint = graph_fingerprint(base_graph)
        operator.chain = batch
        operator._estimate = sp.csr_matrix(entry.matrix, dtype=np.float64)
        operator._residual = None
        operator.build_pushes = 0
        operator.build_cache_hit = True
        operator.build_seconds = 0.0
        operator.updates_applied = len(batch)
        return operator

    # ------------------------------------------------------------------ #
    # The repair loop
    # ------------------------------------------------------------------ #
    def apply(self, updates: Updates) -> RepairResult:
        """Apply an update batch and repair the operator to convergence.

        Computes the updated graph, seeds the repair residual (the
        delta-sized correction when a residual is maintained, the
        estimate-only reconstruction after a cache warm start), and
        re-runs the engine's frontier rounds in signed mode until every
        residual entry has magnitude at most ``(1−c)·ε`` — the repaired
        operator then satisfies the same ``< ε`` bound as a fresh
        recompute.  State commits only on success: a failed repair
        (e.g. ``repair_max_pushes`` exceeded) leaves the operator on the
        pre-update graph, still serving.  The delta-chain cache write
        that follows a committed repair is best effort: an ``OSError``
        there (a full disk, say) is reported in
        :attr:`RepairResult.store_error` instead of raised, because the
        repair has already landed.
        """
        batch = UpdateBatch.coerce(updates)
        if len(batch) > self.dynamic.max_batch_edges:
            raise SimRankError(
                f"update batch has {len(batch)} deltas, exceeding "
                f"max_batch_edges={self.dynamic.max_batch_edges}")
        if len(batch) == 0:
            return RepairResult(batch=batch, num_deltas=0, num_pushes=0,
                                num_rounds=0, num_residual_entries=0,
                                repair_seconds=0.0, warm_start="noop")
        timer = Timer()
        timer.start()
        with self._tracer.span("dynamic.repair",
                               batch_size=len(batch)) as span:
            new_graph = self.graph.apply_delta(batch)
            decay = self.simrank.decay
            residual0, warm_start = self._seed_repair(new_graph, decay)
            run = resume_localpush(
                new_graph, residual0, decay=decay,
                epsilon=self.simrank.epsilon,
                max_pushes=self.dynamic.repair_max_pushes,
                num_workers=self._num_workers, copy_residual=False)
            span.set("num_pushes", run.num_pushes)
            span.set("num_rounds", run.num_rounds)
            span.set("warm_start", warm_start)
        estimate = (self._estimate + run.estimate_delta).tocsr()
        estimate.eliminate_zeros()
        estimate.sort_indices()

        self.graph = new_graph
        self._estimate = estimate
        self._residual = run.residual
        self.chain = self.chain + batch
        elapsed = timer.stop()
        self.updates_applied += 1
        self.repair_pushes += run.num_pushes
        self.repair_seconds += elapsed
        return RepairResult(
            batch=batch,
            num_deltas=len(batch),
            num_pushes=run.num_pushes,
            num_rounds=run.num_rounds,
            num_residual_entries=run.num_residual_entries,
            repair_seconds=elapsed,
            warm_start=warm_start,
            store_error=self._store_chain_entry(),
        )

    def _seed_repair(self, new_graph: Graph,
                     decay: float) -> Tuple[sp.csr_matrix, str]:
        """The repair residual ``R₀`` restoring the invariant on ``W′``."""
        walk_new = column_normalize(new_graph.adjacency)
        estimate = self._estimate
        if self._residual is not None:
            # R₀ = R + c·(Δᵀ Ŝ W′ + Wᵀ Ŝ Δ): delta-sized — Δ is nonzero
            # only in the perturbed nodes' columns (identical quotients
            # elsewhere cancel exactly in floating point).
            walk_old = column_normalize(self.graph.adjacency)
            delta_w = (walk_new - walk_old).tocsr()
            delta_w.eliminate_zeros()
            # Association order matters: Δᵀ has few nonzero *rows* and Δ
            # few nonzero *columns*, so both products below stay
            # delta-sized — never form WᵀŜ or ŜW (full n×n work).
            correction = ((delta_w.T @ estimate) @ walk_new
                          + walk_old.T @ (estimate @ delta_w)).tocsr()
            correction.data *= decay
            return (self._residual + correction).tocsr(), "maintained"
        # Estimate-only state (cache warm start):
        # R₀ = I − Ŝ + c·W′ᵀ Ŝ W′ restores the invariant for any Ŝ.
        pushed = ((walk_new.T @ estimate) @ walk_new).tocsr()
        pushed.data *= decay
        identity = sp.identity(new_graph.num_nodes, dtype=np.float64,
                               format="csr")
        return (identity - estimate + pushed).tocsr(), "reconstructed"

    def _store_chain_entry(self) -> Optional[str]:
        """Write the delta-chained snapshot; the error text if it failed."""
        if (self._cache is None or not self.dynamic.store_repaired
                or len(self.chain) == 0):
            return None
        snapshot = self._snapshot(self._maintenance_fields)
        try:
            self._cache.store_delta(self.base_fingerprint,
                                    self.chain.content_hash(),
                                    self._maintenance_fields, snapshot,
                                    fingerprint=graph_fingerprint(self.graph))
        except OSError as error:
            return f"delta-chain cache write failed: {error}"
        return None

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def operator(self) -> SimRankOperator:
        """Snapshot under the configured serving contract.

        Projects the maintained state through the exact pipeline a
        fresh :func:`repro.simrank.topk.simrank_operator` run applies —
        positive-residual absorb, :func:`finalize_estimate` (diagonal
        restore, ε/10 floor when unpruned), the optional float32 cast,
        ``top_k`` pruning and row normalisation — so snapshots and fresh
        operators satisfy the same contract.
        """
        fields = dict(self._maintenance_fields)
        fields["top_k"] = self.simrank.top_k
        fields["row_normalize"] = self.simrank.row_normalize
        fields["dtype"] = None if self.simrank.dtype == "float64" \
            else self.simrank.dtype
        return self._snapshot(fields)

    def _snapshot(self, fields: Dict[str, object]) -> SimRankOperator:
        n = self.graph.num_nodes
        top_k = fields["top_k"]
        row_normalize = bool(fields["row_normalize"])
        residual = self._residual if self._residual is not None \
            else sp.csr_matrix((n, n), dtype=np.float64)
        estimate = self._estimate.copy()
        if residual.nnz:
            rows = csr_row_indices(residual)
            positive = residual.data > 0.0
            if positive.any():
                estimate = estimate + sp.csr_matrix(
                    (residual.data[positive].copy(),
                     (rows[positive],
                      residual.indices[positive].astype(np.int64,
                                                        copy=False))),
                    shape=(n, n))
        epsilon = float(self.simrank.epsilon)
        estimate = finalize_estimate(estimate, residual, epsilon=epsilon,
                                     prune=top_k is None)
        if fields["dtype"] == "float32":
            estimate = estimate.astype(np.float32)
        if top_k is not None:
            estimate = topk_simrank(estimate, int(top_k))
        if row_normalize:
            estimate = sparse_row_normalize(estimate)
        estimate.sort_indices()
        return SimRankOperator(
            matrix=estimate,
            method="localpush",
            decay=self.simrank.decay,
            epsilon=epsilon,
            top_k=None if top_k is None else int(top_k),
            precompute_seconds=0.0,
            row_normalize=row_normalize,
        )

    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def push_threshold(self) -> float:
        """The engine's frontier threshold ``(1−c)·ε``.

        Every maintained-residual entry has magnitude at most this after
        a converged build or repair — the condition giving the ``< ε``
        estimate bound.
        """
        return (1.0 - self.simrank.decay) * float(self.simrank.epsilon)

    @property
    def residual_max(self) -> float:
        """``‖R‖_max`` of the maintained residual (0.0 when estimate-only)."""
        if self._residual is None or self._residual.nnz == 0:
            return 0.0
        return float(np.abs(self._residual.data).max())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DynamicOperator(nodes={self.num_nodes}, "
                f"updates_applied={self.updates_applied}, "
                f"chain={len(self.chain)}, "
                f"repair_pushes={self.repair_pushes})")


__all__ = ["DynamicOperator", "RepairResult", "CacheLike"]
