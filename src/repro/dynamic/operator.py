"""The live LocalPush operator maintained under an edge-update stream.

See the :mod:`repro.dynamic` package docstring for the invariant and the
repair algebra this module implements.  The class here owns three
things: the maintained raw ``(estimate, residual)`` pair (full fidelity
— never top-k pruned, never floor-pruned, float64) with the walk
matrices ``W`` and ``Wᵀ`` of its graph, the repair loop built on
:func:`repro.simrank.engine.resume_localpush`, and the cache
integration: a build warm-starts from its graph's cached entry, and
every repaired snapshot is stored under the key of the graph it
describes, off the repair path, by a short-lived writer thread that
stores the newest committed state (see :meth:`DynamicOperator.flush`).
"""

from __future__ import annotations

import os
import threading
import traceback
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Dict, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np
import scipy.sparse as sp

from repro.config import DynamicConfig, SimRankConfig
from repro.errors import SimRankError
from repro.graphs.delta import UpdateBatch, Updates
from repro.graphs.graph import Graph
from repro.graphs.normalize import column_normalize
from repro.graphs.sparse import sparse_row_normalize
from repro.simrank.cache import OperatorCache, get_operator_cache
from repro.simrank.engine import Walk, positive_residual, resume_localpush
from repro.simrank.localpush import finalize_estimate
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
    """

    batch: UpdateBatch
    num_deltas: int
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    repair_seconds: float
    warm_start: str


class _Committed(NamedTuple):
    """One committed repair, as handed to the snapshot writer.

    No later repair mutates these objects: every :meth:`DynamicOperator.apply`
    builds a new estimate, residual and graph, and only reads the
    committed ones, so the writer reads them without a lock.
    """

    estimate: sp.csr_matrix
    residual: Optional[sp.csr_matrix]
    graph: Graph


def maintained_fields(simrank: SimRankConfig,
                      num_nodes: int) -> Dict[str, object]:
    """Cache-key fields of the maintained state on a ``num_nodes`` graph.

    Full fidelity at reference precision (``top_k=None``,
    ``row_normalize=False``, float64) whatever the serving contract,
    through the one key-field derivation,
    :meth:`repro.config.SimRankConfig.cache_key_fields`.
    """
    maintenance = simrank.with_overrides(
        method="localpush", top_k=None, row_normalize=False, dtype="float64")
    return maintenance.cache_key_fields(num_nodes)


def _walk_of(graph: Graph) -> Walk:
    """``(W, Wᵀ)`` of ``graph`` in the storage order the engine builds.

    ``column_normalize`` leaves each row in ``csr_matmat`` order, not
    sorted; the repair arithmetic, and with it every bit of the
    maintained state, depends on that order, so neither is re-sorted.
    """
    walk = column_normalize(graph.adjacency)
    return walk, walk.T.tocsr()


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

    ``simrank`` supplies the LocalPush plan (ε, decay) and the
    serving contract (top_k, row_normalize, dtype);
    ``dynamic`` the maintenance knobs (see
    :class:`repro.config.DynamicConfig`); ``cache`` an operator cache
    (instance or directory) overriding ``simrank.cache_dir``;
    ``telemetry`` an optional :class:`repro.telemetry.Telemetry` handle —
    when enabled, every :meth:`apply` repair is traced as a
    ``dynamic.repair`` span (attributes ``batch_size``/``num_pushes``/
    ``num_rounds``/``warm_start``) and every snapshot write as a
    ``dynamic.snapshot_write`` span (attribute ``superseded`` and, on
    failure, ``error``).  The cache counts its own events whether or not
    telemetry is on.

    The snapshot write
    ------------------
    With a cache and ``store_repaired``, :meth:`apply` hands the
    committed state to a one-slot mailbox and returns; it neither
    projects nor writes the snapshot.  A writer thread, started when
    none is running, projects the newest waiting state and stores it
    under the key of the graph it describes, then exits once the slot is
    empty.  Latest wins: a state still waiting when a newer repair
    commits is superseded and never written, while the write in flight
    always completes, so entries land in commit order (a graph the
    stream revisits ends up holding its newest state) and at most one
    state is in flight and one waiting however fast updates arrive.
    :meth:`flush` blocks until the writer is idle.  A failed write never
    undoes its repair: the error text is kept for :meth:`flush` and
    passed to ``on_write_error`` (called on the writer thread), if given.
    """

    def __init__(self, graph: Graph, *,
                 simrank: Optional[SimRankConfig] = None,
                 dynamic: Optional[DynamicConfig] = None,
                 cache: CacheLike = None,
                 telemetry: Optional["Telemetry"] = None,
                 on_write_error: Optional[Callable[[str], None]] = None
                 ) -> None:
        from repro.telemetry.runtime import resolve_telemetry

        self.simrank = simrank if simrank is not None else SimRankConfig()
        self.dynamic = dynamic if dynamic is not None else DynamicConfig()
        self.telemetry = resolve_telemetry(telemetry)
        self._tracer = self.telemetry.tracer
        self._cache = _resolve_cache(cache, self.simrank)
        self._maintenance_fields = maintained_fields(self.simrank,
                                                     graph.num_nodes)
        self.graph = graph
        self.updates_applied = 0
        self.repair_pushes = 0
        self.repair_seconds = 0.0
        # The snapshot writer's mailbox, all guarded by _write_lock:
        # _waiting is the one slot, _writing says a writer thread will
        # still read it, and _writer is the last thread started (kept
        # after it exits so flush() can join it).
        self._on_write_error = on_write_error
        self._write_lock = threading.Lock()
        self._waiting: Optional[_Committed] = None
        self._superseded = 0
        self._writing = False
        self._writer: Optional[threading.Thread] = None
        self._write_error: Optional[str] = None

        timer = Timer()
        timer.start()
        self._walk = _walk_of(graph)
        warm: Optional[SimRankOperator] = None
        if self._cache is not None:
            warm = self._cache.lookup(graph, **self._maintenance_fields)
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
                walk=self._walk)
            self._estimate = run.estimate_delta
            self._residual = run.residual
            self.build_pushes = run.num_pushes
            self.build_cache_hit = False
        self.build_seconds = timer.stop()

    # ------------------------------------------------------------------ #
    # The repair loop
    # ------------------------------------------------------------------ #
    def apply(self, updates: Updates,
              updated: Optional[Graph] = None) -> RepairResult:
        """Apply an update batch and repair the operator to convergence.

        Computes the updated graph, seeds the repair (the delta-sized
        correction when a residual is maintained, the estimate-only
        reconstruction after a cache warm start), and re-runs the
        engine's frontier rounds in signed mode until every residual
        entry has magnitude at most ``(1−c)·ε`` — the repaired operator
        then satisfies the same ``< ε`` bound as a fresh recompute.
        ``updated`` is ``self.graph.apply_delta(updates)`` when the
        caller has already built it from this operator's graph (it is
        trusted, not rebuilt).  State commits only on success: a failed
        repair (e.g. ``repair_max_pushes`` exceeded) leaves the operator
        on the pre-update graph, still serving, its arrays untouched.  A
        committed repair is handed to the background snapshot writer
        (see the class docstring) and this returns without waiting for
        the write; :meth:`flush` waits.
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
            new_graph = (self.graph.apply_delta(batch) if updated is None
                         else updated)
            walk_new = _walk_of(new_graph)
            residual0, increment, warm_start = self._seed_repair(walk_new)
            run = resume_localpush(
                new_graph, residual0, decay=self.simrank.decay,
                epsilon=self.simrank.epsilon,
                max_pushes=self.dynamic.repair_max_pushes,
                increment=increment, walk=walk_new)
            span.set("num_pushes", run.num_pushes)
            span.set("num_rounds", run.num_rounds)
            span.set("warm_start", warm_start)
        # csr_plus_csr stores no zero; the sort only checks the order
        # unless a cached estimate came in unsorted.
        estimate = self._estimate + run.estimate_delta
        estimate.sort_indices()

        self.graph = new_graph
        self._walk = walk_new
        self._estimate = estimate
        self._residual = run.residual
        elapsed = timer.stop()
        self.updates_applied += 1
        self.repair_pushes += run.num_pushes
        self.repair_seconds += elapsed
        if self._cache is not None and self.dynamic.store_repaired:
            self._publish(_Committed(estimate, run.residual, new_graph))
        return RepairResult(
            batch=batch,
            num_deltas=len(batch),
            num_pushes=run.num_pushes,
            num_rounds=run.num_rounds,
            num_residual_entries=run.num_residual_entries,
            repair_seconds=elapsed,
            warm_start=warm_start,
        )

    def _seed_repair(self, walk_new: Walk) -> Tuple[
            sp.csr_matrix, Optional[sp.csr_matrix], str]:
        """The repair's start on ``W′``: ``(residual, increment, warm_start)``.

        With a maintained residual ``R`` the start is ``R`` plus the
        correction as a separate increment, which the engine's increment
        loop merges as it goes (``R`` is only read).  After a cache warm
        start it is the reconstructed ``R₀`` alone, which the engine
        scans.
        """
        decay = self.simrank.decay
        estimate = self._estimate
        walk_old, _ = self._walk
        walk_new_matrix, _ = walk_new
        if self._residual is not None:
            # R₀ = R + c·(Δᵀ Ŝ W′ + Wᵀ Ŝ Δ): delta-sized — Δ is nonzero
            # only in the perturbed nodes' columns (identical quotients
            # elsewhere cancel exactly in floating point).
            delta_w = (walk_new_matrix - walk_old).tocsr()
            delta_w.eliminate_zeros()
            # Association order matters: Δᵀ has few nonzero *rows* and Δ
            # few nonzero *columns*, so both products below stay
            # delta-sized — never form WᵀŜ or ŜW (full n×n work).
            correction = ((delta_w.T @ estimate) @ walk_new_matrix
                          + walk_old.T @ (estimate @ delta_w)).tocsr()
            correction.data *= decay
            return self._residual, correction, "maintained"
        # Estimate-only state (cache warm start):
        # R₀ = I − Ŝ + c·W′ᵀ Ŝ W′ restores the invariant for any Ŝ.
        pushed = ((walk_new_matrix.T @ estimate) @ walk_new_matrix).tocsr()
        pushed.data *= decay
        identity = sp.identity(estimate.shape[0], dtype=np.float64,
                               format="csr")
        return (identity - estimate + pushed).tocsr(), None, "reconstructed"

    # ------------------------------------------------------------------ #
    # The snapshot writer
    # ------------------------------------------------------------------ #
    def _publish(self, state: _Committed) -> None:
        """Put ``state`` in the writer's slot; start a writer if none runs."""
        with self._write_lock:
            if self._waiting is not None:
                self._superseded += 1
            self._waiting = state
            if self._writing:
                return
            self._writing = True
            # Started under the lock, so flush() never sees a thread it
            # cannot join yet.  Not a daemon thread, whoever publishes:
            # interpreter exit waits for the write instead of leaving a
            # temporary file behind.
            self._writer = threading.Thread(target=self._write_loop,
                                            name="repro-snapshot-writer",
                                            daemon=False)
            self._writer.start()

    def _write_loop(self) -> None:
        """Writer thread body: write the newest state until none waits.

        Taking the empty slot and clearing ``_writing`` happen under one
        lock hold, so a state published after that starts a new thread
        instead of waiting for this one.
        """
        try:
            while True:
                with self._write_lock:
                    state, self._waiting = self._waiting, None
                    superseded, self._superseded = self._superseded, 0
                    if state is None:
                        self._writing = False
                        return
                self._write_entry(state, superseded)
        finally:
            # _writing is still set here only if _write_entry raised (the
            # callback, say): clear it so a later publish starts a writer.
            # After a normal exit a newer thread may own the flag.
            with self._write_lock:
                if self._writer is threading.current_thread():
                    self._writing = False

    def _write_entry(self, state: _Committed, superseded: int) -> None:
        """Project ``state`` and store it under its graph's key."""
        cache = self._cache
        assert cache is not None  # only published with a cache
        with self._tracer.span("dynamic.snapshot_write",
                               superseded=superseded) as span:
            try:
                snapshot = self._snapshot(self._maintenance_fields,
                                          state.estimate, state.residual)
                cache.store_delta(state.graph, self._maintenance_fields,
                                  snapshot)
                return
            except OSError as error:
                message = f"repaired-snapshot cache write failed: {error}"
            except Exception:  # the writer thread's boundary: record it
                message = ("repaired-snapshot cache write failed:\n"
                           + traceback.format_exc())
            span.set("error", message)
        self._write_error = message
        if self._on_write_error is not None:
            self._on_write_error(message)

    def flush(self) -> Optional[str]:
        """Block until no snapshot write is waiting or in flight.

        Returns the text of the last failed write (``None`` if none has
        failed).  On return the newest state committed before the call
        is stored (or its failure recorded) and no writer thread is
        alive.
        """
        while True:
            with self._write_lock:
                writer = self._writer
            if writer is None:
                break
            writer.join()
            with self._write_lock:
                if self._writer is writer:
                    break
        return self._write_error

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
        return self._snapshot(fields, self._estimate, self._residual)

    def _snapshot(self, fields: Dict[str, object], estimate: sp.csr_matrix,
                  residual: Optional[sp.csr_matrix]) -> SimRankOperator:
        """Project a maintained ``(estimate, residual)`` pair under ``fields``.

        Reads its arguments and never writes them, so the snapshot writer
        can project a committed state while the next repair runs.
        """
        n = estimate.shape[0]
        top_k = fields["top_k"]
        row_normalize = bool(fields["row_normalize"])
        if residual is None:
            residual = sp.csr_matrix((n, n), dtype=np.float64)
        # finalize_estimate prunes in place: hand it a new matrix.
        leftover = positive_residual(residual)
        estimate = (estimate.copy() if leftover is None
                    else estimate + leftover)
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
                f"repair_pushes={self.repair_pushes})")


__all__ = ["DynamicOperator", "RepairResult", "CacheLike",
           "maintained_fields"]
