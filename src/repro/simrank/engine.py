"""Unified LocalPush engine core: one round loop, one worker-count setting.

This module owns the *single* implementation of the batched LocalPush
loop (Algorithm 1 of the paper, frontier-batched form).  The only
execution setting is ``num_workers``, the size of the thread pool that
pushes each round's shards:

``num_workers=1``
    Every shard is pushed inline in the calling thread.
``num_workers=k`` (``k ≥ 2``)
    Multi-shard rounds are pushed by a
    :class:`concurrent.futures.ThreadPoolExecutor` of ``k`` threads,
    started on the first multi-shard round; single-shard rounds still
    run inline.  scipy's sparse matmul releases the GIL, so the shard
    pushes of one round run in parallel on a multi-core host.

Callers holding an unresolved request (``SimRankConfig.workers``, where
``None`` means "pick by graph size") resolve it with
:func:`repro.simrank.localpush.resolve_workers` first.

Every round works on the same deterministic plan:

1. gather the above-threshold frontier from the CSR residual,
2. absorb it into the estimate,
3. partition it into shards ``F = Σ_i F_i`` — the partition is a
   function of the frontier alone (``num_shards`` fixed by the caller or
   derived from the frontier size), **never** of the worker count,
4. push the shards and merge the partial updates ``c·Wᵀ F_i W`` *in
   shard order*, no matter which thread finished first.

Because the push operator is linear in ``F`` and the shard partition and
merge order are worker-independent, the returned matrix is
**bit-identical for every worker count** — the property the operator
cache relies on (its key excludes the knob) and the equivalence suite
pins.  The residual invariant and the shared
:func:`repro.simrank.localpush.finalize_estimate` semantics hold for
every worker count.  The engine returns the whole finished estimate;
top-k pruning is the caller's, applied once after the loop (see the
module docstring of :mod:`repro.simrank`).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.normalize import column_normalize
from repro.graphs.sparse import csr_row_indices as _csr_rows
from repro.simrank.exact import DEFAULT_DECAY
from repro.simrank.kernels import (DTYPES, FusedRoundState, shard_bounds,
                                   working_dtype)
from repro.telemetry.tracing import NULL_TRACER, Tracer
from repro.utils.timer import Timer
from repro.utils.validation import is_integral

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.simrank.localpush import LocalPushResult

#: Target number of frontier entries per shard when ``num_shards`` is not
#: given.  Chosen so a shard's ``Wᵀ F_i W`` stays comfortably inside cache
#: while leaving enough shards to occupy a small worker pool.
DEFAULT_SHARD_NNZ = 8192

#: Upper bound applied to the default worker count.
DEFAULT_MAX_WORKERS = 4


def default_num_workers() -> int:
    """Pool size used when the worker count is left to the engine."""
    return max(1, min(DEFAULT_MAX_WORKERS, os.cpu_count() or 1))


def _push_matrix(walk_t: sp.csr_matrix, walk: sp.csr_matrix,
                 shard: sp.csr_matrix, decay: float) -> sp.csr_matrix:
    """One shard matrix's partial update ``c·Wᵀ F_i W`` (pure)."""
    pushed = ((walk_t @ shard) @ walk).tocsr()
    pushed.data *= decay
    return pushed


class _ThreadExecutor:
    """Push a round's shard matrices, on a thread pool when it pays.

    Rounds of a single shard, and every round when ``workers == 1``, run
    inline in the calling thread.  The pool starts on the first
    multi-shard round, so runs whose rounds all fit one shard never
    create it.  Partials come back in shard order either way, which is
    what keeps every worker count bit-identical.
    """

    def __init__(self, walk: sp.csr_matrix, walk_t: sp.csr_matrix,
                 decay: float, workers: int) -> None:
        self._walk, self._walk_t = walk, walk_t
        self._decay = decay
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def push_round_matrices(self, matrices: Sequence[sp.csr_matrix]
                            ) -> List[sp.csr_matrix]:
        if self.workers == 1 or len(matrices) <= 1:
            return [_push_matrix(self._walk_t, self._walk, matrix,
                                 self._decay) for matrix in matrices]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.workers)
        futures = [self._pool.submit(_push_matrix, self._walk_t, self._walk,
                                     matrix, self._decay)
                   for matrix in matrices]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


# --------------------------------------------------------------------- #
# The engine core
# --------------------------------------------------------------------- #
@dataclass
class _EngineRun:
    """Raw outcome of one push-round loop, before result packaging."""

    estimate: sp.csr_matrix
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    elapsed_seconds: float
    max_shards_used: int
    #: Final residual, attached only when the caller asked to keep it
    #: (``keep_residual=True`` — the dynamic-maintenance path).
    residual: Optional[sp.csr_matrix] = None


def _validate_engine_args(decay: float, epsilon: float, num_workers: int,
                          num_shards: Optional[int],
                          dtype: str = "float64") -> None:
    if not 0.0 < decay < 1.0:
        raise SimRankError(f"decay factor c must be in (0, 1), got {decay}")
    if epsilon <= 0.0:
        raise SimRankError(f"epsilon must be positive, got {epsilon}")
    if dtype not in DTYPES:
        raise SimRankError(f"unknown LocalPush dtype {dtype!r}; "
                           f"expected one of {DTYPES}")
    if isinstance(num_workers, bool) or not isinstance(num_workers, int) \
            or num_workers < 1:
        raise SimRankError(
            f"num_workers must be a positive integer, got {num_workers!r}")
    if num_shards is not None and num_shards < 1:
        raise SimRankError(f"num_shards must be >= 1, got {num_shards}")


def _seed_residual(n: int, seed_nodes: Optional[np.ndarray],
                   dtype: np.dtype = np.dtype(np.float64)) -> sp.csr_matrix:
    """Initial residual: the identity restricted to ``seed_nodes``.

    ``seed_nodes=None`` seeds every node (the all-pairs run).  A restricted
    seed set is exact for the seeded nodes' connected components: the
    push operator ``c·Wᵀ F W`` never creates an entry ``(a, b)`` with
    ``a`` and ``b`` outside the components the mass started in, so seeds
    from other components contribute nothing to the restricted rows.
    """
    if seed_nodes is None:
        return sp.identity(n, dtype=dtype, format="csr")
    counts = np.zeros(n, dtype=np.int64)
    counts[seed_nodes] = 1
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    data = np.ones(seed_nodes.size, dtype=dtype)
    return sp.csr_matrix((data, seed_nodes.astype(np.int64, copy=False),
                          indptr), shape=(n, n))


def _fold_absorbed(rows: Sequence[np.ndarray], cols: Sequence[np.ndarray],
                   data: Sequence[np.ndarray], n: int) -> sp.csr_matrix:
    """Sum the per-round absorbed frontiers into one canonical CSR estimate.

    Every entry's absorptions are added left to right in round order,
    whatever else the run absorbed, so a single-source run — which
    keeps only its sources' rows — sums each of those entries exactly
    as the all-pairs run does and returns bitwise the same rows, ties
    included.  (A COO→CSR build would sum duplicates in the order of
    scipy's unstable index sort, which depends on the whole array and
    differs from round order by ulps on longer rows.)
    """
    row = np.concatenate(rows)
    col = np.concatenate(cols)
    order = np.argsort(row * n + col, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=indptr[1:])
    estimate = sp.csr_matrix((np.concatenate(data)[order], col[order], indptr),
                             shape=(n, n))
    # The stable sort already ordered every row; skipping scipy's own
    # (unstable) sort leaves csr_sum_duplicates its sequential,
    # round-order accumulation.
    estimate.has_sorted_indices = True
    estimate.sum_duplicates()
    return estimate


def _run_rounds(graph: Graph, *, decay: float, epsilon: float, prune: bool,
                absorb_residual: bool, max_pushes: Optional[int],
                num_workers: int,
                num_shards: Optional[int],
                coalesce_every: int,
                seed_nodes: Optional[np.ndarray] = None,
                absorb_rows: Optional[np.ndarray] = None,
                dtype: str = "float64",
                tracer: Tracer = NULL_TRACER,
                initial_residual: Optional[sp.csr_matrix] = None,
                copy_residual: bool = True,
                signed: bool = False, finalize: bool = True,
                keep_residual: bool = False) -> _EngineRun:
    """The shared frontier-batched round loop.

    The per-round CSR arithmetic is delegated to a
    :class:`repro.simrank.kernels.FusedRoundState`; this loop owns the
    round plan — extract, absorb, shard, push, coalesce — and the
    accounting.

    ``seed_nodes``/``absorb_rows`` are the single-source restriction
    hooks: the residual starts as the identity restricted to
    ``seed_nodes`` (``None`` = all nodes) and only estimate entries whose
    row is in ``absorb_rows`` are materialised (``None`` = all rows).
    Every arithmetic operation on an absorbed row is identical to the
    unrestricted run whenever the shard partitions coincide — CSR
    matmul, addition, thresholding and duplicate folding are all per-row
    independent — which is what makes single-source rows bit-identical
    to the all-pairs rows (see ``single_source_localpush`` for the
    precise guarantee).

    The dynamic-maintenance hooks (all defaulted off, leaving every
    fresh run bit-identical to the pre-hook loop):

    ``initial_residual``
        Warm-start residual replacing the identity seeding — the repair
        residual of :mod:`repro.dynamic`.  Copied before use; the
        caller's matrix is never mutated.
    ``signed``
        Magnitude-threshold frontier extraction (``|R| > threshold``)
        for residuals that carry negative mass.
    ``finalize``
        ``False`` skips :func:`finalize_estimate` (diagonal restore and
        ε/10 floor) so the returned estimate is the raw absorbed
        frontier sum — the quantity the repair algebra adds to a
        maintained estimate.
    ``keep_residual``
        Attach the final residual to the returned :class:`_EngineRun`.
    """
    from repro.simrank.localpush import finalize_estimate

    n = graph.num_nodes
    threshold = (1.0 - decay) * epsilon
    np_dtype = working_dtype(dtype)
    walk = column_normalize(graph.adjacency)     # W = A D⁻¹
    if walk.dtype != np_dtype:
        walk = walk.astype(np_dtype)
    walk_t = walk.T.tocsr()
    runner = _ThreadExecutor(walk, walk_t, decay, num_workers)

    if initial_residual is not None:
        residual = sp.csr_matrix(initial_residual, dtype=np_dtype,
                                 copy=copy_residual)
        if residual.shape != (n, n):
            raise SimRankError(
                f"initial residual must have shape {(n, n)}, "
                f"got {residual.shape}")
        residual.sort_indices()
        residual.eliminate_zeros()
    else:
        residual = _seed_residual(n, seed_nodes, np_dtype)
    state = FusedRoundState(residual, n=n, dtype=np_dtype,
                            index_dtype=walk.indices.dtype,
                            tracer=tracer, signed=signed)
    absorb_mask: Optional[np.ndarray] = None
    if absorb_rows is not None:
        absorb_mask = np.zeros(n, dtype=bool)
        absorb_mask[absorb_rows] = True
    # Absorbed frontiers accumulate as triplets, folded once at the end.
    est_rows: list[np.ndarray] = []
    est_cols: list[np.ndarray] = []
    est_data: list[np.ndarray] = []

    num_pushes = 0
    num_rounds = 0
    max_shards_used = 0
    timer = Timer()
    timer.start()
    try:
        while True:
            frontier = state.extract_frontier(threshold)
            if frontier is None:
                break
            count = frontier.count

            # Absorb the frontier into the estimate (line 4 of Algorithm 1,
            # batched); the round state has already cleared it from the
            # residual.
            if absorb_mask is not None:
                keep = absorb_mask[frontier.rows]
                if keep.any():
                    est_rows.append(frontier.rows[keep])
                    est_cols.append(frontier.cols[keep])
                    est_data.append(frontier.data[keep])
            else:
                est_rows.append(frontier.rows)
                est_cols.append(frontier.cols)
                est_data.append(frontier.data)
            num_pushes += count
            if max_pushes is not None and num_pushes > max_pushes:
                raise SimRankError(
                    f"LocalPush exceeded max_pushes={max_pushes}; "
                    "epsilon is likely too small for this graph"
                )

            # Shard the frontier by stored-entry ranges.  The partition is
            # a function of the frontier only, never of the worker count.
            shards = num_shards if num_shards is not None else max(
                1, -(-count // DEFAULT_SHARD_NNZ))
            shards = min(shards, count)
            max_shards_used = max(max_shards_used, shards)
            bounds = shard_bounds(count, shards)

            state.push_round(runner, frontier, bounds)
            num_rounds += 1
            if num_rounds % coalesce_every == 0:
                state.coalesce()
    finally:
        runner.close()
    residual = state.finish()
    residual.eliminate_zeros()
    elapsed = timer.stop()

    estimate = (_fold_absorbed(est_rows, est_cols, est_data, n) if est_data
                else sp.csr_matrix((n, n), dtype=np_dtype))

    if absorb_residual and residual.nnz:
        positive = residual.data > 0.0
        if absorb_mask is not None:
            positive &= absorb_mask[_csr_rows(residual)]
        if positive.any():
            # The kept entries in the residual's own CSR layout: no COO
            # sort, which dominated when every row is absorbed.
            leftover_mass = sp.csr_matrix(
                (residual.data * positive, residual.indices.copy(),
                 residual.indptr.copy()), shape=(n, n))
            leftover_mass.eliminate_zeros()
            estimate = estimate + leftover_mass

    if finalize:
        estimate = finalize_estimate(estimate, residual, epsilon=epsilon,
                                     prune=prune)

    if signed:
        leftover = int(residual.nnz)  # eliminate_zeros ran: all nonzero
    else:
        leftover = int(np.count_nonzero(residual.data > 0.0))
    return _EngineRun(
        estimate=estimate,
        num_pushes=num_pushes,
        num_rounds=num_rounds,
        num_residual_entries=leftover,
        elapsed_seconds=elapsed,
        max_shards_used=max_shards_used,
        residual=residual if keep_residual else None,
    )


def localpush_engine(graph: Graph, *, decay: float = DEFAULT_DECAY,
                     epsilon: float = 0.1, prune: bool = True,
                     absorb_residual: bool = False,
                     max_pushes: int | None = None,
                     num_workers: int = 1,
                     num_shards: Optional[int] = None,
                     coalesce_every: int = 4,
                     dtype: str = "float64",
                     tracer: Tracer = NULL_TRACER
                     ) -> "LocalPushResult":
    """Run the batched LocalPush round loop.

    Parameters mirror :func:`repro.simrank.localpush.localpush_simrank`
    (which resolves the worker count and dispatches here), plus:

    num_workers:
        Resolved thread-pool size for the shard pushes; ``1`` (the
        default) pushes every shard inline.  The result is bit-identical
        for every worker count (see the module docstring), so this is
        purely a throughput knob.
    dtype:
        ``"float64"`` (default) or ``"float32"``.  float32 halves the
        working-set memory at the cost of a slightly enlarged error
        bound (:func:`repro.simrank.kernels.float32_error_bound`) and a
        separate operator-cache key.
    tracer:
        :class:`repro.telemetry.tracing.Tracer` on which the round
        kernel opens one ``localpush.<phase>`` span (frontier/push/
        merge/prune, attributes ``phase`` and ``round``) per phase
        interval.  The default :data:`repro.telemetry.NULL_TRACER`
        records nothing; traced and untraced runs are bit-identical.
    num_shards:
        Fixed shard count per round.  Defaults to
        ``ceil(frontier_nnz / DEFAULT_SHARD_NNZ)``, recomputed per round
        from the frontier alone so results stay independent of the pool
        size.
    """
    from repro.simrank.localpush import LocalPushResult

    _validate_engine_args(decay, epsilon, num_workers, num_shards, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
                      num_workers=num_workers, num_shards=num_shards,
                      coalesce_every=coalesce_every, dtype=dtype,
                      tracer=tracer)
    return LocalPushResult(
        matrix=run.estimate,
        num_pushes=run.num_pushes,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        epsilon=epsilon,
        decay=decay,
        num_rounds=run.num_rounds,
        num_workers=num_workers,
        num_shards=run.max_shards_used,
        dtype=dtype,
    )


# --------------------------------------------------------------------- #
# Warm-started (repair) runs
# --------------------------------------------------------------------- #
@dataclass
class ResumeRun:
    """Outcome of a warm-started round loop (:func:`resume_localpush`).

    ``estimate_delta`` is the raw absorbed frontier sum of the resumed
    rounds — no diagonal restore, no ε/10 floor — i.e. the correction a
    maintained estimate adds to itself.  ``residual`` is the final
    residual with every entry magnitude ``≤ (1−c)·ε``.
    """

    estimate_delta: sp.csr_matrix
    residual: sp.csr_matrix
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    elapsed_seconds: float
    max_shards_used: int


def resume_localpush(graph: Graph, initial_residual: sp.csr_matrix, *,
                     decay: float = DEFAULT_DECAY, epsilon: float = 0.1,
                     max_pushes: Optional[int] = None,
                     num_workers: int = 1,
                     num_shards: Optional[int] = None,
                     coalesce_every: int = 4,
                     dtype: str = "float64",
                     copy_residual: bool = True) -> ResumeRun:
    """Resume the round loop from an explicit (possibly signed) residual.

    This is the engine entry point of the dynamic subsystem
    (:mod:`repro.dynamic`): given a residual ``R₀`` that restores the
    LocalPush invariant ``Ŝ + G(R₀) = S`` for some maintained estimate
    ``Ŝ`` on ``graph``, it runs the standard frontier rounds — any
    worker count, same shard plan, same bit-determinism argument — in
    *signed* mode (``|R| > (1−c)·ε``
    frontier threshold, since repair residuals carry negative mass for
    deleted edges) until convergence.  ``Ŝ + estimate_delta`` then
    satisfies the same ``(1−c)·ε`` residual bound, and hence the same
    ``< ε`` error bound, as a fresh run (see the :mod:`repro.dynamic`
    package docstring for the algebra).

    The caller's ``initial_residual`` is copied, never mutated — unless
    ``copy_residual=False``, which hands the matrix's buffers to the
    round loop (the dynamic operator passes a residual it just built and
    owns; the defensive copy is measurable at repair latencies).
    The single-source restrictions do not apply to repair runs.
    """
    _validate_engine_args(decay, epsilon, num_workers, num_shards, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=False,
                      absorb_residual=False, max_pushes=max_pushes,
                      num_workers=num_workers, num_shards=num_shards,
                      coalesce_every=coalesce_every, dtype=dtype,
                      initial_residual=initial_residual,
                      copy_residual=copy_residual, signed=True,
                      finalize=False, keep_residual=True)
    assert run.residual is not None
    return ResumeRun(
        estimate_delta=run.estimate,
        residual=run.residual,
        num_pushes=run.num_pushes,
        num_rounds=run.num_rounds,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        max_shards_used=run.max_shards_used,
    )


# --------------------------------------------------------------------- #
# Single-source queries
# --------------------------------------------------------------------- #
@dataclass
class SingleSourceResult:
    """One source row of the SimRank matrix, with the run's telemetry.

    ``estimate`` is the whole call's ``n×n`` CSR estimate, shared by every
    result of the call: it holds the row of each source of the call, and
    other rows hold at most a diagonal entry.  ``row`` is row ``source``
    of it as a ``1×n`` CSR matrix, built on first read, with
    ``‖Ŝ[source] − S[source]‖_max < ε`` (same Lemma III.5 bound as the
    all-pairs engine).  Batch queries share one round loop, so
    ``num_pushes``/``num_rounds``/``elapsed_seconds`` describe the whole
    batch, not the one source.
    """

    source: int
    estimate: sp.csr_matrix
    num_pushes: int
    num_rounds: int
    num_residual_entries: int
    elapsed_seconds: float
    epsilon: float
    decay: float
    num_workers: int
    num_shards: int
    component_size: int
    batch_size: int = 1

    @cached_property
    def row(self) -> sp.csr_matrix:
        return self.estimate.getrow(self.source)

    @property
    def nnz(self) -> int:
        return int(self.row.nnz)


def _validate_sources(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    """The node ids ``sources`` as an int64 array, each checked first.

    The one node-id check of every single-source query (the engine,
    ``repro.api``, the cached-row lookup and the serving ladder).  Each
    id must be integral (:func:`repro.utils.validation.is_integral`:
    ``3.7``, ``True`` and ``"3"`` are rejected, never truncated or
    parsed) and in ``[0, n)``; anything else, or no id at all, raises
    :class:`SimRankError`.
    """
    ids = list(sources)
    for source in ids:
        if not is_integral(source):
            raise SimRankError(f"node ids must be integers, got {source!r}")
    source_array = np.asarray(ids, dtype=np.int64)
    if source_array.ndim != 1 or source_array.size == 0:
        raise SimRankError("sources must be a non-empty sequence of node ids")
    n = graph.num_nodes
    bad = (source_array < 0) | (source_array >= n)
    if bad.any():
        raise SimRankError(
            f"source node(s) {sorted(int(s) for s in source_array[bad])} "
            f"out of range for a graph with {n} nodes")
    return source_array


def multi_source_localpush(graph: Graph, sources: Sequence[int], *,
                           decay: float = DEFAULT_DECAY,
                           epsilon: float = 0.1, prune: bool = True,
                           absorb_residual: bool = False,
                           max_pushes: int | None = None,
                           num_workers: int = 1,
                           num_shards: Optional[int] = None,
                           coalesce_every: int = 4,
                           dtype: str = "float64"
                           ) -> List[SingleSourceResult]:
    """Batched single-source LocalPush: one shared round loop, many rows.

    Seeds the residual with the identity restricted to the sources'
    connected components (the only seeds whose mass can reach the query
    rows — the push operator never crosses components) and materialises
    estimate entries only for the requested rows, so memory is
    ``O(rounds × per-row frontier)`` instead of ``O(n²)`` while the
    residual work is bounded by the touched components, not the graph.

    **Equivalence guarantee** (pinned by the single-source suite): each
    returned ``row`` is *bit-identical* to the corresponding row of
    ``localpush_engine(...)`` — for every worker count — whenever the per-round shard partitions of the two
    runs coincide: always on a connected graph (the frontiers, and hence
    the partition derived from them, are identical), and on any graph
    when every round fits one shard (the ``DEFAULT_SHARD_NNZ`` default
    for all but huge frontiers).  With a forced multi-shard split on a
    *disconnected* graph the partial-sum order may differ and rows agree
    only to float round-off (still within the ``(1−c)·ε`` bound).
    Rows come back un-truncated; :func:`repro.graphs.sparse.top_k_row`
    prunes one exactly as ``top_k_per_row`` prunes the all-pairs
    operator.

    Results are returned in input order; duplicate sources share one
    result object.  Every result carries the call's one ``estimate``
    matrix; a result's ``1×n`` ``row`` is sliced from it only when read,
    so a call over a whole component costs the round loop, not one row
    copy per source.
    """
    _validate_engine_args(decay, epsilon, num_workers, num_shards, dtype)
    source_array = _validate_sources(graph, sources)
    unique_sources = np.unique(source_array)

    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency, directed=False)
    wanted = labels[unique_sources]
    seed_nodes = np.flatnonzero(np.isin(labels, wanted))

    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
                      num_workers=num_workers, num_shards=num_shards,
                      coalesce_every=coalesce_every,
                      seed_nodes=seed_nodes, absorb_rows=unique_sources,
                      dtype=dtype)

    # Plain ints, not numpy scalars: a whole component builds one result
    # per node.
    component_sizes = np.bincount(labels)[wanted].tolist()
    results = {source: SingleSourceResult(
        source=source,
        estimate=run.estimate,
        num_pushes=run.num_pushes,
        num_rounds=run.num_rounds,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        epsilon=epsilon,
        decay=decay,
        num_workers=num_workers,
        num_shards=run.max_shards_used,
        component_size=size,
        batch_size=int(unique_sources.size),
    ) for source, size in zip(unique_sources.tolist(), component_sizes)}
    return [results[source] for source in source_array.tolist()]


def single_source_localpush(graph: Graph, source: int, *,
                            decay: float = DEFAULT_DECAY,
                            epsilon: float = 0.1, prune: bool = True,
                            absorb_residual: bool = False,
                            max_pushes: int | None = None,
                            num_workers: int = 1,
                            num_shards: Optional[int] = None,
                            coalesce_every: int = 4,
                            dtype: str = "float64") -> SingleSourceResult:
    """Single-source LocalPush: row ``source`` of the SimRank matrix.

    A one-element :func:`multi_source_localpush` batch; see there for
    the bit-identical equivalence guarantee and the complexity argument.
    """
    return multi_source_localpush(
        graph, [source], decay=decay, epsilon=epsilon, prune=prune,
        absorb_residual=absorb_residual, max_pushes=max_pushes,
        num_workers=num_workers, num_shards=num_shards,
        coalesce_every=coalesce_every, dtype=dtype)[0]


__all__ = ["localpush_engine", "resume_localpush", "ResumeRun",
           "single_source_localpush", "multi_source_localpush",
           "SingleSourceResult", "default_num_workers",
           "DEFAULT_SHARD_NNZ", "DEFAULT_MAX_WORKERS"]
