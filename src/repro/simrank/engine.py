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
pins.  The residual invariant, the streaming top-k prune with its
``‖R‖_max/(1−c)`` correction bound and the shared
:func:`repro.simrank.localpush.finalize_estimate` semantics hold for
every worker count; see the module docstring of :mod:`repro.simrank`
for the error-bound arguments.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.normalize import column_normalize
from repro.graphs.sparse import csr_row_indices as _csr_rows
from repro.graphs.sparse import top_k_per_row
from repro.simrank.exact import DEFAULT_DECAY
from repro.simrank.kernels import (DTYPES, FusedRoundState, shard_bounds,
                                   working_dtype)
from repro.telemetry.tracing import NULL_TRACER, Tracer
from repro.utils.timer import Timer

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
                          stream_top_k: Optional[int],
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
    if stream_top_k is not None and stream_top_k < 1:
        raise SimRankError(f"stream_top_k must be >= 1, got {stream_top_k}")


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

    Every entry's absorptions are added left to right in round order —
    the association of the streaming estimate's per-round fold — so a
    streamed top-k and a post-hoc top-k of this estimate select the same
    entries with bitwise the same values, ties included.  (A COO→CSR
    build would sum duplicates in the order of scipy's unstable index
    sort, which differs from round order by ulps on longer rows.)
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
                num_shards: Optional[int], stream_top_k: Optional[int],
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
    round plan — extract, absorb, shard, push, coalesce, prune — and the
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

    Streaming top-k runs in-loop only for unrestricted runs; restricted
    runs accumulate triplets and apply the identical
    ``top_k_per_row(..., keep_diagonal=True)`` semantics post hoc.

    The dynamic-maintenance hooks (all defaulted off, leaving every
    fresh run bit-identical to the pre-hook loop):

    ``initial_residual``
        Warm-start residual replacing the identity seeding — the repair
        residual of :mod:`repro.dynamic`.  Copied before use; the
        caller's matrix is never mutated.
    ``signed``
        Magnitude-threshold frontier extraction (``|R| > threshold``)
        for residuals that carry negative mass; excludes streaming
        top-k, whose prune slack assumes non-negative residuals.
    ``finalize``
        ``False`` skips :func:`finalize_estimate` (diagonal restore and
        ε/10 floor) so the returned estimate is the raw absorbed
        frontier sum — the quantity the repair algebra adds to a
        maintained estimate.
    ``keep_residual``
        Attach the final residual to the returned :class:`_EngineRun`.
    """
    from repro.simrank.localpush import finalize_estimate

    if signed and stream_top_k is not None:
        raise SimRankError(
            "signed (repair) runs cannot stream top-k: the streaming "
            "prune's slack bound assumes a non-negative residual")

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
    state.set_flush_cadence(coalesce_every)
    streaming = stream_top_k is not None and absorb_rows is None
    absorb_mask: Optional[np.ndarray] = None
    if absorb_rows is not None:
        absorb_mask = np.zeros(n, dtype=bool)
        absorb_mask[absorb_rows] = True
    # The materialised running estimate is only needed when the streaming
    # prune inspects it in-loop; otherwise absorbed frontiers are
    # accumulated as triplets and folded once at the end.
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
            if streaming:
                state.absorb_stream(frontier)
            elif absorb_mask is not None:
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

            if streaming:
                assert stream_top_k is not None
                state.stream_prune(stream_top_k, decay)
    finally:
        runner.close()
    residual, stream_estimate = state.finish(streaming, stream_top_k, decay)
    residual.eliminate_zeros()
    elapsed = timer.stop()

    if streaming:
        assert stream_estimate is not None
        estimate = stream_estimate
    else:
        estimate = sp.csr_matrix((n, n), dtype=np_dtype)
    if not streaming and est_data:
        estimate = _fold_absorbed(est_rows, est_cols, est_data, n)

    if absorb_residual and residual.nnz:
        rows = _csr_rows(residual)
        positive = residual.data > 0.0
        if absorb_mask is not None:
            positive &= absorb_mask[rows]
        if positive.any():
            leftover_mass = sp.csr_matrix(
                (residual.data[positive].copy(),
                 (rows[positive],
                  residual.indices[positive].astype(np.int64, copy=False))),
                shape=(n, n))
            estimate = estimate + leftover_mass

    if finalize:
        estimate = finalize_estimate(estimate, residual, epsilon=epsilon,
                                     prune=prune)

    if stream_top_k is not None:
        # Exact top_k_per_row semantics over the surviving superset: equal
        # to pruning the full estimate, because streamed drops were
        # provably outside the final top-k.  Restricted runs reach here
        # with the full (un-streamed) absorbed rows, so this is simply
        # the post-hoc prune.
        estimate = top_k_per_row(estimate, stream_top_k, keep_diagonal=True)

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
                     stream_top_k: Optional[int] = None,
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
    stream_top_k:
        When given, stream top-k pruning into the round loop (bounded
        ``O(k·n)`` memory) and return the matrix already pruned with
        :func:`repro.graphs.sparse.top_k_per_row` semantics
        (``keep_diagonal=True``); matches pruning the fully materialised
        estimate exactly.
    """
    from repro.simrank.localpush import LocalPushResult

    _validate_engine_args(decay, epsilon, num_workers, num_shards,
                          stream_top_k, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
                      num_workers=num_workers,
                      num_shards=num_shards, stream_top_k=stream_top_k,
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
    Streaming top-k and the single-source restrictions do not apply to
    repair runs.
    """
    _validate_engine_args(decay, epsilon, num_workers, num_shards,
                          None, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=False,
                      absorb_residual=False, max_pushes=max_pushes,
                      num_workers=num_workers,
                      num_shards=num_shards, stream_top_k=None,
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
# Single-source / single-pair queries
# --------------------------------------------------------------------- #
@dataclass
class SingleSourceResult:
    """One source row of the SimRank matrix, with the run's telemetry.

    ``row`` is a ``1×n`` CSR matrix holding row ``source`` of the
    estimate ``Ŝ`` with ``‖Ŝ[source] − S[source]‖_max < ε`` (same Lemma
    III.5 bound as the all-pairs engine).  Batch queries share one round
    loop, so ``num_pushes``/``num_rounds``/``elapsed_seconds`` describe
    the whole batch, not the one source.
    """

    source: int
    row: sp.csr_matrix
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

    @property
    def nnz(self) -> int:
        return int(self.row.nnz)


def _validate_sources(graph: Graph, sources: Sequence[int]) -> np.ndarray:
    source_array = np.asarray(list(sources), dtype=np.int64)
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
                           top_k: Optional[int] = None,
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
    ``localpush_engine(...)`` run without streaming — for every worker
    count — whenever the per-round shard partitions of the two
    runs coincide: always on a connected graph (the frontiers, and hence
    the partition derived from them, are identical), and on any graph
    when every round fits one shard (the ``DEFAULT_SHARD_NNZ`` default
    for all but huge frontiers).  With a forced multi-shard split on a
    *disconnected* graph the partial-sum order may differ and rows agree
    only to float round-off (still within the ``(1−c)·ε`` bound).

    ``top_k`` applies :func:`repro.graphs.sparse.top_k_per_row`
    semantics (``keep_diagonal=True``) to each returned row — identical
    to pruning the all-pairs estimate post hoc.

    Results are returned in input order; duplicate sources share the
    same computed row.
    """
    _validate_engine_args(decay, epsilon, num_workers, num_shards,
                          top_k, dtype)
    source_array = _validate_sources(graph, sources)
    unique_sources = np.unique(source_array)

    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency, directed=False)
    wanted = labels[unique_sources]
    seed_nodes = np.flatnonzero(np.isin(labels, wanted))

    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
                      num_workers=num_workers,
                      num_shards=num_shards, stream_top_k=top_k,
                      coalesce_every=coalesce_every,
                      seed_nodes=seed_nodes, absorb_rows=unique_sources,
                      dtype=dtype)

    component_sizes = {int(s): int(np.count_nonzero(labels == labels[s]))
                       for s in unique_sources}
    rows = {int(s): run.estimate.getrow(int(s)) for s in unique_sources}
    return [SingleSourceResult(
        source=int(source),
        row=rows[int(source)],
        num_pushes=run.num_pushes,
        num_rounds=run.num_rounds,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        epsilon=epsilon,
        decay=decay,
        num_workers=num_workers,
        num_shards=run.max_shards_used,
        component_size=component_sizes[int(source)],
        batch_size=int(unique_sources.size),
    ) for source in source_array]


def single_source_localpush(graph: Graph, source: int, *,
                            decay: float = DEFAULT_DECAY,
                            epsilon: float = 0.1, prune: bool = True,
                            absorb_residual: bool = False,
                            max_pushes: int | None = None,
                            num_workers: int = 1,
                            num_shards: Optional[int] = None,
                            top_k: Optional[int] = None,
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
        top_k=top_k, coalesce_every=coalesce_every, dtype=dtype)[0]


def single_pair_localpush(graph: Graph, source: int, target: int, *,
                          decay: float = DEFAULT_DECAY,
                          epsilon: float = 0.1, prune: bool = True,
                          absorb_residual: bool = False,
                          max_pushes: int | None = None,
                          num_workers: int = 1,
                          num_shards: Optional[int] = None,
                          coalesce_every: int = 4,
                          dtype: str = "float64") -> float:
    """Single-pair LocalPush: ``Ŝ(source, target)`` with the same ε bound.

    Computed as entry ``target`` of the single-source row so the value is
    bit-identical to the all-pairs entry under the guarantee documented
    on :func:`multi_source_localpush`.  When the two nodes live in
    different connected components the true score is exactly ``0.0`` and
    no push rounds run at all.
    """
    _validate_sources(graph, [source, target])
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency, directed=False)
    if source != target and labels[source] != labels[target]:
        return 0.0
    result = single_source_localpush(
        graph, source, decay=decay, epsilon=epsilon, prune=prune,
        absorb_residual=absorb_residual, max_pushes=max_pushes,
        num_workers=num_workers, num_shards=num_shards,
        coalesce_every=coalesce_every, dtype=dtype)
    return float(result.row[0, target])


__all__ = ["localpush_engine", "resume_localpush", "ResumeRun",
           "single_source_localpush",
           "multi_source_localpush", "single_pair_localpush",
           "SingleSourceResult", "default_num_workers",
           "DEFAULT_SHARD_NNZ", "DEFAULT_MAX_WORKERS"]
