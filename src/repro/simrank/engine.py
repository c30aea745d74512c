"""Unified LocalPush engine core: one round loop, one push per round.

This module owns the *single* implementation of the batched LocalPush
loop (Algorithm 1 of the paper, frontier-batched form).  Every round
works on the same plan, in the calling thread:

1. gather the above-threshold frontier ``F`` from the CSR residual,
2. absorb it into the estimate,
3. push it whole, ``R ← R + c·Wᵀ F W``, as one sparse product
   (:class:`repro.simrank.kernels.FusedRoundState`).

Step 1 has two forms (see *Two frontier loops* in
:mod:`repro.simrank.kernels`).  :func:`localpush_engine`, the
single-source runs and :func:`resume_localpush` from an arbitrary
residual scan the whole residual for each frontier.  A maintained
repair — :func:`resume_localpush` handed a converged residual and an
``increment`` — looks for each frontier only among the entries the last
increment changed, and returns bitwise what the scanning loop returns
from their sum.

The loop has no execution setting: a run's result is a function of the
graph and the mathematical contract (decay, ε, dtype) alone, which the
operator cache relies on.  The residual invariant and the shared
:func:`repro.simrank.localpush.finalize_estimate` semantics hold for
every entry point.  The engine returns the whole finished estimate;
top-k pruning is the caller's, applied once after the loop (see the
module docstring of :mod:`repro.simrank`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.normalize import column_normalize
from repro.graphs.sparse import csr_row_indices as _csr_rows
from repro.simrank.exact import DEFAULT_DECAY
from repro.simrank.kernels import (DTYPES, FusedRoundState,
                                   IncrementRoundState, working_dtype)
from repro.telemetry.tracing import NULL_TRACER, Tracer
from repro.utils.timer import Timer
from repro.utils.validation import is_integral

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.simrank.localpush import LocalPushResult

#: ``(W, Wᵀ)``: the column-normalised walk matrix and its transpose.
Walk = Tuple[sp.csr_matrix, sp.csr_matrix]


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
    #: Final residual, attached only when the caller asked to keep it
    #: (``keep_residual=True`` — the dynamic-maintenance path).
    residual: Optional[sp.csr_matrix] = None


def _validate_engine_args(decay: float, epsilon: float,
                          dtype: str = "float64") -> None:
    if not 0.0 < decay < 1.0:
        raise SimRankError(f"decay factor c must be in (0, 1), got {decay}")
    # NaN passes ``<=`` and an infinite ε makes the push threshold
    # unreachable: either way the loop would run no round and return
    # the identity as if it met the bound.
    if not math.isfinite(epsilon):
        raise SimRankError(f"epsilon must be a finite number, got {epsilon}")
    if epsilon <= 0.0:
        raise SimRankError(f"epsilon must be positive, got {epsilon}")
    if dtype not in DTYPES:
        raise SimRankError(f"unknown LocalPush dtype {dtype!r}; "
                           f"expected one of {DTYPES}")


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


def positive_residual(residual: sp.csr_matrix,
                      absorb_mask: Optional[np.ndarray] = None
                      ) -> Optional[sp.csr_matrix]:
    """The positive entries of ``residual``, or ``None`` if it has none.

    The leftover mass an ``absorb_residual`` run adds to its estimate,
    and a :mod:`repro.dynamic` snapshot to the maintained one: each
    positive residual entry is a lower bound on the remaining
    contribution to its own estimate entry.  ``absorb_mask`` (a boolean
    mask over rows) keeps only the absorbed rows of a single-source run.
    The result keeps the residual's own CSR layout — no COO sort — and
    never shares its buffers, so ``residual`` is only read.
    """
    if not residual.nnz:
        return None
    positive = residual.data > 0.0
    if absorb_mask is not None:
        positive &= absorb_mask[_csr_rows(residual)]
    if not positive.any():
        return None
    leftover = sp.csr_matrix(
        (residual.data * positive, residual.indices.copy(),
         residual.indptr.copy()), shape=residual.shape)
    leftover.eliminate_zeros()
    return leftover


def _run_rounds(graph: Graph, *, decay: float, epsilon: float, prune: bool,
                absorb_residual: bool, max_pushes: Optional[int],
                seed_nodes: Optional[np.ndarray] = None,
                absorb_rows: Optional[np.ndarray] = None,
                dtype: str = "float64",
                tracer: Tracer = NULL_TRACER,
                initial_residual: Optional[sp.csr_matrix] = None,
                increment: Optional[sp.csr_matrix] = None,
                walk: Optional[Walk] = None,
                signed: bool = False, finalize: bool = True,
                keep_residual: bool = False) -> _EngineRun:
    """The shared frontier-batched round loop.

    The per-round CSR arithmetic is delegated to a
    :class:`repro.simrank.kernels.FusedRoundState`; this loop owns the
    round plan — extract, absorb, push — and the accounting.

    ``seed_nodes``/``absorb_rows`` are the single-source restriction
    hooks: the residual starts as the identity restricted to
    ``seed_nodes`` (``None`` = all nodes) and only estimate entries whose
    row is in ``absorb_rows`` are materialised (``None`` = all rows).
    Every arithmetic operation on an absorbed row is identical to the
    unrestricted run — CSR matmul, addition, thresholding and duplicate
    folding are all per-row independent — which is what makes
    single-source rows bit-identical to the all-pairs rows (see
    ``multi_source_localpush``).

    The dynamic-maintenance hooks (all defaulted off, leaving every
    fresh run bit-identical to the pre-hook loop):

    ``initial_residual``
        Warm-start residual replacing the identity seeding — the repair
        residual of :mod:`repro.dynamic`.  The loop takes it over: its
        buffers are updated in place (see :func:`resume_localpush`).
    ``increment``
        With ``initial_residual`` converged, the pending change to it:
        the run takes the increment loop
        (:class:`repro.simrank.kernels.IncrementRoundState`), which only
        reads ``initial_residual`` and returns what the scanning loop
        returns from ``initial_residual + increment``.
    ``walk``
        ``(W, Wᵀ)`` of ``graph`` when the caller already holds them,
        exactly as :func:`~repro.graphs.normalize.column_normalize` and
        ``W.T.tocsr()`` return them (their storage order is part of the
        bitwise contract); ``None`` builds them.
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
    if walk is None:
        walk_matrix = column_normalize(graph.adjacency)     # W = A D⁻¹
        walk_t = None
    else:
        walk_matrix, walk_t = walk
    if walk_matrix.dtype != np_dtype:
        walk_matrix = walk_matrix.astype(np_dtype)
        walk_t = None if walk_t is None else walk_t.astype(np_dtype)

    state: FusedRoundState
    if initial_residual is not None:
        residual = sp.csr_matrix(initial_residual, dtype=np_dtype)
        if residual.shape != (n, n):
            raise SimRankError(
                f"initial residual must have shape {(n, n)}, "
                f"got {residual.shape}")
    else:
        residual = _seed_residual(n, seed_nodes, np_dtype)
    if increment is not None:
        state = IncrementRoundState(
            residual, sp.csr_matrix(increment, dtype=np_dtype), walk_matrix,
            decay=decay, tracer=tracer, walk_t=walk_t)
    else:
        if initial_residual is not None:
            residual.sort_indices()
            residual.eliminate_zeros()
        # walk_t goes in only when the caller gave it, so the reference
        # kernel the tests swap in for FusedRoundState keeps its
        # constructor (tests/_simrank_oracles.py).
        extra = {} if walk_t is None else {"walk_t": walk_t}
        state = FusedRoundState(residual, walk_matrix, decay=decay,
                                tracer=tracer, signed=signed, **extra)
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
    timer = Timer()
    timer.start()
    while True:
        frontier = state.extract_frontier(threshold)
        if frontier is None:
            break

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
        num_pushes += frontier.count
        if max_pushes is not None and num_pushes > max_pushes:
            raise SimRankError(
                f"LocalPush exceeded max_pushes={max_pushes}; "
                "epsilon is likely too small for this graph"
            )

        state.push_round(frontier)
        num_rounds += 1
    # No stored zeros: the warm-start residual was cleaned above, the
    # increment loop drops them from each increment, and each round's
    # residual add drops every zero it would store.
    residual = state.finish()
    elapsed = timer.stop()

    estimate = (_fold_absorbed(est_rows, est_cols, est_data, n) if est_data
                else sp.csr_matrix((n, n), dtype=np_dtype))

    if absorb_residual:
        leftover_mass = positive_residual(residual, absorb_mask)
        if leftover_mass is not None:
            estimate = estimate + leftover_mass

    if finalize:
        estimate = finalize_estimate(estimate, residual, epsilon=epsilon,
                                     prune=prune)

    if signed:
        leftover = int(residual.nnz)
    else:
        leftover = int(np.count_nonzero(residual.data > 0.0))
    return _EngineRun(
        estimate=estimate,
        num_pushes=num_pushes,
        num_rounds=num_rounds,
        num_residual_entries=leftover,
        elapsed_seconds=elapsed,
        residual=residual if keep_residual else None,
    )


def localpush_engine(graph: Graph, *, decay: float = DEFAULT_DECAY,
                     epsilon: float = 0.1, prune: bool = True,
                     absorb_residual: bool = False,
                     max_pushes: int | None = None,
                     dtype: str = "float64",
                     tracer: Tracer = NULL_TRACER
                     ) -> "LocalPushResult":
    """Run Algorithm 1 (LocalPush) and return the sparse approximation.

    :func:`repro.simrank.localpush.localpush_simrank` is this function
    under the paper's name.

    Parameters
    ----------
    graph:
        Input graph.  Isolated nodes receive only their self-similarity.
    decay:
        SimRank decay factor ``c`` (paper default 0.6).
    epsilon:
        Max-norm error threshold ``ε``, positive and finite; the push
        loop stops once every residual is below ``(1 - c)·ε``.
    prune:
        Whether to drop estimate entries below ``ε / 10`` (line 6 of
        Algorithm 1).  Disable to validate the error guarantee exactly.
    absorb_residual:
        When true, leftover residual mass below the push threshold is added
        into the estimate before pruning.  This is a strict improvement of
        the approximation (each residual is a lower bound on the remaining
        contribution to its own entry) and keeps informative small scores
        that the plain algorithm would discard — the SIGMA aggregation
        operator uses this variant before its top-k pruning.
    max_pushes:
        Optional safety cap on the number of pushes (absorbed frontier
        entries); exceeding it raises :class:`SimRankError` (it
        indicates a mis-configured ε).
    dtype:
        ``"float64"`` (default, the reference precision) or
        ``"float32"``, an opt-in mode that halves the working-set memory
        at the cost of a slightly enlarged error bound
        (:func:`repro.simrank.kernels.float32_error_bound`) and a
        separate operator-cache key.
    tracer:
        :class:`repro.telemetry.tracing.Tracer` on which the round
        kernel opens one ``localpush.<phase>`` span (frontier/push/
        merge, attributes ``phase`` and ``round``) per phase interval.
        The default :data:`repro.telemetry.NULL_TRACER` records nothing;
        traced and untraced runs are bit-identical.
    """
    from repro.simrank.localpush import LocalPushResult

    _validate_engine_args(decay, epsilon, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
                      dtype=dtype, tracer=tracer)
    return LocalPushResult(
        matrix=run.estimate,
        num_pushes=run.num_pushes,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
        epsilon=epsilon,
        decay=decay,
        num_rounds=run.num_rounds,
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


def resume_localpush(graph: Graph, initial_residual: sp.csr_matrix, *,
                     decay: float = DEFAULT_DECAY, epsilon: float = 0.1,
                     max_pushes: Optional[int] = None,
                     dtype: str = "float64",
                     increment: Optional[sp.csr_matrix] = None,
                     walk: Optional[Walk] = None) -> ResumeRun:
    """Resume the round loop from an explicit (possibly signed) residual.

    This is the engine entry point of the dynamic subsystem
    (:mod:`repro.dynamic`): given a residual ``R₀`` that restores the
    LocalPush invariant ``Ŝ + G(R₀) = S`` for some maintained estimate
    ``Ŝ`` on ``graph``, it runs the standard frontier rounds in *signed*
    mode (``|R| > (1−c)·ε`` frontier threshold, since repair residuals
    carry negative mass for deleted edges) until convergence.  ``Ŝ + estimate_delta`` then
    satisfies the same ``(1−c)·ε`` residual bound, and hence the same
    ``< ε`` error bound, as a fresh run (see the :mod:`repro.dynamic`
    package docstring for the algebra).

    The round loop takes ``initial_residual`` over and updates its
    buffers in place, so pass a matrix the caller no longer needs (a
    defensive copy is measurable at repair latencies).  The
    single-source restrictions do not apply to repair runs.

    ``increment`` selects the repair of a *maintained* residual: the
    run resumes from ``initial_residual + increment``, where
    ``initial_residual`` is converged — a residual this function
    returned at the same ``decay`` and ``epsilon``, every entry at most
    ``(1−c)·ε`` in magnitude — and is only read, never written, so
    another thread may keep reading it.  The loop then finds each
    frontier among the entries the last increment changed
    (:class:`repro.simrank.kernels.IncrementRoundState`) and returns
    bitwise what the scanning loop returns from the sum; it takes the
    increment over.  ``walk`` is ``(W, Wᵀ)`` of ``graph`` when the
    caller already holds them (see ``_run_rounds``).
    """
    _validate_engine_args(decay, epsilon, dtype)
    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=False,
                      absorb_residual=False, max_pushes=max_pushes,
                      dtype=dtype, initial_residual=initial_residual,
                      increment=increment, walk=walk,
                      signed=True, finalize=False, keep_residual=True)
    assert run.residual is not None
    return ResumeRun(
        estimate_delta=run.estimate,
        residual=run.residual,
        num_pushes=run.num_pushes,
        num_rounds=run.num_rounds,
        num_residual_entries=run.num_residual_entries,
        elapsed_seconds=run.elapsed_seconds,
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
    ``localpush_engine(...)`` on every graph, connected or not: every
    round pushes its whole frontier, and each operation of a round is
    per-row independent, so a source's row sees exactly the arithmetic
    of the all-pairs run.  Rows come back un-truncated; :func:`repro.graphs.sparse.top_k_row`
    prunes one exactly as ``top_k_per_row`` prunes the all-pairs
    operator.

    Results are returned in input order; duplicate sources share one
    result object.  Every result carries the call's one ``estimate``
    matrix; a result's ``1×n`` ``row`` is sliced from it only when read,
    so a call over a whole component costs the round loop, not one row
    copy per source.
    """
    _validate_engine_args(decay, epsilon, dtype)
    source_array = _validate_sources(graph, sources)
    unique_sources = np.unique(source_array)

    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(graph.adjacency, directed=False)
    wanted = labels[unique_sources]
    seed_nodes = np.flatnonzero(np.isin(labels, wanted))

    run = _run_rounds(graph, decay=decay, epsilon=epsilon, prune=prune,
                      absorb_residual=absorb_residual, max_pushes=max_pushes,
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
        component_size=size,
        batch_size=int(unique_sources.size),
    ) for source, size in zip(unique_sources.tolist(), component_sizes)}
    return [results[source] for source in source_array.tolist()]


def single_source_localpush(graph: Graph, source: int, *,
                            decay: float = DEFAULT_DECAY,
                            epsilon: float = 0.1, prune: bool = True,
                            absorb_residual: bool = False,
                            max_pushes: int | None = None,
                            dtype: str = "float64") -> SingleSourceResult:
    """Single-source LocalPush: row ``source`` of the SimRank matrix.

    A one-element :func:`multi_source_localpush` batch; see there for
    the bit-identical equivalence guarantee and the complexity argument.
    """
    return multi_source_localpush(
        graph, [source], decay=decay, epsilon=epsilon, prune=prune,
        absorb_residual=absorb_residual, max_pushes=max_pushes,
        dtype=dtype)[0]


__all__ = ["localpush_engine", "resume_localpush", "ResumeRun", "Walk",
           "positive_residual",
           "single_source_localpush", "multi_source_localpush",
           "SingleSourceResult"]
