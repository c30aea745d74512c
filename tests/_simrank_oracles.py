"""Reference LocalPush implementations the suites compare the engine against.

Neither is part of the package: they exist only as correctness oracles.

* :func:`dict_localpush` — a per-pair queue over Python dicts, a direct
  transcription of Algorithm 1.  The engine core must agree with it
  within the ``ε`` contract (different push orders reach different
  points inside the bound, so agreement is approximate).
* :class:`ScipyRoundState` — the historical CSR-object round arithmetic
  (per-shard COO constructions, chained ``csr_plus_csr`` partial
  merges).  The engine's
  :class:`repro.simrank.kernels.FusedRoundState` must reproduce it
  *bitwise*; :func:`scipy_rounds` swaps it into the engine for the
  duration of a ``with`` block, so a suite can run the same engine call
  on both arithmetics without any package parameter.
* :func:`top_k_per_row_loop` — the historical per-row loop of
  :func:`repro.graphs.sparse.top_k_per_row`, which the masked package
  version must reproduce *bitwise*.

Kept out of ``conftest.py`` for the same reason as ``_simrank_fixtures``:
these are plain helpers, not pytest fixtures.
"""

from __future__ import annotations

import contextlib
from collections import deque
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

import repro.simrank.engine as engine_module
from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.simrank.exact import DEFAULT_DECAY
from repro.simrank.kernels import Frontier, RoundRunner
from repro.simrank.localpush import LocalPushResult
from repro.telemetry.tracing import NULL_TRACER, Tracer
from repro.utils.timer import Timer


# --------------------------------------------------------------------- #
# The per-pair dict loop
# --------------------------------------------------------------------- #
def dict_localpush(graph: Graph, *, decay: float = DEFAULT_DECAY,
                   epsilon: float = 0.1, prune: bool = True,
                   absorb_residual: bool = False,
                   max_pushes: Optional[int] = None) -> LocalPushResult:
    """Algorithm 1 over a per-pair queue (float64 only).

    Same contract as :func:`repro.simrank.localpush.localpush_simrank`:
    ``absorb_residual`` folds the sub-threshold residual into the
    estimate, ``prune`` applies the ``ε / 10`` floor (never dropping the
    diagonal), and the untouched diagonal residual is restored when the
    threshold suppresses every push.
    """
    if not 0.0 < decay < 1.0:
        raise SimRankError(f"decay factor c must be in (0, 1), got {decay}")
    if epsilon <= 0.0:
        raise SimRankError(f"epsilon must be positive, got {epsilon}")
    n = graph.num_nodes
    adjacency = graph.adjacency
    indptr, indices, weights = adjacency.indptr, adjacency.indices, adjacency.data
    # Weighted degrees (column sums == row sums for a symmetric adjacency),
    # matching the walk matrix W = A D⁻¹ of the engine and the dense
    # references; on 0/1 graphs this is the plain neighbour count.
    degrees = np.asarray(adjacency.sum(axis=0)).ravel()
    threshold = (1.0 - decay) * epsilon

    estimate: Dict[Tuple[int, int], float] = {}
    residual: Dict[Tuple[int, int], float] = {}
    queue: deque[Tuple[int, int]] = deque()
    queued: set[Tuple[int, int]] = set()

    for node in range(n):
        pair = (node, node)
        residual[pair] = 1.0
        if 1.0 > threshold:
            queue.append(pair)
            queued.add(pair)

    num_pushes = 0
    timer = Timer()
    timer.start()
    while queue:
        pair = queue.popleft()
        queued.discard(pair)
        value = residual.get(pair, 0.0)
        if value <= threshold:
            continue
        u, v = pair
        estimate[pair] = estimate.get(pair, 0.0) + value
        residual[pair] = 0.0
        num_pushes += 1
        if max_pushes is not None and num_pushes > max_pushes:
            raise SimRankError(
                f"LocalPush exceeded max_pushes={max_pushes}; "
                "epsilon is likely too small for this graph")
        u_neighbors = indices[indptr[u]:indptr[u + 1]]
        v_neighbors = indices[indptr[v]:indptr[v + 1]]
        if u_neighbors.size == 0 or v_neighbors.size == 0:
            continue
        u_weights = weights[indptr[u]:indptr[u + 1]]
        v_weights = weights[indptr[v]:indptr[v + 1]]
        scaled = decay * value
        for u_next, u_weight in zip(u_neighbors, u_weights):
            walk_u = u_weight / degrees[u_next]      # W[u, u_next]
            for v_next, v_weight in zip(v_neighbors, v_weights):
                amount = scaled * walk_u * v_weight / degrees[v_next]
                next_pair = (int(u_next), int(v_next))
                new_value = residual.get(next_pair, 0.0) + amount
                residual[next_pair] = new_value
                if new_value > threshold and next_pair not in queued:
                    queue.append(next_pair)
                    queued.add(next_pair)
    elapsed = timer.stop()

    if absorb_residual:
        for pair, value in residual.items():
            if value > 0.0:
                estimate[pair] = estimate.get(pair, 0.0) + value

    # SimRank defines S(u, u) = 1: fold the untouched diagonal residual
    # back in when the threshold (1-c)·ε ≥ 1 suppressed every push.
    for node in range(n):
        pair = (node, node)
        if estimate.get(pair, 0.0) <= 0.0:
            value = residual.get(pair, 0.0)
            if value > 0.0:
                estimate[pair] = estimate.get(pair, 0.0) + value

    if prune:
        floor = epsilon / 10.0
        estimate = {pair: value for pair, value in estimate.items()
                    if value >= floor or pair[0] == pair[1]}

    matrix = _pairs_to_csr(estimate, n)
    leftover = sum(1 for value in residual.values() if value > 0.0)
    return LocalPushResult(matrix=matrix, num_pushes=num_pushes,
                           num_residual_entries=leftover,
                           elapsed_seconds=elapsed, epsilon=epsilon,
                           decay=decay)


def _pairs_to_csr(entries: Dict[Tuple[int, int], float],
                  n: int) -> sp.csr_matrix:
    if not entries:
        return sp.csr_matrix((n, n))
    rows = np.fromiter((pair[0] for pair in entries), dtype=np.int64,
                       count=len(entries))
    cols = np.fromiter((pair[1] for pair in entries), dtype=np.int64,
                       count=len(entries))
    data = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sort_indices()
    return matrix


# --------------------------------------------------------------------- #
# The CSR-object round arithmetic
# --------------------------------------------------------------------- #
class ScipyRoundState:
    """The historical CSR-object round arithmetic, verbatim.

    Drop-in for :class:`repro.simrank.kernels.FusedRoundState` (same
    constructor and round surface): a COO→CSR build per shard and
    chained shard-order partial additions.
    """

    def __init__(self, residual: sp.csr_matrix, *, n: int, dtype: np.dtype,
                 index_dtype: np.dtype, tracer: Tracer = NULL_TRACER,
                 signed: bool = False) -> None:
        self._residual = residual
        self._n = n
        self._signed = bool(signed)

    def extract_frontier(self, threshold: float) -> Optional[Frontier]:
        residual = self._residual
        if self._signed:
            above = np.abs(residual.data) > threshold
        else:
            above = residual.data > threshold
        if not above.any():
            return None
        indptr = np.searchsorted(np.flatnonzero(above), residual.indptr)
        cols = residual.indices[above].astype(np.int64, copy=False)
        data = residual.data[above].copy()
        residual.data[above] = 0.0
        matrix = sp.csr_matrix((data, cols, indptr), shape=(self._n, self._n))
        return Frontier(cols, data, indptr=indptr, matrix=matrix)

    def push_round(self, runner: RoundRunner, frontier: Frontier,
                   bounds: Sequence[Tuple[int, int]]) -> None:
        # One COO→CSR build per shard, then the engine's matrix push.
        n = self._n
        shards = [sp.csr_matrix((frontier.data[start:end],
                                 (frontier.rows[start:end],
                                  frontier.cols[start:end])), shape=(n, n))
                  for start, end in bounds]
        partials = runner.push_round_matrices(shards)
        # Merge in shard order, then canonicalise (a storage reorder) so
        # the residual add takes scipy's sorted fast path.
        pushed = partials[0]
        for partial in partials[1:]:
            pushed = pushed + partial
        pushed.sort_indices()
        self._residual = self._residual + pushed

    def coalesce(self) -> None:
        self._residual.eliminate_zeros()

    def finish(self) -> sp.csr_matrix:
        return self._residual


@contextlib.contextmanager
def scipy_rounds() -> Iterator[None]:
    """Run every engine call inside the block on :class:`ScipyRoundState`."""
    original = engine_module.FusedRoundState
    engine_module.FusedRoundState = ScipyRoundState  # type: ignore[misc]
    try:
        yield
    finally:
        engine_module.FusedRoundState = original  # type: ignore[misc]


def top_k_per_row_loop(matrix: sp.spmatrix, k: int, *,
                       keep_diagonal: bool = False) -> sp.csr_matrix:
    """Top-k per row, one row at a time, rebuilt from per-row pieces."""
    csr = sp.csr_matrix(matrix, copy=True)
    n_rows = csr.shape[0]
    data, indices, indptr = csr.data, csr.indices, csr.indptr
    new_data = []
    new_indices = []
    new_indptr = np.zeros(n_rows + 1, dtype=np.int64)
    for row in range(n_rows):
        start, end = indptr[row], indptr[row + 1]
        row_data = data[start:end]
        row_indices = indices[start:end]
        if row_data.size > k:
            # Rank by value descending, ties toward the smaller column.
            order = np.lexsort((row_indices, -row_data))
            keep = order[:k]
            if keep_diagonal:
                diag_pos = np.flatnonzero(row_indices == row)
                if diag_pos.size and diag_pos[0] not in keep:
                    # Evict the lowest-ranked kept (non-diagonal) entry.
                    keep = keep.copy()
                    keep[-1] = diag_pos[0]
            keep_mask = np.zeros(row_data.size, dtype=bool)
            keep_mask[keep] = True
            row_data = row_data[keep_mask]
            row_indices = row_indices[keep_mask]
        new_data.append(row_data)
        new_indices.append(row_indices)
        new_indptr[row + 1] = new_indptr[row] + row_data.size
    pruned = sp.csr_matrix(
        (np.concatenate(new_data), np.concatenate(new_indices), new_indptr),
        shape=csr.shape)
    pruned.sort_indices()
    return pruned
