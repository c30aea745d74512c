"""LocalPush approximation of SimRank (Algorithm 1 of the paper).

The algorithm maintains a residual matrix ``R`` (initialised to the
identity) and an estimate ``Ŝ`` (initialised to zero).  While some pair has
residual above ``(1 - c)·ε`` it moves that residual into the estimate and
pushes ``c``-scaled fractions of it to all neighbour pairs, scaled by the
receiving pair's degrees.  The fixed point of this process is the linearized
SimRank series ``Σ_ℓ c^ℓ (W^ℓ)ᵀ W^ℓ`` of Theorem III.2, and stopping at the
``(1 - c)·ε`` threshold yields ``‖Ŝ − S‖_max < ε`` (Lemma III.5).

Entries of the estimate below ``ε / 10`` are pruned, as in the paper, so the
result stays sparse with roughly ``O(n·d²/ε)`` entries rather than ``O(n²)``.

One engine implements the push loop: the frontier-batched core of
:func:`repro.simrank.engine.localpush_engine`, which pushes every
above-threshold pair of a round at once (``R ← R + c·Wᵀ F W``) with
deterministic frontier sharding and one execution setting, the worker
count of the thread pool that pushes the shards.  Every worker count
produces a bit-identical matrix.  The engine returns the whole
estimate; top-k pruning happens once, after it
(:func:`repro.simrank.topk.simrank_operator`).
:func:`localpush_simrank` is its entry point with worker-count
auto-resolution (:func:`resolve_workers`): inline below
:data:`AUTO_SHARDED_MIN_NODES` nodes, :func:`default_num_workers
<repro.simrank.engine.default_num_workers>` threads from there up.

The engine guarantees a strictly positive diagonal: SimRank defines
``S(u, u) = 1``, so even when ``ε`` is so large that the push threshold
``(1 - c)·ε ≥ 1`` suppresses every push, the initial diagonal residual is
folded back into the estimate rather than silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from repro.graphs.graph import Graph
from repro.simrank.engine import default_num_workers, localpush_engine
from repro.simrank.exact import DEFAULT_DECAY

#: Node count from which worker-count auto-resolution switches from
#: inline pushes to the thread pool: push rounds become large enough
#: that splitting them across a worker pool pays for the shard setup.
#: Pinned by the worker-resolution unit tests.
AUTO_SHARDED_MIN_NODES = 4096


def resolve_workers(workers: Optional[int], num_nodes: int) -> int:
    """Resolve a worker-count request to the engine's pool size.

    ``None`` resolves by node count: ``1`` (every shard pushed inline)
    below :data:`AUTO_SHARDED_MIN_NODES`, :func:`default_num_workers`
    threads from there up.  An explicit count passes through unchanged at
    any graph size, and ``1`` means inline.  Every worker count produces
    a bit-identical matrix, so the choice never affects results.
    """
    if workers is None:
        return (default_num_workers()
                if num_nodes >= AUTO_SHARDED_MIN_NODES else 1)
    return workers


@dataclass
class LocalPushResult:
    """Output of :func:`localpush_simrank`.

    Attributes
    ----------
    matrix:
        Sparse ``(n, n)`` approximate SimRank matrix ``Ŝ``.
    num_pushes:
        Number of residual-push operations performed.
    num_residual_entries:
        Number of residual entries that remained below threshold at
        termination (an indicator of the frontier size).
    elapsed_seconds:
        Wall-clock time of the push loop.
    epsilon:
        The error threshold the run was configured with.
    decay:
        The decay factor ``c``.
    num_rounds:
        Number of frontier rounds.
    num_workers:
        Resolved worker count of the run (``1`` = every shard pushed
        inline).
    num_shards:
        Largest per-round shard count used.
    dtype:
        Working precision of the run (``"float64"`` or ``"float32"``).
    """

    matrix: sp.csr_matrix
    num_pushes: int
    num_residual_entries: int
    elapsed_seconds: float
    epsilon: float
    decay: float
    num_rounds: Optional[int] = None
    num_workers: Optional[int] = None
    num_shards: Optional[int] = None
    dtype: str = "float64"


def localpush_simrank(graph: Graph, *, decay: float = DEFAULT_DECAY,
                      epsilon: float = 0.1, prune: bool = True,
                      absorb_residual: bool = False,
                      max_pushes: int | None = None,
                      num_workers: int | None = None,
                      dtype: str = "float64") -> LocalPushResult:
    """Run Algorithm 1 (LocalPush) and return the sparse approximation.

    Parameters
    ----------
    graph:
        Input graph.  Isolated nodes receive only their self-similarity.
    decay:
        SimRank decay factor ``c`` (paper default 0.6).
    epsilon:
        Max-norm error threshold ``ε``; the push loop stops once every
        residual is below ``(1 - c)·ε``.
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
    num_workers:
        Thread-pool size for the shard pushes (``1`` = inline; see
        :mod:`repro.simrank.engine`); ``None`` resolves by node count via
        :func:`resolve_workers`.  Every worker count produces a
        bit-identical matrix.
    dtype:
        ``"float64"`` (default, the reference precision) or
        ``"float32"`` — an opt-in low-memory mode with an adjusted error
        bound (see :func:`repro.simrank.kernels.float32_error_bound`).
    """
    return localpush_engine(
        graph, decay=decay, epsilon=epsilon, prune=prune,
        absorb_residual=absorb_residual, max_pushes=max_pushes,
        num_workers=resolve_workers(num_workers, graph.num_nodes),
        dtype=dtype)


def finalize_estimate(estimate: sp.csr_matrix, residual: sp.csr_matrix, *,
                      epsilon: float, prune: bool) -> sp.csr_matrix:
    """Shared post-loop finalisation of the batched engines' estimates.

    Restores any missing diagonal from the untouched residual mass
    (SimRank defines ``S(u, u) = 1``, so every node keeps a positive
    diagonal even when the threshold ``(1-c)·ε ≥ 1`` suppressed all
    pushes) and applies the paper's ``ε / 10`` floor prune, never dropping
    the diagonal.  Shared by the fresh runs of the engine core and the
    snapshots of :mod:`repro.dynamic`, so the two cannot drift apart in
    these semantics.
    """
    from repro.graphs.sparse import csr_row_indices

    diagonal = estimate.diagonal()
    missing = diagonal <= 0.0
    if missing.any():
        residual_diagonal = residual.diagonal()
        # The typed zero keeps float32 estimates float32 (a bare Python
        # 0.0 would promote the fill — and then the sum — to float64 on
        # pre-NEP-50 numpy).
        fill = np.where(missing, residual_diagonal,
                        residual_diagonal.dtype.type(0.0))
        estimate = (estimate + sp.diags(fill, format="csr")).tocsr()
    if prune:
        floor = epsilon / 10.0
        rows = csr_row_indices(estimate)
        keep = (estimate.data >= floor) | (rows == estimate.indices)
        estimate.data[~keep] = 0.0
        estimate.eliminate_zeros()
    estimate.sort_indices()
    return estimate


__all__ = ["localpush_simrank", "LocalPushResult", "resolve_workers",
           "finalize_estimate", "AUTO_SHARDED_MIN_NODES"]
