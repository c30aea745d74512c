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
above-threshold pair of a round at once (``R ← R + c·Wᵀ F W``, one
sparse product in the calling thread).  :func:`localpush_simrank` is
that function under the paper's name.  The engine returns the whole
estimate; top-k pruning happens once, after it
(:func:`repro.simrank.topk.simrank_operator`).

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

from repro.simrank.engine import localpush_engine


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
    dtype: str = "float64"


#: Algorithm 1 under the paper's name: the engine itself, with the same
#: parameters and defaults.
localpush_simrank = localpush_engine


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


__all__ = ["localpush_simrank", "LocalPushResult", "finalize_estimate"]
