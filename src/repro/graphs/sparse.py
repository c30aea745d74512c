"""Sparse-matrix helpers shared by the SimRank and PPR substrates."""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.sparse as sp


def csr_row_indices(matrix: sp.csr_matrix) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix (COO expansion)."""
    return np.repeat(np.arange(matrix.shape[0], dtype=np.int64),
                     np.diff(matrix.indptr))


def top_k_row_mask(data: np.ndarray, indices: np.ndarray, k: int,
                   diagonal: Optional[int] = None) -> np.ndarray:
    """Boolean mask of the entries of one sparse row that top-k keeps.

    ``data``/``indices`` are the row's stored values and column indices,
    and the row holds more than ``k`` entries.  Entries are ranked by
    value descending, ties toward the smaller column index, and the
    first ``k`` are kept.  When ``diagonal`` names the row's diagonal
    column and that column is stored but not among the ``k`` largest, it
    *replaces* the lowest-ranked kept entry, so exactly ``k`` entries
    survive either way.  This is the one selection rule behind
    :func:`top_k_per_row` (every row of a matrix) and :func:`top_k_row`
    (one row apart from its matrix).

    Only candidates are ranked: ``np.partition`` finds the k-th largest
    value, and the entries at or above it, ties at the cut included, are
    sorted.  Each of them ranks before every entry below the cut, so the
    full ranking's first ``k`` are all candidates, in the same order.
    """
    cut = np.partition(data, -k)[-k]  # the k-th largest value
    candidates = np.flatnonzero(data >= cut)
    keep = candidates[np.lexsort((indices[candidates],
                                  -data[candidates]))[:k]]
    if diagonal is not None:
        diag_pos = np.flatnonzero(indices == diagonal)
        if diag_pos.size and diag_pos[0] not in keep:
            keep[-1] = diag_pos[0]
    mask = np.zeros(data.size, dtype=bool)
    mask[keep] = True
    return mask


def top_k_row(matrix: sp.csr_matrix, row: int, k: Optional[int], *,
              normalize: bool = False) -> sp.csr_matrix:
    """Row ``row`` of ``matrix`` as a ``1×n`` CSR, pruned as served.

    Keeps the ``k`` largest entries with the diagonal (``None`` keeps
    every entry), then optionally rescales the row to sum to one — the
    steps the operator applies to the whole matrix
    (``top_k_per_row(..., keep_diagonal=True)``, then
    :func:`sparse_row_normalize`), through the same selection rule and
    in the same order, so the row is bit-identical to that operator's
    row.
    """
    start, end = matrix.indptr[row], matrix.indptr[row + 1]
    data, indices = matrix.data[start:end], matrix.indices[start:end]
    if k is not None and data.size > k:
        keep = top_k_row_mask(data, indices, k, diagonal=row)
        data, indices = data[keep], indices[keep]
    pruned = sp.csr_matrix((data, indices, np.array([0, data.size])),
                           shape=(1, matrix.shape[1]))
    return sparse_row_normalize(pruned) if normalize else pruned


def top_k_per_row(matrix: sp.spmatrix, k: int, *,
                  keep_diagonal: bool = False) -> sp.csr_matrix:
    """Keep only the ``k`` largest entries of each row of ``matrix``.

    This implements the paper's top-k pruning of the approximate SimRank
    matrix, reducing the aggregation operator to ``O(k n)`` stored entries.

    Parameters
    ----------
    matrix:
        Sparse matrix whose rows are pruned independently.
    k:
        Number of entries to keep per row.  Rows with fewer than ``k``
        non-zeros are left untouched.  Every returned row has at most
        ``k`` stored entries, with or without ``keep_diagonal``.
    keep_diagonal:
        When true the diagonal entry is always retained (useful when the
        matrix encodes self-similarity that must survive pruning).  If the
        diagonal entry is not among the ``k`` largest, it *replaces* the
        smallest selected entry so the ``≤ k`` per-row bound — and with it
        the paper's ``O(k·n)`` storage guarantee — still holds.

    Notes
    -----
    Each row's selection is :func:`top_k_row_mask`: entries are ranked
    by value descending; ties are broken toward the smaller column index
    (so the kept set is deterministic).  When the diagonal evicts an
    entry, it evicts the lowest-ranked selected one, i.e. the smallest
    kept value, among equal values the one with the largest column index.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    csr = sp.csr_matrix(matrix)
    data, indices, indptr = csr.data, csr.indices, csr.indptr
    counts = np.diff(indptr)
    long_rows = np.flatnonzero(counts > k)
    keep = np.ones(data.size, dtype=bool)
    for row in long_rows:
        start, end = indptr[row], indptr[row + 1]
        keep[start:end] = top_k_row_mask(
            data[start:end], indices[start:end], k,
            int(row) if keep_diagonal else None)
    counts[long_rows] = k  # every pruned row keeps exactly k entries
    new_indptr = np.zeros(csr.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=new_indptr[1:])
    pruned = sp.csr_matrix((data[keep], indices[keep], new_indptr),
                           shape=csr.shape)
    pruned.sort_indices()
    return pruned


def sparse_row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Normalise every non-empty row of ``matrix`` to sum to one.

    A float32 matrix stays float32; every other input is computed in
    float64.
    """
    dtype = np.float32 if matrix.dtype == np.float32 else np.float64
    csr = sp.csr_matrix(matrix, dtype=dtype, copy=True)
    row_sums = np.asarray(csr.sum(axis=1)).ravel()
    scale = np.ones_like(row_sums)
    nonzero = row_sums != 0
    scale[nonzero] = 1.0 / row_sums[nonzero]
    return sp.diags(scale).dot(csr).tocsr()


def floor_prune(matrix: sp.csr_matrix, floor: float) -> sp.csr_matrix:
    """Drop the entries below ``floor`` in place, never the diagonal.

    The paper's ``ε / 10`` prune of a SimRank estimate; returns
    ``matrix``.
    """
    rows = csr_row_indices(matrix)
    keep = (matrix.data >= floor) | (rows == matrix.indices)
    matrix.data[~keep] = 0.0
    matrix.eliminate_zeros()
    return matrix


def dense_to_sparse_threshold(matrix: np.ndarray, threshold: float) -> sp.csr_matrix:
    """Convert a dense matrix to CSR, dropping entries below ``threshold``."""
    dense = np.asarray(matrix, dtype=np.float64).copy()
    dense[np.abs(dense) < threshold] = 0.0
    return sp.csr_matrix(dense)


__all__ = ["csr_row_indices", "top_k_row_mask", "top_k_row", "top_k_per_row",
           "sparse_row_normalize", "floor_prune", "dense_to_sparse_threshold"]
