"""Tests for sparse-matrix helpers (top-k pruning, row normalisation)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs.sparse import (
    dense_to_sparse_threshold,
    sparse_row_normalize,
    top_k_per_row,
    top_k_row,
    top_k_row_mask,
)


class TestTopKPerRow:
    def test_keeps_k_largest(self):
        matrix = sp.csr_matrix(np.array([[0.1, 0.5, 0.3, 0.2],
                                         [0.9, 0.0, 0.8, 0.7]]))
        pruned = top_k_per_row(matrix, 2)
        dense = pruned.toarray()
        np.testing.assert_allclose(dense[0], [0.0, 0.5, 0.3, 0.0])
        np.testing.assert_allclose(dense[1], [0.9, 0.0, 0.8, 0.0])

    def test_rows_with_fewer_entries_untouched(self):
        matrix = sp.csr_matrix(np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.0],
                                         [0.3, 0.2, 0.1]]))
        pruned = top_k_per_row(matrix, 2)
        assert pruned[0].nnz == 1
        assert pruned[1].nnz == 0
        assert pruned[2].nnz == 2

    def test_keep_diagonal(self):
        matrix = sp.csr_matrix(np.array([[0.01, 0.5, 0.4, 0.3]] ).repeat(4, axis=0))
        square = sp.lil_matrix((4, 4))
        square[0] = [0.01, 0.5, 0.4, 0.3]
        square[1] = [0.6, 0.02, 0.5, 0.4]
        square[2] = [0.6, 0.5, 0.03, 0.4]
        square[3] = [0.6, 0.5, 0.4, 0.04]
        pruned = top_k_per_row(square.tocsr(), 2, keep_diagonal=True)
        for row in range(4):
            assert pruned[row, row] != 0.0

    def test_top_k_row_equals_the_pruned_matrix_row(self):
        """One row pruned apart from its matrix, ties included, equals
        that row of the whole pruned (and normalised) matrix bitwise."""
        rng = np.random.default_rng(1)
        matrix = sp.csr_matrix(rng.random((6, 6)).round(1))  # ties
        pruned = top_k_per_row(matrix, 2, keep_diagonal=True)
        normalized = sparse_row_normalize(pruned)
        for row in range(6):
            for got, expected in ((top_k_row(matrix, row, 2), pruned),
                                  (top_k_row(matrix, row, 2, normalize=True),
                                   normalized),
                                  (top_k_row(matrix, row, None), matrix)):
                assert got.shape == (1, 6)
                assert np.array_equal(got.indices, expected[row].indices)
                assert np.array_equal(got.data, expected[row].data)

    def test_row_mask_takes_the_diagonal_column_explicitly(self):
        """A row held apart from its matrix selects exactly as in place.

        The last row is long and tied: 40 entries of four values, its
        diagonal holding the smallest, so the diagonal is outside the
        top 3 and the 3rd-largest value is shared past the cut.
        """
        rng = np.random.default_rng(2)
        dense = np.zeros((6, 40))
        dense[:5, :7] = rng.random((5, 7)).round(1)  # ties
        dense[5] = np.tile([0.5, 1.0, 0.75, 0.5], 10)
        dense[5, 5] = 0.25  # the diagonal, below every other entry
        matrix = sp.csr_matrix(dense)
        pruned = top_k_per_row(matrix, 3, keep_diagonal=True)
        for row in range(6):
            start, end = matrix.indptr[row], matrix.indptr[row + 1]
            data = matrix.data[start:end]
            indices = matrix.indices[start:end]
            keep = top_k_row_mask(data, indices, 3, diagonal=row)
            assert keep.sum() == 3
            assert np.array_equal(indices[keep], pruned[row].indices)
            assert np.array_equal(data[keep], pruned[row].data)
        # Columns 1, 9 and 13 rank first of the nine 1.0s; the diagonal
        # (column 5, at 0.25) evicts column 13.
        keep = top_k_row_mask(matrix.data[matrix.indptr[5]:],
                              matrix.indices[matrix.indptr[5]:], 3,
                              diagonal=5)
        assert matrix.indices[matrix.indptr[5]:][keep].tolist() == [1, 5, 9]

    def test_invalid_k_raises(self):
        with pytest.raises(ValueError):
            top_k_per_row(sp.identity(3), 0)

    def test_preserves_shape_and_sparsity_bound(self):
        rng = np.random.default_rng(0)
        dense = rng.random((20, 20))
        pruned = top_k_per_row(sp.csr_matrix(dense), 5)
        assert pruned.shape == (20, 20)
        assert pruned.nnz <= 20 * 5


class TestSparseRowNormalize:
    def test_rows_sum_to_one(self):
        matrix = sp.csr_matrix(np.array([[1.0, 3.0], [2.0, 2.0]]))
        normalized = sparse_row_normalize(matrix)
        np.testing.assert_allclose(np.asarray(normalized.sum(axis=1)).ravel(), 1.0)

    def test_zero_rows_stay_zero(self):
        matrix = sp.csr_matrix((3, 3))
        normalized = sparse_row_normalize(matrix)
        assert normalized.nnz == 0


class TestDenseToSparseThreshold:
    def test_drops_small_entries(self):
        dense = np.array([[0.5, 1e-6], [0.0, 0.2]])
        sparse = dense_to_sparse_threshold(dense, 1e-3)
        assert sparse.nnz == 2
        assert sparse[0, 1] == 0.0
