"""Equivalence / determinism / property suite for the sharded thread-pool plan.

The engine core with ``num_workers >= 2`` splits every round's frontier
into shards pushed by a worker pool.  The per-pair dict loop of
``_simrank_oracles`` remains the correctness oracle (a direct
transcription of Algorithm 1).  The sharded plan must:

* agree with the oracle within ``(1 − c)·ε`` max-norm in the operator
  configuration (``absorb_residual=True``) on every equivalence fixture,
  and within ``ε`` against the dense linearized series,
* return **bit-identical** matrices for every ``num_workers`` and for every
  shard count (shard partition and merge order are worker-independent),
* preserve the error bound on random weighted and disconnected graphs, and
* feed the operator pipeline, which prunes the finished estimate to its
  top-k once, after the loop, to the same bits for every worker count.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from _simrank_fixtures import (
    disconnected as _disconnected,
    erdos_renyi as _erdos_renyi,
    sbm as _sbm,
    star as _star,
    weighted as _weighted,
)
from _simrank_oracles import dict_localpush
from repro.config import SimRankConfig
from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.sparse import top_k_per_row, top_k_row
from repro.simrank.engine import localpush_engine, single_source_localpush
from repro.simrank.exact import linearized_simrank
from repro.simrank.localpush import localpush_simrank
from repro.simrank.topk import simrank_operator

DECAY = 0.6


def _sharded(graph, num_workers=2, **kwargs):
    """The engine core on a thread pool (the sharded plan)."""
    return localpush_engine(graph, num_workers=num_workers, **kwargs)


EQUIVALENCE_GRAPHS = [
    pytest.param(lambda: _erdos_renyi(60, 0.08, seed=0), id="erdos-renyi-60"),
    pytest.param(lambda: _erdos_renyi(120, 0.05, seed=1), id="erdos-renyi-120"),
    pytest.param(lambda: _sbm(150, seed=2), id="sbm-150"),
    pytest.param(lambda: _sbm(150, seed=3, homophily=0.7), id="sbm-150-homophilous"),
    pytest.param(lambda: _weighted(40, seed=12), id="weighted-40"),
    pytest.param(_disconnected, id="disconnected"),
    pytest.param(lambda: _star(12), id="star-12"),
]


class TestShardedEquivalence:
    """The dict loop is the oracle; acceptance bound is (1 − c)·ε."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("epsilon", [0.2, 0.05])
    def test_matches_dict_oracle_within_relaxed_epsilon(self, make_graph, epsilon):
        graph = make_graph()
        oracle = dict_localpush(graph, epsilon=epsilon, prune=False)
        sharded = localpush_simrank(graph, epsilon=epsilon, prune=False,
                                    num_workers=2)
        diff = np.abs((oracle.matrix - sharded.matrix).toarray()).max()
        assert diff < epsilon

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("epsilon", [0.2, 0.05])
    def test_operator_config_matches_oracle_within_tight_bound(self, make_graph,
                                                               epsilon):
        """Acceptance criterion: (1 − c)·ε max-norm vs the dict oracle.

        Both engines run the operator configuration
        (``absorb_residual=True``), which folds all sub-threshold residual
        mass into the estimate; the remaining disagreement is only the
        re-propagated tail, empirically well below ``(1 − c)·ε``.
        """
        graph = make_graph()
        oracle = dict_localpush(graph, epsilon=epsilon, prune=False,
                                absorb_residual=True)
        sharded = localpush_simrank(graph, epsilon=epsilon, prune=False,
                                    absorb_residual=True, num_workers=2)
        diff = np.abs((oracle.matrix - sharded.matrix).toarray()).max()
        assert diff < (1.0 - DECAY) * epsilon

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    def test_error_bound_against_linearized_series(self, make_graph):
        graph = make_graph()
        epsilon = 0.1
        reference = linearized_simrank(graph, num_iterations=60)
        result = _sharded(graph, epsilon=epsilon, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < epsilon

    @pytest.mark.parametrize("num_shards", [1, 3, 7])
    def test_shard_counts_agree_within_float_grouping(self, num_shards):
        """Shard sums regroup float additions; results agree to ~1e-12."""
        graph = _sbm(150, seed=4)
        base = _sharded(graph, epsilon=0.1, prune=False,
                        num_shards=1)
        other = _sharded(graph, epsilon=0.1, prune=False,
                         num_shards=num_shards)
        diff = np.abs((base.matrix - other.matrix).toarray()).max()
        assert diff < 1e-9


class TestDeterminism:
    """Bit-identical output for every worker count — pinned, not approximate."""

    @staticmethod
    def _assert_identical(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)  # bitwise, no tolerance

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_the_matrix(self, workers):
        graph = _sbm(200, seed=5)
        reference = _sharded(graph, epsilon=0.05, prune=False,
                             num_workers=1, num_shards=6)
        parallel = _sharded(graph, epsilon=0.05, prune=False,
                            num_workers=workers, num_shards=6)
        self._assert_identical(reference.matrix, parallel.matrix)
        assert reference.num_pushes == parallel.num_pushes
        assert reference.num_rounds == parallel.num_rounds

    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_do_not_change_the_pruned_operator(self, workers):
        graph = _sbm(200, seed=6)
        reference = _operator(graph, 6, workers=1)
        parallel = _operator(graph, 6, workers=workers)
        self._assert_identical(reference.matrix, parallel.matrix)

    def test_repeated_runs_are_identical(self):
        graph = _erdos_renyi(80, 0.07, seed=8)
        first = _sharded(graph, epsilon=0.1, prune=False)
        second = _sharded(graph, epsilon=0.1, prune=False)
        self._assert_identical(first.matrix, second.matrix)


class TestErrorBoundProperties:
    """Lemma III.5 on random weighted / disconnected graphs (seeded sweep)."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("epsilon", [0.3, 0.1])
    def test_random_weighted_graphs(self, seed, epsilon):
        graph = _weighted(30, seed=seed, density=0.2)
        reference = linearized_simrank(graph, num_iterations=60)
        result = _sharded(graph, epsilon=epsilon, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < epsilon

    @pytest.mark.parametrize("seed", range(3))
    def test_random_disconnected_graphs(self, seed):
        graph = _disconnected(seed=seed * 11 + 1)
        reference = linearized_simrank(graph, num_iterations=60)
        result = _sharded(graph, epsilon=0.1, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < 0.1

    def test_diagonal_always_positive(self):
        for make_graph in (_disconnected, lambda: _star(8)):
            result = _sharded(make_graph(), epsilon=0.1)
            assert (result.matrix.diagonal() > 0).all()

    def test_large_epsilon_keeps_diagonal(self):
        # decay 0.6 → threshold = 0.4·ε ≥ 1 once ε ≥ 2.5: no push ever fires.
        result = _sharded(_erdos_renyi(30, 0.15, seed=10),
                          epsilon=3.0)
        assert (result.matrix.diagonal() > 0).all()


def _operator(graph, k, workers=2):
    """The SIGMA operator pipeline: LocalPush, then top-k once."""
    return simrank_operator(graph, config=SimRankConfig(
        method="localpush", epsilon=0.1, top_k=k, workers=workers))


class TestOperatorTopK:
    """The operator prunes the finished estimate to its top-k, once."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("k", [2, 8])
    def test_equals_posthoc_topk_of_the_full_estimate(self, make_graph, k):
        graph = make_graph()
        full = _sharded(graph, epsilon=0.1, prune=False,
                        absorb_residual=True)
        expected = top_k_per_row(full.matrix, k, keep_diagonal=True)
        TestDeterminism._assert_identical(_operator(graph, k).matrix,
                                          expected)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_budget_and_diagonal(self, workers):
        matrix = _operator(_sbm(150, seed=9), 4, workers=workers).matrix
        assert np.diff(matrix.indptr).max() <= 4
        assert (matrix.diagonal() > 0).all()

    def test_pruned_operator_is_smaller_than_the_full_estimate(self):
        graph = _sbm(200, seed=10)
        k = 4
        full = _sharded(graph, epsilon=0.05, prune=False,
                        absorb_residual=True)
        matrix = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.05, top_k=k, workers=2)).matrix
        assert matrix.nnz <= k * graph.num_nodes
        assert matrix.nnz < full.matrix.nnz

    @pytest.mark.parametrize("workers", [1, 2])
    def test_single_source_row_equals_all_pairs_row_at_ulp_ties(self,
                                                                workers):
        """Row 0's scores at cols 5 and 7 tie under the round-order fold
        and land 1 ulp apart under another summation order: a
        single-source run must sum each entry's absorptions in the
        all-pairs run's order, or the two top-2 rows keep different
        columns."""
        adjacency = np.array([
            [0, 1, 1, 0, 0, 0, 1, 0, 1], [1, 0, 1, 1, 0, 0, 1, 0, 0],
            [1, 1, 0, 1, 0, 0, 0, 0, 0], [0, 1, 1, 0, 1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 1, 0, 1],
            [1, 1, 0, 0, 0, 1, 0, 1, 0], [0, 0, 0, 0, 1, 0, 1, 0, 1],
            [1, 0, 0, 0, 0, 1, 0, 1, 0]], dtype=float)
        graph = Graph(sp.csr_matrix(adjacency))
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True,
                      num_workers=workers)
        full = localpush_engine(graph, **kwargs)
        single = single_source_localpush(graph, 0, **kwargs)
        TestDeterminism._assert_identical(single.row, full.matrix.getrow(0))
        TestDeterminism._assert_identical(
            top_k_row(single.estimate, 0, 2),
            top_k_per_row(full.matrix, 2, keep_diagonal=True).getrow(0))

    def test_operator_pipeline_identical_across_worker_counts(self):
        graph = _sbm(150, seed=11)
        pooled = _operator(graph, 4, workers=2).matrix
        inline = _operator(graph, 4, workers=1).matrix
        assert np.diff(pooled.indptr).max() <= 4
        TestDeterminism._assert_identical(inline, pooled)


class TestShardedParameters:
    def test_invalid_parameters(self, tiny_graph):
        with pytest.raises(SimRankError):
            _sharded(tiny_graph, epsilon=0.0)
        with pytest.raises(SimRankError):
            _sharded(tiny_graph, decay=1.0)
        with pytest.raises(SimRankError):
            _sharded(tiny_graph, num_workers=0)
        with pytest.raises(SimRankError):
            _sharded(tiny_graph, num_shards=0)

    def test_max_pushes_cap(self):
        graph = _sbm(150, seed=14)
        with pytest.raises(SimRankError):
            _sharded(graph, epsilon=0.01, max_pushes=5)

    def test_metadata(self):
        graph = _sbm(150, seed=15)
        result = _sharded(graph, epsilon=0.1, num_workers=3,
                          num_shards=2)
        assert result.num_workers == 3
        assert result.num_shards == 2
        assert result.num_rounds is not None and result.num_rounds > 0
        assert result.num_pushes > 0
        assert result.elapsed_seconds >= 0.0

    def test_prune_keeps_offdiagonal_above_floor(self):
        graph = _sbm(150, seed=16)
        result = _sharded(graph, epsilon=0.1, prune=True)
        offdiag = result.matrix.copy().tolil()
        offdiag.setdiag(0)
        values = offdiag.tocsr()
        values.eliminate_zeros()
        if values.nnz:
            assert values.data.min() >= 0.1 / 10.0


@pytest.mark.slow
class TestShardedStress:
    """Large-graph stress runs; excluded from the fast default selection."""

    def test_large_graph_equivalence_and_worker_determinism(self):
        graph = _sbm(2000, seed=20)
        vectorized = localpush_simrank(graph, epsilon=0.1, prune=False,
                                       num_workers=1)
        serial = _sharded(graph, epsilon=0.1, prune=False,
                          num_workers=1)
        parallel = _sharded(graph, epsilon=0.1, prune=False,
                            num_workers=4)
        assert np.array_equal(serial.matrix.indices, parallel.matrix.indices)
        assert np.array_equal(serial.matrix.data, parallel.matrix.data)
        diff = np.abs((vectorized.matrix - serial.matrix).toarray()).max()
        assert diff < 0.1
        assert serial.num_shards >= 2  # the frontier actually sharded

    def test_large_graph_operator_topk_bounds_memory(self):
        graph = _sbm(2000, seed=21)
        k = 8
        matrix = _operator(graph, k).matrix
        assert matrix.nnz <= k * graph.num_nodes
        assert (matrix.diagonal() > 0).all()
