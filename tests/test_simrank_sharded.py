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
* stream top-k pruning without changing the final
  ``top_k_per_row(..., keep_diagonal=True)`` result.
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
from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.sparse import top_k_per_row
from repro.simrank.engine import localpush_engine
from repro.simrank.exact import linearized_simrank
from repro.simrank.localpush import localpush_simrank

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
    def test_workers_do_not_change_streamed_topk(self, workers):
        graph = _sbm(200, seed=6)
        reference = _sharded(graph, epsilon=0.1, prune=False,
                             absorb_residual=True,
                             stream_top_k=6, num_workers=1,
                             num_shards=5)
        parallel = _sharded(graph, epsilon=0.1, prune=False,
                            absorb_residual=True,
                            stream_top_k=6, num_workers=workers,
                            num_shards=5)
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


class TestStreamingTopK:
    """Streaming prune must equal pruning the fully materialised estimate."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("k", [2, 8])
    def test_equals_posthoc_topk(self, make_graph, k):
        graph = make_graph()
        full = _sharded(graph, epsilon=0.1, prune=False,
                        absorb_residual=True)
        streamed = _sharded(graph, epsilon=0.1, prune=False,
                            absorb_residual=True,
                            stream_top_k=k)
        expected = top_k_per_row(full.matrix, k, keep_diagonal=True)
        assert np.array_equal(streamed.matrix.indptr, expected.indptr)
        assert np.array_equal(streamed.matrix.indices, expected.indices)
        np.testing.assert_allclose(streamed.matrix.data, expected.data,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equals_posthoc_topk_bitwise_at_ulp_ties(self, workers):
        """Row 0 holds two scores 1 ulp apart (cols 5 and 7): the full
        estimate must sum each entry's absorptions in the streaming
        fold's round order, or the post-hoc top-2 keeps the other one."""
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
        streamed = localpush_engine(graph, stream_top_k=2, **kwargs)
        expected = top_k_per_row(full.matrix, 2, keep_diagonal=True)
        assert np.array_equal(streamed.matrix.indptr, expected.indptr)
        assert np.array_equal(streamed.matrix.indices, expected.indices)
        assert np.array_equal(streamed.matrix.data, expected.data)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_semantics_uniform_across_worker_counts(self, workers):
        """stream_top_k must not change meaning with the worker count."""
        graph = _sbm(150, seed=17)
        result = localpush_simrank(graph, epsilon=0.1, prune=False,
                                   absorb_residual=True, num_workers=workers,
                                   stream_top_k=5)
        assert np.diff(result.matrix.indptr).max() <= 5
        assert (result.matrix.diagonal() > 0).all()

    def test_invalid_stream_top_k_rejected_for_every_worker_count(
            self, tiny_graph):
        for workers in (1, 2, 3):
            with pytest.raises(SimRankError):
                localpush_simrank(tiny_graph, epsilon=0.1,
                                  num_workers=workers, stream_top_k=0)

    def test_row_budget_and_diagonal(self):
        graph = _sbm(150, seed=9)
        result = _sharded(graph, epsilon=0.1, prune=False,
                          absorb_residual=True, stream_top_k=4)
        assert np.diff(result.matrix.indptr).max() <= 4
        assert (result.matrix.diagonal() > 0).all()

    def test_streamed_memory_stays_bounded(self):
        """Mid-loop the estimate must stay well below the unpruned size."""
        graph = _sbm(200, seed=10)
        k = 4
        full = _sharded(graph, epsilon=0.05, prune=False,
                        absorb_residual=True)
        streamed = _sharded(graph, epsilon=0.05, prune=False,
                            absorb_residual=True,
                            stream_top_k=k)
        assert streamed.matrix.nnz <= k * graph.num_nodes
        assert streamed.matrix.nnz < full.matrix.nnz

    def test_operator_pipeline_uses_streaming(self):
        from repro.simrank.topk import simrank_operator

        from repro.config import SimRankConfig

        graph = _sbm(150, seed=11)
        operator = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4, workers=2))
        baseline = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4, workers=1))
        assert np.diff(operator.matrix.indptr).max() <= 4
        diff = np.abs((operator.matrix - baseline.matrix).toarray()).max()
        assert diff < 0.1


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
        with pytest.raises(SimRankError):
            _sharded(tiny_graph, stream_top_k=0)

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

    def test_large_graph_streaming_topk_bounds_memory(self):
        graph = _sbm(2000, seed=21)
        k = 8
        streamed = _sharded(graph, epsilon=0.1, prune=False,
                            absorb_residual=True,
                            stream_top_k=k)
        assert streamed.matrix.nnz <= k * graph.num_nodes
        assert (streamed.matrix.diagonal() > 0).all()
