"""Suite for the LocalPush engine core: oracles, bounds and determinism.

The per-pair dict loop of ``_simrank_oracles`` remains the correctness
oracle (a direct transcription of Algorithm 1).  The engine, which
pushes each round's whole frontier in one sparse product, must:

* agree with the oracle within ``(1 − c)·ε`` max-norm in the operator
  configuration (``absorb_residual=True``) on every equivalence fixture,
  and within ``ε`` against the dense linearized series,
* return **bit-identical** matrices on repeated runs,
* preserve the error bound on random weighted and disconnected graphs,
* feed the operator pipeline, which prunes the finished estimate to its
  top-k once, after the loop, and
* take no execution setting: a run is a function of the graph and the
  mathematical contract alone.
"""

import inspect

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
from repro.simrank.engine import (
    localpush_engine,
    multi_source_localpush,
    resume_localpush,
    single_source_localpush,
)
from repro.simrank.exact import linearized_simrank
from repro.simrank.localpush import localpush_simrank
from repro.simrank.topk import simrank_operator

DECAY = 0.6


def _assert_identical(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)  # bitwise, no tolerance


EQUIVALENCE_GRAPHS = [
    pytest.param(lambda: _erdos_renyi(60, 0.08, seed=0), id="erdos-renyi-60"),
    pytest.param(lambda: _erdos_renyi(120, 0.05, seed=1), id="erdos-renyi-120"),
    pytest.param(lambda: _sbm(150, seed=2), id="sbm-150"),
    pytest.param(lambda: _sbm(150, seed=3, homophily=0.7), id="sbm-150-homophilous"),
    pytest.param(lambda: _weighted(40, seed=12), id="weighted-40"),
    pytest.param(_disconnected, id="disconnected"),
    pytest.param(lambda: _star(12), id="star-12"),
]


class TestOracleEquivalence:
    """The dict loop is the oracle; acceptance bound is (1 − c)·ε."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("epsilon", [0.2, 0.05])
    def test_matches_dict_oracle_within_relaxed_epsilon(self, make_graph, epsilon):
        graph = make_graph()
        oracle = dict_localpush(graph, epsilon=epsilon, prune=False)
        result = localpush_simrank(graph, epsilon=epsilon, prune=False)
        diff = np.abs((oracle.matrix - result.matrix).toarray()).max()
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
        result = localpush_simrank(graph, epsilon=epsilon, prune=False,
                                   absorb_residual=True)
        diff = np.abs((oracle.matrix - result.matrix).toarray()).max()
        assert diff < (1.0 - DECAY) * epsilon

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    def test_error_bound_against_linearized_series(self, make_graph):
        graph = make_graph()
        epsilon = 0.1
        reference = linearized_simrank(graph, num_iterations=60)
        result = localpush_engine(graph, epsilon=epsilon, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < epsilon

    def test_matches_dict_oracle_within_epsilon(self):
        graph = _erdos_renyi(80, 0.07, seed=8)
        oracle = dict_localpush(graph, epsilon=0.05, prune=False)
        core = localpush_engine(graph, epsilon=0.05, prune=False)
        diff = np.abs((oracle.matrix - core.matrix).toarray()).max()
        assert diff < 0.05


class TestDeterminism:
    def test_repeated_runs_are_identical(self):
        graph = _erdos_renyi(80, 0.07, seed=8)
        first = localpush_engine(graph, epsilon=0.1, prune=False)
        second = localpush_engine(graph, epsilon=0.1, prune=False)
        _assert_identical(first.matrix, second.matrix)

    def test_localpush_simrank_is_the_engine(self):
        """Algorithm 1's paper name and the engine are one function."""
        assert localpush_simrank is localpush_engine


class TestErrorBoundProperties:
    """Lemma III.5 on random weighted / disconnected graphs (seeded sweep)."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("epsilon", [0.3, 0.1])
    def test_random_weighted_graphs(self, seed, epsilon):
        graph = _weighted(30, seed=seed, density=0.2)
        reference = linearized_simrank(graph, num_iterations=60)
        result = localpush_engine(graph, epsilon=epsilon, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < epsilon

    @pytest.mark.parametrize("seed", range(3))
    def test_random_disconnected_graphs(self, seed):
        graph = _disconnected(seed=seed * 11 + 1)
        reference = linearized_simrank(graph, num_iterations=60)
        result = localpush_engine(graph, epsilon=0.1, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < 0.1

    def test_diagonal_always_positive(self):
        for make_graph in (_disconnected, lambda: _star(8)):
            result = localpush_engine(make_graph(), epsilon=0.1)
            assert (result.matrix.diagonal() > 0).all()

    def test_large_epsilon_keeps_diagonal(self):
        # decay 0.6 → threshold = 0.4·ε ≥ 1 once ε ≥ 2.5: no push ever fires.
        result = localpush_engine(_erdos_renyi(30, 0.15, seed=10),
                                  epsilon=3.0)
        assert (result.matrix.diagonal() > 0).all()


def _operator(graph, k, epsilon=0.1):
    """The SIGMA operator pipeline: LocalPush, then top-k once."""
    return simrank_operator(graph, config=SimRankConfig(
        method="localpush", epsilon=epsilon, top_k=k))


class TestOperatorTopK:
    """The operator prunes the finished estimate to its top-k, once."""

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("k", [2, 8])
    def test_equals_posthoc_topk_of_the_full_estimate(self, make_graph, k):
        graph = make_graph()
        full = localpush_engine(graph, epsilon=0.1, prune=False,
                                absorb_residual=True)
        expected = top_k_per_row(full.matrix, k, keep_diagonal=True)
        _assert_identical(_operator(graph, k).matrix, expected)

    def test_row_budget_and_diagonal(self):
        matrix = _operator(_sbm(150, seed=9), 4).matrix
        assert np.diff(matrix.indptr).max() <= 4
        assert (matrix.diagonal() > 0).all()

    def test_pruned_operator_is_smaller_than_the_full_estimate(self):
        graph = _sbm(200, seed=10)
        k = 4
        full = localpush_engine(graph, epsilon=0.05, prune=False,
                                absorb_residual=True)
        matrix = _operator(graph, k, epsilon=0.05).matrix
        assert matrix.nnz <= k * graph.num_nodes
        assert matrix.nnz < full.matrix.nnz

    def test_single_source_row_equals_all_pairs_row_at_ulp_ties(self):
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
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True)
        full = localpush_engine(graph, **kwargs)
        single = single_source_localpush(graph, 0, **kwargs)
        _assert_identical(single.row, full.matrix.getrow(0))
        _assert_identical(
            top_k_row(single.estimate, 0, 2),
            top_k_per_row(full.matrix, 2, keep_diagonal=True).getrow(0))


class TestEngineParameters:
    def test_invalid_parameters(self, tiny_graph):
        with pytest.raises(SimRankError):
            localpush_engine(tiny_graph, epsilon=0.0)
        with pytest.raises(SimRankError):
            localpush_engine(tiny_graph, decay=1.0)
        with pytest.raises(SimRankError, match="dtype"):
            localpush_engine(tiny_graph, dtype="float16")

    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf")])
    @pytest.mark.parametrize("run", [
        pytest.param(lambda graph, **kw: localpush_engine(graph, **kw),
                     id="localpush_engine"),
        pytest.param(lambda graph, **kw: resume_localpush(
            graph, sp.identity(graph.num_nodes, format="csr"), **kw),
                     id="resume_localpush"),
        pytest.param(lambda graph, **kw: multi_source_localpush(
            graph, [0, 1], **kw), id="multi_source_localpush"),
        pytest.param(lambda graph, **kw: single_source_localpush(
            graph, 0, **kw), id="single_source_localpush"),
    ])
    def test_non_finite_epsilon_is_rejected(self, run, epsilon, tiny_graph):
        """NaN passes ``ε <= 0`` and an infinite ε puts the push
        threshold out of reach: both would run no round and return the
        identity as a converged estimate."""
        with pytest.raises(SimRankError, match="epsilon must be a finite"):
            run(tiny_graph, epsilon=epsilon)

    @pytest.mark.parametrize("entry_point", [
        localpush_engine, resume_localpush, multi_source_localpush,
        single_source_localpush])
    def test_no_execution_setting(self, entry_point):
        """Every entry point takes only the contract, no execution plan."""
        parameters = set(inspect.signature(entry_point).parameters)
        assert not parameters & {"num_workers", "workers", "num_shards",
                                 "coalesce_every", "copy_residual"}

    def test_max_pushes_cap(self):
        graph = _sbm(150, seed=14)
        with pytest.raises(SimRankError):
            localpush_engine(graph, epsilon=0.01, max_pushes=5)

    def test_metadata(self):
        graph = _sbm(150, seed=15)
        result = localpush_engine(graph, epsilon=0.1)
        assert result.num_rounds is not None and result.num_rounds > 0
        assert result.num_pushes > 0
        assert result.elapsed_seconds >= 0.0
        for gone in ("executor", "num_workers", "num_shards"):
            assert not hasattr(result, gone)

    def test_prune_keeps_offdiagonal_above_floor(self):
        graph = _sbm(150, seed=16)
        result = localpush_engine(graph, epsilon=0.1, prune=True)
        offdiag = result.matrix.copy().tolil()
        offdiag.setdiag(0)
        values = offdiag.tocsr()
        values.eliminate_zeros()
        if values.nnz:
            assert values.data.min() >= 0.1 / 10.0


@pytest.mark.slow
class TestEngineStress:
    """Large-graph runs; excluded from the fast default selection."""

    def test_large_graph_operator_topk_bounds_memory(self):
        graph = _sbm(2000, seed=21)
        k = 8
        matrix = _operator(graph, k).matrix
        assert matrix.nnz <= k * graph.num_nodes
        assert (matrix.diagonal() > 0).all()
