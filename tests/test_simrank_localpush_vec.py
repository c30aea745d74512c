"""Equivalence suite for the serial engine core + bugfix regressions.

The per-pair dict loop of ``_simrank_oracles`` is the correctness oracle
(a direct transcription of Algorithm 1); the frontier-batched engine
core on one worker (every shard inline) must agree with it within the
configured ``ε`` on every graph family, and both must satisfy the
``‖Ŝ − S‖_max < ε`` bound against the dense linearized series.

Also contains regression tests for the three bugfixes shipped alongside
the engine:

* ``top_k_per_row(keep_diagonal=True)`` keeping ``k + 1`` entries per row,
* ``localpush_simrank`` returning an empty diagonal when ``ε ≥ 1/(1−c)``,
* ``SIGMA._sigmoid`` overflowing ``np.exp`` for large-magnitude logits.
"""

import functools

import numpy as np
import pytest
import scipy.sparse as sp

from _simrank_fixtures import (
    erdos_renyi as _erdos_renyi,
    sbm as _sbm,
    star as _star,
    with_isolated as _with_isolated,
)
from _simrank_oracles import dict_localpush
from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.sparse import top_k_per_row
from repro.models.sigma import _sigmoid
from repro.simrank.engine import localpush_engine
from repro.simrank.exact import linearized_simrank
from repro.simrank.localpush import localpush_simrank


def _serial_core(graph, **kwargs):
    """The engine core on one worker (every shard pushed inline)."""
    return localpush_engine(graph, num_workers=1, **kwargs)


# The oracle, the default entry point and the core on a 2-thread pool.
DIAGONAL_ENGINES = [dict_localpush, localpush_simrank,
                    functools.partial(localpush_simrank, num_workers=2)]


EQUIVALENCE_GRAPHS = [
    pytest.param(lambda: _erdos_renyi(60, 0.08, seed=0), id="erdos-renyi-60"),
    pytest.param(lambda: _erdos_renyi(120, 0.05, seed=1), id="erdos-renyi-120"),
    pytest.param(lambda: _sbm(150, seed=2), id="sbm-150"),
    pytest.param(lambda: _sbm(150, seed=3, homophily=0.7), id="sbm-150-homophilous"),
    pytest.param(_with_isolated, id="isolated-nodes"),
    pytest.param(lambda: _star(12), id="star-12"),
]


class TestOracleEquivalence:
    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    @pytest.mark.parametrize("epsilon", [0.2, 0.05])
    def test_matches_dict_oracle_within_epsilon(self, make_graph, epsilon):
        graph = make_graph()
        oracle = dict_localpush(graph, epsilon=epsilon, prune=False)
        core = _serial_core(graph, epsilon=epsilon, prune=False)
        diff = np.abs((oracle.matrix - core.matrix).toarray()).max()
        assert diff < epsilon

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    def test_error_bound_against_linearized_series(self, make_graph):
        graph = make_graph()
        epsilon = 0.1
        reference = linearized_simrank(graph, num_iterations=60)
        result = _serial_core(graph, epsilon=epsilon, prune=False)
        assert np.abs(result.matrix.toarray() - reference).max() < epsilon

    @pytest.mark.parametrize("make_graph", EQUIVALENCE_GRAPHS)
    def test_absorb_residual_equivalence(self, make_graph):
        graph = make_graph()
        epsilon = 0.1
        oracle = dict_localpush(graph, epsilon=epsilon, prune=False,
                                absorb_residual=True)
        core = _serial_core(graph, epsilon=epsilon, prune=False,
                            absorb_residual=True)
        diff = np.abs((oracle.matrix - core.matrix).toarray()).max()
        assert diff < epsilon

    @pytest.mark.parametrize("epsilon", [0.1, 0.05])
    def test_weighted_graph_equivalence(self, epsilon):
        """Oracle and core must both walk W = A·D⁻¹ with *weighted* degrees."""
        rng = np.random.default_rng(12)
        n = 40
        upper = np.triu(rng.integers(0, 5, size=(n, n)) * (rng.random((n, n)) < 0.15), k=1)
        graph = Graph(sp.csr_matrix(upper + upper.T), name="weighted")
        reference = linearized_simrank(graph, num_iterations=60)
        oracle = dict_localpush(graph, epsilon=epsilon, prune=False)
        core = _serial_core(graph, epsilon=epsilon, prune=False)
        assert np.abs(oracle.matrix.toarray() - reference).max() < epsilon
        assert np.abs(core.matrix.toarray() - reference).max() < epsilon
        diff = np.abs((oracle.matrix - core.matrix).toarray()).max()
        assert diff < epsilon

    def test_invalid_worker_count_rejected(self, tiny_graph):
        with pytest.raises(SimRankError):
            localpush_simrank(tiny_graph, epsilon=0.1, num_workers=0)


class TestSerialCoreOutput:
    def test_pruning_keeps_offdiagonal_above_floor(self):
        graph = _sbm(150, seed=6)
        result = _serial_core(graph, epsilon=0.1, prune=True)
        offdiag = result.matrix.copy().tolil()
        offdiag.setdiag(0)
        values = offdiag.tocsr()
        values.eliminate_zeros()
        if values.nnz:
            assert values.data.min() >= 0.1 / 10.0

    def test_diagonal_always_positive(self):
        for make_graph in (_with_isolated, lambda: _star(8)):
            result = _serial_core(make_graph(), epsilon=0.1)
            assert (result.matrix.diagonal() > 0).all()

    def test_max_pushes_cap(self):
        graph = _sbm(150, seed=8)
        with pytest.raises(SimRankError):
            _serial_core(graph, epsilon=0.01, max_pushes=5)

    def test_invalid_parameters(self, tiny_graph):
        with pytest.raises(SimRankError):
            _serial_core(tiny_graph, epsilon=0.0)
        with pytest.raises(SimRankError):
            _serial_core(tiny_graph, decay=1.0)

    def test_metadata(self):
        graph = _sbm(150, seed=9)
        result = _serial_core(graph, epsilon=0.1)
        assert result.num_workers == 1
        assert result.num_rounds is not None and result.num_rounds > 0
        assert result.num_pushes > 0
        assert result.elapsed_seconds >= 0.0


class TestLargeEpsilonDiagonal:
    """Regression: ε ≥ 1/(1−c) used to return a matrix with no entries."""

    @pytest.mark.parametrize("engine", DIAGONAL_ENGINES,
                             ids=["dict", "core", "thread"])
    def test_diagonal_survives_suppressed_pushes(self, engine):
        graph = _erdos_renyi(30, 0.15, seed=10)
        # decay 0.6 → threshold = 0.4·ε ≥ 1 once ε ≥ 2.5.
        result = engine(graph, epsilon=3.0)
        diagonal = result.matrix.diagonal()
        assert (diagonal > 0).all()

    @pytest.mark.parametrize("engine", DIAGONAL_ENGINES,
                             ids=["dict", "core", "thread"])
    def test_diagonal_survives_without_prune(self, engine):
        graph = _star(5)
        result = engine(graph, epsilon=10.0, prune=False)
        assert (result.matrix.diagonal() > 0).all()


class TestTopKDiagonalRegression:
    """Regression: keep_diagonal used to retain k + 1 entries per row."""

    def test_rows_have_at_most_k_entries(self):
        rng = np.random.default_rng(0)
        dense = rng.random((30, 30))
        pruned = top_k_per_row(sp.csr_matrix(dense), 5, keep_diagonal=True)
        per_row = np.diff(pruned.indptr)
        assert per_row.max() <= 5
        assert (pruned.diagonal() > 0).all()

    def test_diagonal_evicts_smallest_kept_entry(self):
        row = np.array([[0.01, 0.5, 0.4, 0.3]])
        pruned = top_k_per_row(sp.csr_matrix(row), 2, keep_diagonal=True)
        dense = pruned.toarray()[0]
        # Diagonal (0.01) replaces the smallest of the top-2 (0.4).
        np.testing.assert_allclose(dense, [0.01, 0.5, 0.0, 0.0])

    def test_diagonal_already_in_topk_is_not_duplicated(self):
        row = np.array([[0.9, 0.5, 0.1, 0.2]])
        pruned = top_k_per_row(sp.csr_matrix(row), 2, keep_diagonal=True)
        assert pruned.nnz == 2
        np.testing.assert_allclose(pruned.toarray()[0], [0.9, 0.5, 0.0, 0.0])

    def test_tie_break_prefers_smaller_column(self):
        row = np.array([[0.0, 0.5, 0.5, 0.5]])
        pruned = top_k_per_row(sp.csr_matrix(row), 2)
        np.testing.assert_allclose(pruned.toarray()[0], [0.0, 0.5, 0.5, 0.0])

    def test_operator_rows_bounded_with_positive_diagonal(self):
        graph = _sbm(150, seed=11)
        from repro.config import SimRankConfig
        from repro.simrank.topk import simrank_operator

        operator = simrank_operator(graph, config=SimRankConfig(
            method="localpush", epsilon=0.1, top_k=4, workers=1))
        per_row = np.diff(operator.matrix.indptr)
        assert per_row.max() <= 4
        assert (operator.matrix.diagonal() > 0).all()


class TestSigmoidStability:
    """Regression: naive 1/(1+exp(-x)) overflowed for large negative logits."""

    def test_extreme_logits_do_not_overflow(self):
        with np.errstate(over="raise", under="ignore"):
            assert _sigmoid(-1000.0) == pytest.approx(0.0)
            assert _sigmoid(1000.0) == pytest.approx(1.0)

    def test_matches_naive_form_in_stable_range(self):
        for value in np.linspace(-30, 30, 13):
            expected = 1.0 / (1.0 + np.exp(-value))
            assert _sigmoid(float(value)) == pytest.approx(expected, rel=1e-12)

    def test_symmetry(self):
        for value in (-7.3, -0.5, 0.0, 2.2):
            assert _sigmoid(value) + _sigmoid(-value) == pytest.approx(1.0)
