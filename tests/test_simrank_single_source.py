"""Suite for single-source LocalPush (the query engine) and its queries.

Pins the tentpole guarantee of ``multi_source_localpush``: the returned
row is **bit-identical** to the same row of the all-pairs
``localpush_engine`` matrix under the same parameters — on connected
and disconnected graphs alike, and after the shared top-k row helper —
while touching only the sources' connected components;
``repro.api.score`` reads its single pair from such a row.  Also pins
the Lemma III.5 ``(1-c)·ε`` error bound on the query rows against the
linearized-SimRank series reference, on weighted and disconnected
graphs.
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
    with_isolated as _with_isolated,
)
from repro import api
from repro.config import SimRankConfig
from repro.errors import ConfigError, SimRankError
from repro.graphs.graph import Graph
from repro.graphs.sparse import top_k_per_row, top_k_row
from repro.simrank.engine import (
    SingleSourceResult,
    localpush_engine,
    multi_source_localpush,
    single_source_localpush,
)
from repro.simrank.exact import linearized_simrank

#: The library defaults ``repro.api.score`` runs with, LocalPush forced.
QUERY_CONFIG = SimRankConfig(method="localpush", epsilon=0.1)


def _assert_row_identical(a: sp.csr_matrix, b: sp.csr_matrix) -> None:
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)  # bitwise, no tolerance


def _two_sbm_components() -> Graph:
    """Two 300- and 200-node SBM components plus three isolated nodes:
    large enough that a round's frontier holds tens of thousands of
    entries at ε = 0.01."""
    blocks = [_sbm(300, seed=1).adjacency, _sbm(200, seed=2).adjacency,
              sp.csr_matrix((3, 3))]
    return Graph(sp.block_diag(blocks, format="csr"))


#: (fixture, sources).  The disconnected fixtures seed only the sources'
#: components, so their frontiers are a strict subset of the all-pairs
#: run's.
ROW_EQUIVALENCE_CASES = [
    pytest.param(lambda: _erdos_renyi(60, 0.08, seed=0), (0, 17, 59),
                 id="erdos-renyi-60"),
    pytest.param(lambda: _sbm(150, seed=2), (3, 75, 149), id="sbm-150"),
    pytest.param(lambda: _weighted(40, seed=12), (1, 20, 39),
                 id="weighted-40"),
    pytest.param(lambda: _star(12), (0, 5, 12), id="star-12"),
    pytest.param(_disconnected, (0, 35, 52), id="disconnected"),
    pytest.param(_disconnected, (35,), id="disconnected-one-component"),
    pytest.param(_with_isolated, (2, 41, 44), id="er+isolated"),
    pytest.param(_two_sbm_components, (300, 450, 499),
                 id="two-sbm-components"),
]


class TestRowEquivalence:
    """Single-source rows == all-pairs rows, bitwise."""

    @pytest.mark.parametrize("make_graph,sources", ROW_EQUIVALENCE_CASES)
    @pytest.mark.parametrize("epsilon", [0.1, 0.01])
    def test_rows_bit_identical_to_all_pairs(self, make_graph, sources,
                                             epsilon):
        graph = make_graph()
        kwargs = dict(epsilon=epsilon, prune=False, absorb_residual=True)
        full = localpush_engine(graph, **kwargs)
        results = multi_source_localpush(graph, sources, **kwargs)
        for source, result in zip(sources, results):
            assert result.source == source
            _assert_row_identical(result.row, full.matrix.getrow(source))

    def test_pruned_row_matches_all_pairs_pruned(self):
        graph = _erdos_renyi(60, 0.08, seed=0)
        kwargs = dict(epsilon=0.1, prune=True, absorb_residual=True)
        full = localpush_engine(graph, **kwargs)
        result = single_source_localpush(graph, 7, **kwargs)
        _assert_row_identical(result.row, full.matrix.getrow(7))

    def test_topk_row_matches_posthoc_topk(self):
        """The shared row helper prunes a single-source row exactly as
        ``top_k_per_row`` prunes the all-pairs matrix."""
        graph = _sbm(150, seed=2)
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True)
        full = localpush_engine(graph, **kwargs)
        result = single_source_localpush(graph, 30, **kwargs)
        capped = top_k_row(result.estimate, 30, 5)
        expected = top_k_per_row(full.matrix, 5, keep_diagonal=True)
        _assert_row_identical(capped, expected.getrow(30))
        assert capped.nnz == 5 and capped[0, 30] > 0  # the diagonal kept

    def test_batch_equals_solo(self):
        graph = _weighted(40, seed=12)
        sources = (5, 11, 38)
        kwargs = dict(epsilon=0.1, prune=False, absorb_residual=True)
        batched = multi_source_localpush(graph, sources, **kwargs)
        for source, result in zip(sources, batched):
            solo = single_source_localpush(graph, source, **kwargs)
            _assert_row_identical(result.row, solo.row)
            assert result.batch_size == len(sources)
            assert solo.batch_size == 1

    def test_duplicate_sources_share_one_row(self):
        graph = _star(12)
        results = multi_source_localpush(graph, (4, 4), epsilon=0.1)
        assert results[0].row is results[1].row

    def test_results_share_the_call_estimate(self):
        graph = _disconnected()
        results = multi_source_localpush(graph, (0, 35, 52), epsilon=0.1)
        assert all(result.estimate is results[0].estimate
                   for result in results)
        assert [result.component_size for result in results] == [30, 20, 1]
        for result in results:
            _assert_row_identical(result.row,
                                  result.estimate.getrow(result.source))

    def test_pair_matches_row_entry(self):
        graph = _erdos_renyi(60, 0.08, seed=0)
        row = single_source_localpush(graph, 9, epsilon=0.1,
                                      absorb_residual=True).row
        value = api.score(graph, 9, 26, QUERY_CONFIG)
        assert value > 0.0
        assert value == float(row[0, 26])  # bitwise

    def test_public_api_rows_equal_all_pairs_rows_on_texas(self):
        """``repro.api.topk`` ≡ ``repro.api.precompute`` row, for every
        node of a graph below every auto-resolution threshold (183 nodes):
        no graph size routes the all-pairs operator to a different
        engine than the single-source query."""
        from repro.datasets.registry import load_dataset

        graph = load_dataset("texas", seed=0).graph
        config = SimRankConfig(method="localpush", epsilon=0.05)
        operator = api.precompute(graph, config).matrix
        n = graph.num_nodes
        for u in range(n):
            start, end = operator.indptr[u], operator.indptr[u + 1]
            expected = dict(zip(operator.indices[start:end].tolist(),
                                operator.data[start:end].tolist()))
            assert dict(api.topk(graph, u, n, config)) == expected, u

    @pytest.mark.parametrize("n,stride", [
        pytest.param(255, 17, id="below-the-old-256-rung"),
        pytest.param(256, 17, id="at-the-old-256-rung"),
        pytest.param(4096, 1024, id="at-the-old-4096-rung"),
    ])
    def test_public_api_rows_equal_all_pairs_rows_across_the_ladder(
            self, n, stride):
        """The same identity on both sides of every node-count threshold
        at which the engine's execution once changed, sampling every
        ``stride``-th row."""
        graph = _sbm(n, seed=n)
        config = SimRankConfig(method="localpush", epsilon=0.05)
        operator = api.precompute(graph, config).matrix
        for u in range(0, n, stride):
            start, end = operator.indptr[u], operator.indptr[u + 1]
            expected = dict(zip(operator.indices[start:end].tolist(),
                                operator.data[start:end].tolist()))
            assert dict(api.topk(graph, u, n, config)) == expected, u

    def test_cross_component_pair_is_exactly_zero(self):
        graph = _disconnected()  # components [0,30), [30,50), isolated tail
        assert api.score(graph, 3, 41, QUERY_CONFIG) == 0.0
        assert api.score(graph, 52, 0, QUERY_CONFIG) == 0.0


class TestErrorBound:
    """Lemma III.5 on query rows: ‖row − S_ref[source]‖_max < ε."""

    @pytest.mark.parametrize("epsilon", [0.3, 0.1, 0.05])
    @pytest.mark.parametrize("make_graph,sources", [
        pytest.param(lambda: _weighted(40, seed=12), (1, 20, 39),
                     id="weighted-40"),
        pytest.param(_disconnected, (0, 35, 52), id="disconnected"),
    ])
    def test_row_error_bound(self, make_graph, sources, epsilon):
        graph = make_graph()
        reference = linearized_simrank(graph, num_iterations=40)
        results = multi_source_localpush(graph, sources, epsilon=epsilon,
                                         prune=False)
        for source, result in zip(sources, results):
            row = np.asarray(result.row.todense()).ravel()
            assert np.abs(row - reference[source]).max() < epsilon
            assert result.epsilon == epsilon

    def test_smaller_epsilon_is_more_accurate(self):
        graph = _weighted(40, seed=12)
        reference = linearized_simrank(graph, num_iterations=40)[20]
        errors = []
        for epsilon in (0.3, 0.05):
            row = single_source_localpush(graph, 20, epsilon=epsilon,
                                          prune=False).row
            errors.append(np.abs(
                np.asarray(row.todense()).ravel() - reference).max())
        assert errors[1] <= errors[0] + 1e-12


class TestQueryLocality:
    """The query touches only the sources' components — O(query), not O(n²)."""

    def test_batched_sources_see_only_their_own_components(self):
        graph = _disconnected()
        results = multi_source_localpush(graph, [3, 31, 52], epsilon=0.1)
        assert {result.source: result.component_size
                for result in results} == {3: 30, 31: 20, 52: 1}
        supports = {result.source: set(result.row.indices.tolist())
                    for result in results}
        assert supports[3] <= set(range(30))
        assert supports[31] <= set(range(30, 50))
        assert supports[52] == {52}

    def test_component_size_metadata(self):
        graph = _disconnected()
        result = single_source_localpush(graph, 35, epsilon=0.1)
        assert result.component_size == 20
        assert result.row.shape == (1, graph.num_nodes)

    def test_row_support_stays_inside_the_component(self):
        graph = _disconnected()
        result = single_source_localpush(graph, 3, epsilon=0.05, prune=False,
                                         absorb_residual=True)
        assert result.row.nnz > 0
        assert result.row.indices.max() < 30

    def test_query_pushes_fewer_than_all_pairs(self):
        graph = _disconnected()
        full = localpush_engine(graph, epsilon=0.05, prune=False)
        query = single_source_localpush(graph, 35, epsilon=0.05, prune=False)
        assert query.num_pushes < full.num_pushes

    def test_isolated_source_row_is_the_unit_vector(self):
        graph = _with_isolated()
        result = single_source_localpush(graph, 42, epsilon=0.1)
        assert result.component_size == 1
        assert result.row.nnz == 1
        assert float(result.row[0, 42]) == 1.0


class TestValidation:
    def test_out_of_range_source_rejected(self, tiny_graph, tmp_path):
        with pytest.raises(SimRankError):
            single_source_localpush(tiny_graph, tiny_graph.num_nodes,
                                    epsilon=0.1)
        with pytest.raises(SimRankError):
            single_source_localpush(tiny_graph, -1, epsilon=0.1)
        with pytest.raises(SimRankError):
            api.score(tiny_graph, 0, tiny_graph.num_nodes, QUERY_CONFIG)
        # A non-integral id is rejected, never truncated or parsed — also
        # when a cached all-pairs entry could answer the truncated id.
        cached = QUERY_CONFIG.with_overrides(cache_dir=str(tmp_path))
        api.precompute(tiny_graph, cached)
        for config in (QUERY_CONFIG, cached):
            for source in (3.7, True, np.True_, "3"):
                with pytest.raises(SimRankError):
                    single_source_localpush(tiny_graph, source, epsilon=0.1)
                with pytest.raises(SimRankError):
                    api.topk(tiny_graph, source, 3, config)
                with pytest.raises(SimRankError):
                    api.score(tiny_graph, source, 0, config)
                with pytest.raises(SimRankError):
                    api.score(tiny_graph, 0, source, config)

    @pytest.mark.parametrize("cached", [False, True],
                             ids=["engine", "cached-row"])
    def test_a_numpy_integer_is_the_node_it_names(self, tiny_graph,
                                                  tmp_path, cached):
        config = QUERY_CONFIG
        if cached:
            config = config.with_overrides(cache_dir=str(tmp_path))
            api.precompute(tiny_graph, config)
        n = tiny_graph.num_nodes
        assert api.topk(tiny_graph, np.int64(3), n, config) \
            == api.topk(tiny_graph, 3, n, config)
        assert api.score(tiny_graph, np.int64(3), np.int64(4), config) \
            == api.score(tiny_graph, 3, 4, config)

    @pytest.mark.parametrize("k", [np.int64(5), 5.0],
                             ids=["numpy-int", "float"])
    def test_an_integral_k_is_that_k(self, k):
        graph = _erdos_renyi(60, 0.08, seed=0)
        answer = api.topk(graph, 3, k, QUERY_CONFIG)
        assert len(answer) == 5
        assert answer == api.topk(graph, 3, 5, QUERY_CONFIG)

    @pytest.mark.parametrize("k", [5.5, True, np.True_, "5", 0],
                             ids=["fraction", "bool", "numpy-bool", "str",
                                  "zero"])
    def test_a_bad_k_raises(self, tiny_graph, k):
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            api.topk(tiny_graph, 3, k, QUERY_CONFIG)

    def test_empty_sources_rejected(self, tiny_graph):
        with pytest.raises(SimRankError):
            multi_source_localpush(tiny_graph, [], epsilon=0.1)

    def test_max_pushes_cap_raises(self):
        graph = _sbm(150, seed=2)
        with pytest.raises(SimRankError):
            single_source_localpush(graph, 0, epsilon=0.01, max_pushes=1)

    def test_result_metadata(self):
        graph = _sbm(150, seed=2)
        result = single_source_localpush(graph, 10, epsilon=0.1)
        assert isinstance(result, SingleSourceResult)
        for gone in ("executor", "num_workers", "num_shards"):
            assert not hasattr(result, gone)
        assert result.decay == 0.6
        assert result.num_rounds > 0
        assert result.nnz == result.row.nnz
