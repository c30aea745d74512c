"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from _pairwise_walk import homophily_probability
from repro.config import SimRankConfig
from repro.datasets.splits import stratified_splits
from repro.graphs.graph import Graph
from repro.graphs.homophily import edge_homophily, node_homophily
from repro.graphs.normalize import row_normalize, symmetric_normalize
from repro.graphs.sparse import top_k_per_row
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.simrank.engine import localpush_engine
from repro.simrank.exact import linearized_simrank
from repro.simrank.localpush import localpush_simrank
from repro.simrank.topk import simrank_operator


SETTINGS = settings(max_examples=25, deadline=None)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def random_graphs(draw, min_nodes=3, max_nodes=20):
    """Random connected-ish undirected graphs with labels."""
    num_nodes = draw(st.integers(min_nodes, max_nodes))
    # A random spanning chain keeps every node non-isolated, plus extra edges.
    chain = [(i, i + 1) for i in range(num_nodes - 1)]
    extra_count = draw(st.integers(0, num_nodes * 2))
    extra = [
        (draw(st.integers(0, num_nodes - 1)), draw(st.integers(0, num_nodes - 1)))
        for _ in range(extra_count)
    ]
    edges = [edge for edge in chain + extra if edge[0] != edge[1]]
    labels = np.array([draw(st.integers(0, 2)) for _ in range(num_nodes)])
    # Guarantee at least two classes so homophily is well defined but not trivial.
    labels[0] = 0
    if num_nodes > 1:
        labels[1] = 1
    features = np.eye(num_nodes)
    return Graph.from_edges(num_nodes, edges, labels=labels, features=features)


# --------------------------------------------------------------------------- #
# Graph invariants
# --------------------------------------------------------------------------- #
class TestGraphProperties:
    @SETTINGS
    @given(random_graphs())
    def test_adjacency_symmetric_and_degrees_match(self, graph):
        assert (graph.adjacency != graph.adjacency.T).nnz == 0
        assert graph.degrees.sum() == graph.num_directed_edges

    @SETTINGS
    @given(random_graphs())
    def test_homophily_measures_in_unit_interval(self, graph):
        assert 0.0 <= node_homophily(graph) <= 1.0
        assert 0.0 <= edge_homophily(graph) <= 1.0

    @SETTINGS
    @given(random_graphs())
    def test_uniform_labels_give_perfect_homophily(self, graph):
        uniform = graph.with_labels(np.zeros(graph.num_nodes, dtype=int))
        assert node_homophily(uniform) == 1.0
        assert edge_homophily(uniform) == 1.0

    @SETTINGS
    @given(random_graphs())
    def test_row_normalize_rows_are_stochastic(self, graph):
        normalized = row_normalize(graph.adjacency)
        sums = np.asarray(normalized.sum(axis=1)).ravel()
        degrees = graph.degrees
        np.testing.assert_allclose(sums[degrees > 0], 1.0)

    @SETTINGS
    @given(random_graphs())
    def test_symmetric_normalize_spectral_radius(self, graph):
        normalized = symmetric_normalize(graph.adjacency).toarray()
        eigenvalues = np.linalg.eigvalsh(normalized)
        assert eigenvalues.max() <= 1.0 + 1e-8


# --------------------------------------------------------------------------- #
# SimRank invariants
# --------------------------------------------------------------------------- #
class TestSimRankProperties:
    @SETTINGS
    @given(random_graphs(max_nodes=14), st.floats(0.2, 0.8))
    def test_linearized_simrank_symmetric_nonnegative(self, graph, decay):
        scores = linearized_simrank(graph, decay=decay, num_iterations=8)
        np.testing.assert_allclose(scores, scores.T, atol=1e-10)
        assert scores.min() >= -1e-12

    @SETTINGS
    @given(random_graphs(max_nodes=12), st.sampled_from([0.3, 0.15, 0.05]))
    def test_localpush_error_bound_property(self, graph, epsilon):
        """Lemma III.5 holds on arbitrary random graphs."""
        reference = linearized_simrank(graph, num_iterations=40)
        approx = localpush_simrank(graph, epsilon=epsilon, prune=False).matrix.toarray()
        assert np.abs(approx - reference).max() < epsilon

    @SETTINGS
    @given(random_graphs(max_nodes=12), st.sampled_from([0.3, 0.1]))
    def test_engine_core_error_bound_property(self, graph, epsilon):
        """Lemma III.5 holds for the engine core on arbitrary graphs."""
        reference = linearized_simrank(graph, num_iterations=40)
        approx = localpush_engine(graph, epsilon=epsilon,
                                  prune=False).matrix.toarray()
        assert np.abs(approx - reference).max() < epsilon

    @SETTINGS
    @given(st.floats(0.0, 1.0), st.integers(0, 10))
    def test_homophily_probability_in_unit_interval(self, p, length):
        value = homophily_probability(p, length)
        assert 0.0 <= value <= 1.0

    @SETTINGS
    @given(st.floats(0.5, 1.0), st.integers(1, 8))
    def test_homophily_probability_monotone_in_p_above_half(self, p, length):
        """Corollary III.3: for p > 0.5 the probability grows with p."""
        higher = min(1.0, p + 0.05)
        assert homophily_probability(higher, length) >= homophily_probability(p, length) - 1e-12


# --------------------------------------------------------------------------- #
# Single-source query invariants
# --------------------------------------------------------------------------- #
class TestSingleSourceProperties:
    """Query-layer invariants: score/topk coherence, batch == sequential.

    The ``random_graphs`` strategy builds connected graphs (a spanning
    chain underlies every draw), so the engine's bit-identical batch
    guarantee applies unconditionally here.
    """

    @SETTINGS
    @given(random_graphs(max_nodes=12), st.data())
    def test_score_equals_the_topk_entry(self, graph, data):
        from repro.api import score, topk

        u = data.draw(st.integers(0, graph.num_nodes - 1))
        v = data.draw(st.integers(0, graph.num_nodes - 1))
        entries = dict(topk(graph, u, graph.num_nodes))
        assert score(graph, u, v) == entries.get(v, 0.0)  # bitwise

    @SETTINGS
    @given(random_graphs(max_nodes=14), st.data())
    def test_batched_rows_equal_sequential_rows(self, graph, data):
        from repro.simrank.engine import (
            multi_source_localpush,
            single_source_localpush,
        )

        sources = data.draw(st.lists(
            st.integers(0, graph.num_nodes - 1), min_size=1, max_size=4))
        batched = multi_source_localpush(graph, sources, epsilon=0.1,
                                         prune=False, absorb_residual=True)
        for source, result in zip(sources, batched):
            solo = single_source_localpush(graph, source, epsilon=0.1,
                                           prune=False, absorb_residual=True)
            assert np.array_equal(result.row.indptr, solo.row.indptr)
            assert np.array_equal(result.row.indices, solo.row.indices)
            assert np.array_equal(result.row.data, solo.row.data)

    @SETTINGS
    @given(random_graphs(max_nodes=12), st.sampled_from([0.3, 0.1]),
           st.data())
    def test_single_source_row_error_bound(self, graph, epsilon, data):
        from repro.simrank.engine import single_source_localpush

        source = data.draw(st.integers(0, graph.num_nodes - 1))
        reference = linearized_simrank(graph, num_iterations=40)[source]
        row = single_source_localpush(graph, source, epsilon=epsilon,
                                      prune=False).row
        assert np.abs(
            np.asarray(row.todense()).ravel() - reference).max() < epsilon


# --------------------------------------------------------------------------- #
# Sparse helpers
# --------------------------------------------------------------------------- #
@st.composite
def _tied_matrices_and_k(draw):
    """A square 7×7 or a long-row 3×64 matrix of four tied values, and a
    ``k`` from 1 to its row length."""
    shape = draw(st.sampled_from([(7, 7), (3, 64)]))
    dense = draw(hnp.arrays(st.sampled_from([np.float64, np.float32]), shape,
                            elements=st.sampled_from([0.0, 0.25, 0.5, 1.0])))
    return dense, draw(st.integers(1, shape[1]))


class TestTopKProperties:
    @SETTINGS
    @given(
        hnp.arrays(np.float64, (8, 8), elements=st.floats(0.0, 1.0)),
        st.integers(1, 8),
    )
    def test_topk_keeps_subset_of_entries(self, dense, k):
        matrix = sp.csr_matrix(dense)
        pruned = top_k_per_row(matrix, k)
        assert pruned.nnz <= matrix.nnz
        assert (np.diff(pruned.indptr) <= k).all()
        difference = (matrix - pruned).toarray()
        assert difference.min() >= -1e-12  # pruning never adds or increases entries

    @SETTINGS
    @given(_tied_matrices_and_k(), st.booleans())
    def test_topk_equals_the_per_row_loop_bitwise(self, dense_and_k,
                                                  diagonal):
        """The masked prune reproduces the historical per-row loop, ties
        and the kept diagonal included.  The long rows put many ties on
        both sides of the k-th value, where the prune's candidate filter
        cuts."""
        from _simrank_oracles import top_k_per_row_loop

        dense, k = dense_and_k
        matrix = sp.csr_matrix(dense)
        pruned = top_k_per_row(matrix, k, keep_diagonal=diagonal)
        reference = top_k_per_row_loop(matrix, k, keep_diagonal=diagonal)
        assert pruned.dtype == reference.dtype
        assert np.array_equal(pruned.indptr, reference.indptr)
        assert np.array_equal(pruned.indices, reference.indices)
        assert np.array_equal(pruned.data, reference.data)

    @SETTINGS
    @given(
        hnp.arrays(np.float64, (6, 6), elements=st.floats(0.0, 1.0)),
        st.integers(1, 6),
    )
    def test_topk_keeps_row_maximum(self, dense, k):
        matrix = sp.csr_matrix(dense)
        pruned = top_k_per_row(matrix, k).toarray()
        for row in range(dense.shape[0]):
            if matrix[row].nnz == 0:
                continue
            assert pruned[row].max() == dense[row].max()


# --------------------------------------------------------------------------- #
# Operator top-k invariants
# --------------------------------------------------------------------------- #
def _operator(graph, k, epsilon=0.1):
    return simrank_operator(graph, config=SimRankConfig(
        method="localpush", epsilon=epsilon, top_k=k)).matrix


class TestOperatorTopKProperties:
    """The operator's one top-k prune keeps ``k`` entries and the diagonal.

    The prune runs once, on the finished estimate, so the operator is
    exactly ``top_k_per_row(..., keep_diagonal=True)`` of the full run and
    never drops an off-diagonal score larger than one it keeps.
    """

    @SETTINGS
    @given(random_graphs(max_nodes=16), st.integers(1, 5))
    def test_operator_respects_row_budget_and_diagonal(self, graph, k):
        matrix = _operator(graph, k)
        assert np.diff(matrix.indptr).max() <= k
        assert (matrix.diagonal() > 0).all()

    @SETTINGS
    @given(random_graphs(max_nodes=16), st.integers(2, 6),
           st.sampled_from([0.3, 0.1]))
    def test_operator_never_drops_a_larger_score(self, graph, k, epsilon):
        full = localpush_engine(graph, epsilon=epsilon, prune=False,
                                absorb_residual=True).matrix.toarray()
        kept = _operator(graph, k, epsilon).toarray()
        for row in range(graph.num_nodes):
            held = kept[row] > 0
            # Every kept score is the full estimate's score, unchanged.
            assert np.array_equal(kept[row][held], full[row][held])
            dropped = (full[row] > 0) & ~held
            held[row] = False  # the diagonal is kept whatever its rank
            if dropped.any() and held.any():
                assert full[row][dropped].max() <= kept[row][held].min()

    @SETTINGS
    @given(random_graphs(max_nodes=16), st.integers(2, 6),
           st.sampled_from([0.3, 0.1]))
    def test_operator_equals_posthoc_topk(self, graph, k, epsilon):
        full = localpush_engine(graph, epsilon=epsilon, prune=False,
                                absorb_residual=True)
        expected = top_k_per_row(full.matrix, k, keep_diagonal=True)
        matrix = _operator(graph, k, epsilon)
        assert np.array_equal(matrix.indptr, expected.indptr)
        assert np.array_equal(matrix.indices, expected.indices)
        assert np.array_equal(matrix.data, expected.data)


# --------------------------------------------------------------------------- #
# Loss and split invariants
# --------------------------------------------------------------------------- #
class TestLossProperties:
    @SETTINGS
    @given(hnp.arrays(np.float64, (5, 4), elements=st.floats(-10, 10)))
    def test_softmax_rows_are_distributions(self, logits):
        probabilities = softmax(logits, axis=1)
        np.testing.assert_allclose(probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert probabilities.min() >= 0.0

    @SETTINGS
    @given(hnp.arrays(np.float64, (6, 3), elements=st.floats(-5, 5)),
           st.lists(st.integers(0, 2), min_size=6, max_size=6))
    def test_cross_entropy_nonnegative(self, logits, labels):
        loss, grad = softmax_cross_entropy(logits, np.array(labels))
        assert loss >= 0.0
        # Gradient rows sum to zero (softmax minus one-hot).
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-9)


class TestSplitProperties:
    @SETTINGS
    @given(st.integers(2, 5), st.integers(10, 40), st.integers(0, 1000))
    def test_stratified_splits_partition_nodes(self, num_classes, per_class, seed):
        labels = np.repeat(np.arange(num_classes), per_class)
        split = stratified_splits(labels, num_splits=1, seed=seed)[0]
        union = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(union), np.arange(labels.size))
        assert set(labels[split.train]) == set(range(num_classes))


# --------------------------------------------------------------------------- #
# Dynamic maintenance invariants
# --------------------------------------------------------------------------- #
class TestDynamicProperties:
    @SETTINGS
    @given(random_graphs(min_nodes=4, max_nodes=12), st.data())
    def test_random_update_stream_stays_in_bound(self, graph, data):
        """Interleaved updates and queries stay within the ε bound.

        A random stream of valid inserts/deletes/reweights is applied
        through one :class:`DynamicOperator`; after every repair the
        maintained estimate must still be within ``epsilon`` of the
        dense oracle on the *current* graph, exactly as a fresh
        recompute would be.
        """
        from repro.config import SimRankConfig
        from repro.dynamic import DynamicOperator
        from repro.graphs.delta import GraphDelta

        epsilon = 0.1
        operator = DynamicOperator(
            graph, simrank=SimRankConfig(method="localpush", epsilon=epsilon))
        num_updates = data.draw(st.integers(1, 4), label="num_updates")
        for _ in range(num_updates):
            current = operator.graph
            n = current.num_nodes
            dense = current.adjacency.toarray()
            present = [(u, v) for u in range(n) for v in range(u + 1, n)
                       if dense[u, v] != 0.0]
            absent = [(u, v) for u in range(n) for v in range(u + 1, n)
                      if dense[u, v] == 0.0]
            kinds = ["reweight", "delete"] if present else []
            if absent:
                kinds.append("insert")
            kind = data.draw(st.sampled_from(kinds), label="kind")
            pairs = absent if kind == "insert" else present
            u, v = data.draw(st.sampled_from(pairs), label="pair")
            if kind == "reweight":
                weight = data.draw(st.floats(0.25, 4.0), label="weight")
                delta = GraphDelta(kind, u, v, weight=weight)
            elif kind == "insert":
                delta = GraphDelta(kind, u, v)
            else:
                delta = GraphDelta(kind, u, v)
            operator.apply(delta)
            # Query path: the served snapshot against the dense oracle.
            reference = linearized_simrank(operator.graph,
                                           num_iterations=60)
            snapshot = operator.operator().matrix.toarray()
            assert np.abs(snapshot - reference).max() < epsilon
            assert (operator.residual_max
                    <= operator.push_threshold * (1 + 1e-12))
