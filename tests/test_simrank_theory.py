"""Tests validating the paper's theoretical claims (Theorem III.2, Corollary III.3)."""

import numpy as np
import pytest

from _pairwise_walk import (
    homophily_probability,
    pairwise_meeting_probability,
    pairwise_walk_series,
    simulate_tour_homophily,
    walk_distribution,
)
from repro.errors import SimRankError
from repro.simrank.exact import linearized_simrank


class TestWalkDistribution:
    def test_is_probability_distribution(self, tiny_graph):
        dist = walk_distribution(tiny_graph, 0, 3)
        assert dist.min() >= 0.0
        assert dist.sum() == pytest.approx(1.0)

    def test_zero_steps_is_point_mass(self, tiny_graph):
        dist = walk_distribution(tiny_graph, 2, 0)
        assert dist[2] == pytest.approx(1.0)
        assert dist.sum() == pytest.approx(1.0)

    def test_negative_length_raises(self, tiny_graph):
        with pytest.raises(SimRankError):
            walk_distribution(tiny_graph, 0, -1)


class TestPairwiseMeetingProbability:
    def test_symmetric_in_endpoints(self, tiny_graph):
        forward = pairwise_meeting_probability(tiny_graph, 0, 4, 3)
        backward = pairwise_meeting_probability(tiny_graph, 4, 0, 3)
        assert forward == pytest.approx(backward)

    def test_bounded_by_one(self, tiny_graph):
        for length in range(1, 5):
            value = pairwise_meeting_probability(tiny_graph, 0, 5, length)
            assert 0.0 <= value <= 1.0

    def test_adjacent_same_degree_nodes_meet(self, path_graph):
        # Nodes 1 and 3 of a path share node 2 as a neighbour: one-step walks
        # meet there with probability (1/2) * (1/2).
        value = pairwise_meeting_probability(path_graph, 1, 3, 1)
        assert value == pytest.approx(0.25)


class TestTheoremIII2:
    def test_series_equals_linearized_simrank(self, tiny_graph):
        """Theorem III.2: S'(u, v) = Σ_ℓ c^ℓ ↔P(u, v | t^{2ℓ})."""
        matrix = linearized_simrank(tiny_graph, decay=0.6, num_iterations=15)
        for u, v in [(0, 1), (0, 3), (2, 5), (4, 4)]:
            series = pairwise_walk_series(tiny_graph, u, v, decay=0.6, max_length=15)
            assert matrix[u, v] == pytest.approx(series, abs=1e-6)

    def test_global_reach_beyond_neighbourhood(self, path_graph):
        """The aggregation assigns non-zero weight to distant same-parity nodes."""
        matrix = linearized_simrank(path_graph, num_iterations=20, include_self=False)
        # Nodes 0 and 4 are four hops apart yet structurally similar.
        assert matrix[0, 4] > 0.0


class TestCorollaryIII3:
    def test_closed_form_matches_simulation(self):
        for p in (0.6, 0.75, 0.9):
            for length in (1, 2, 3):
                closed = homophily_probability(p, length)
                simulated = simulate_tour_homophily(p, length, num_samples=40000, seed=1)
                assert closed == pytest.approx(simulated, abs=0.02)

    def test_increases_with_heterophily_extent(self):
        """For p > 0.5, H_p^ℓ grows as p grows (the paper's key implication)."""
        for length in (1, 2, 4):
            values = [homophily_probability(p, length) for p in (0.55, 0.7, 0.85, 0.99)]
            assert all(later >= earlier for earlier, later in zip(values, values[1:]))

    def test_length_zero_is_certain(self):
        assert homophily_probability(0.7, 0) == pytest.approx(1.0)

    def test_p_half_is_least_informative(self):
        assert homophily_probability(0.5, 3) == pytest.approx(0.5**3)

    def test_invalid_arguments(self):
        with pytest.raises(SimRankError):
            homophily_probability(1.5, 2)
        with pytest.raises(SimRankError):
            homophily_probability(0.5, -1)
