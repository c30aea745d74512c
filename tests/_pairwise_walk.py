"""Pairwise random-walk quantities used in the paper's theory section.

Not part of the package: these exist only to *verify* the paper's claims
(``test_simrank_theory.py``, ``test_property_based.py``), never to run
the model:

* :func:`pairwise_meeting_probability` computes
  ``↔P(u, v | t^{2ℓ}) = Σ_w p(w | u, ℓ) · p(w | v, ℓ)`` (Definition III.1).
* :func:`pairwise_walk_series` sums ``Σ_ℓ c^ℓ ↔P(u, v | t^{2ℓ})`` and, per
  Theorem III.2, equals the linearized SimRank score.
* :func:`homophily_probability` evaluates the closed form
  ``H_p^ℓ = (2p² − 2p + 1)^ℓ`` of Corollary III.3 for the probability that
  the two endpoints of a length-``2ℓ`` tour share a label under
  heterophily extent ``p``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SimRankError
from repro.graphs.graph import Graph
from repro.graphs.normalize import row_normalize


def walk_distribution(graph: Graph, node: int, length: int) -> np.ndarray:
    """Distribution of an unbiased ``length``-step random walk from ``node``."""
    if length < 0:
        raise SimRankError(f"length must be non-negative, got {length}")
    transition = row_normalize(graph.adjacency)
    state = np.zeros(graph.num_nodes)
    state[node] = 1.0
    for _ in range(length):
        state = transition.T @ state
    return state


def pairwise_meeting_probability(graph: Graph, u: int, v: int, length: int) -> float:
    """``↔P(u, v | t^{2ℓ})`` — both walks of length ``ℓ`` end at the same node."""
    p_u = walk_distribution(graph, u, length)
    p_v = walk_distribution(graph, v, length)
    return float(np.dot(p_u, p_v))


def pairwise_walk_series(graph: Graph, u: int, v: int, *, decay: float = 0.6,
                         max_length: int = 15) -> float:
    """``Σ_{ℓ=1}^{L} c^ℓ ↔P(u, v | t^{2ℓ})`` (Theorem III.2 right-hand side)."""
    if not 0.0 < decay < 1.0:
        raise SimRankError(f"decay must be in (0, 1), got {decay}")
    total = 1.0 if u == v else 0.0
    for length in range(1, max_length + 1):
        total += decay**length * pairwise_meeting_probability(graph, u, v, length)
    return total


def homophily_probability(p: float, length: int) -> float:
    """Closed form ``H_p^ℓ = (2p² − 2p + 1)^ℓ`` from Corollary III.3.

    ``p`` is the heterophily extent (probability that a neighbour carries a
    different label) and ``length`` is the half tour length ``ℓ``.
    """
    if not 0.0 <= p <= 1.0:
        raise SimRankError(f"heterophily extent p must be in [0, 1], got {p}")
    if length < 0:
        raise SimRankError(f"length must be non-negative, got {length}")
    return float((2.0 * p * p - 2.0 * p + 1.0) ** length)


def simulate_tour_homophily(p: float, length: int, *, num_samples: int = 20000,
                            seed: int = 0) -> float:
    """Monte-Carlo estimate of the Corollary III.3 recursion.

    The corollary models the endpoints of a length-``2ℓ`` tour as homophilic
    when, at every level of the tour, the two sides either both keep or both
    flip the label (probability ``p² + (1 − p)²`` per level, independently
    across levels).  This simulation draws per-level flips for both sides
    and reports the fraction of samples satisfying that level-wise agreement,
    which converges to the closed form ``(2p² − 2p + 1)^ℓ``.
    """
    rng = np.random.default_rng(seed)
    if length == 0:
        return 1.0
    flips_left = rng.random((num_samples, length)) < p
    flips_right = rng.random((num_samples, length)) < p
    agree_all_levels = np.all(flips_left == flips_right, axis=1)
    return float(np.mean(agree_all_levels))


__all__ = [
    "walk_distribution",
    "pairwise_meeting_probability",
    "pairwise_walk_series",
    "homophily_probability",
    "simulate_tour_homophily",
]
