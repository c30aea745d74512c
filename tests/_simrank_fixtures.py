"""Shared graph builders for the LocalPush equivalence suites.

Used by the engine, kernel and oracle-equivalence suites
(``test_simrank_*.py``) so their fixtures cannot drift apart.
Kept out of ``conftest.py`` because these are plain builders parameterised
at the call site, not pytest fixtures.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.graphs.graph import Graph


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    rows, cols = np.nonzero(np.triu(upper, k=1))
    return Graph.from_edges(n, np.stack([rows, cols], axis=1), name=f"er{n}")


def sbm(n: int, seed: int, homophily: float = 0.25) -> Graph:
    config = SyntheticGraphConfig(
        num_nodes=n, num_classes=3, num_features=4, average_degree=6.0,
        homophily=homophily, name=f"sbm{n}")
    return generate_synthetic_graph(config, seed=seed)


def star(num_leaves: int) -> Graph:
    edges = [(0, leaf) for leaf in range(1, num_leaves + 1)]
    return Graph.from_edges(num_leaves + 1, edges, name="star")


def weighted(n: int, seed: int, density: float = 0.15) -> Graph:
    """Random integer-weighted graph (exercises weighted-degree walks)."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.integers(0, 5, size=(n, n)) * (rng.random((n, n)) < density), k=1)
    return Graph(sp.csr_matrix(upper + upper.T), name=f"weighted{n}")


def with_isolated(seed: int = 7) -> Graph:
    """An ER core plus five isolated nodes appended at the end."""
    core = erdos_renyi(40, 0.1, seed)
    n = core.num_nodes + 5
    adjacency = sp.lil_matrix((n, n))
    adjacency[:core.num_nodes, :core.num_nodes] = core.adjacency
    return Graph(adjacency.tocsr(), name="er+isolated")


def disconnected(seed: int = 7) -> Graph:
    """Two ER components of different sizes plus five isolated nodes."""
    a = erdos_renyi(30, 0.15, seed)
    b = erdos_renyi(20, 0.2, seed + 1)
    n = a.num_nodes + b.num_nodes + 5
    adjacency = sp.lil_matrix((n, n))
    adjacency[:30, :30] = a.adjacency
    adjacency[30:50, 30:50] = b.adjacency
    return Graph(adjacency.tocsr(), name="disconnected")
