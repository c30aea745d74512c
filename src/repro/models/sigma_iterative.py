"""Iterative SIGMA variant (paper §V.F, Table XI).

Instead of a single global aggregation, the SimRank operator is used as a
rewired propagation matrix inside an otherwise GCN-like stack:

``Z = σ(… σ(S · σ(S · X_S · W₁) · W₂) …)``  with
``X_S = δ·X·W_X + (1 − δ)·A·W_A``.

The paper reports that one to three such layers behave similarly, with the
one-shot model usually best — this class exists to reproduce that table.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import SIGMA_DEFAULT_SIMRANK, SimRankConfig
from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.models.base import NodeClassifier
from repro.nn.activations import ReLU
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.propagation.sparse_ops import SparsePropagation
from repro.simrank.topk import simrank_operator
from repro.utils.rng import RngLike, ensure_rng


class SIGMAIterative(NodeClassifier):
    """SIGMA with ``num_layers`` rounds of SimRank propagation.

    The operator precompute is configured by ``simrank=`` (a
    :class:`repro.config.SimRankConfig`, defaulting to the paper's
    ``ε = 0.1``, ``k = 32``), exactly as in
    :class:`repro.models.sigma.SIGMA`.
    """

    def __init__(self, graph: Graph, *, hidden: int = 64, num_layers: int = 2,
                 delta: float = 0.5, dropout: float = 0.5,
                 simrank: Optional[SimRankConfig] = None,
                 rng: RngLike = None) -> None:
        super().__init__(graph, hidden=hidden)
        if num_layers < 1:
            raise ModelError(f"num_layers must be >= 1, got {num_layers}")
        if not 0.0 <= delta <= 1.0:
            raise ModelError(f"delta must be in [0, 1], got {delta}")
        simrank = simrank if simrank is not None else SIGMA_DEFAULT_SIMRANK
        generator = ensure_rng(rng)
        self.delta = float(delta)
        self.num_layers = num_layers
        self.simrank_config = simrank
        with self.timing.measure("precompute"):
            operator = simrank_operator(graph, config=simrank)
        self.simrank = operator
        self.propagation = SparsePropagation(operator.matrix, timing=self.timing)
        self._adjacency = graph.adjacency.tocsr()
        self.linear_features = Linear(self.num_features, hidden, rng=generator,
                                      name="sigma_iter.wx")
        self.linear_adjacency = Linear(self.num_nodes, hidden, rng=generator,
                                       name="sigma_iter.wa")
        self.layer_linears: List[Linear] = [
            Linear(hidden, hidden, rng=generator, name=f"sigma_iter.{layer}")
            for layer in range(num_layers)
        ]
        self.layer_acts: List[ReLU] = [ReLU() for _ in range(num_layers)]
        self.layer_dropouts: List[Dropout] = [Dropout(dropout, rng=generator)
                                              for _ in range(num_layers)]
        self.head = Linear(hidden, self.num_classes, rng=generator, name="sigma_iter.head")

    def forward(self) -> np.ndarray:
        features_part = self.linear_features(self.graph.features)
        adjacency_part = self.linear_adjacency(self._adjacency)
        hidden = self.delta * features_part + (1.0 - self.delta) * adjacency_part
        for layer in range(self.num_layers):
            hidden = self.propagation(hidden)
            hidden = self.layer_linears[layer](hidden)
            hidden = self.layer_dropouts[layer](self.layer_acts[layer](hidden))
        return self.head(hidden)

    def backward(self, grad_logits: np.ndarray) -> None:
        grad = self.head.backward(grad_logits)
        for layer in reversed(range(self.num_layers)):
            grad = self.layer_dropouts[layer].backward(grad)
            grad = self.layer_acts[layer].backward(grad)
            grad = self.layer_linears[layer].backward(grad)
            grad = self.propagation.backward(grad)
        self.linear_features.backward(self.delta * grad)
        self.linear_adjacency.backward((1.0 - self.delta) * grad)


__all__ = ["SIGMAIterative"]
