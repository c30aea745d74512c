"""Base class for full-batch transductive node classifiers.

Every model in :mod:`repro.models` — SIGMA and all baselines — follows the
same contract:

* the constructor receives the :class:`~repro.graphs.graph.Graph` (features,
  labels and topology are fixed for transductive node classification) plus
  model hyper-parameters;
* any one-off operator construction (SimRank, PPR, normalised adjacencies)
  happens during construction and is charged to the ``"precompute"`` timing
  bucket;
* ``forward()`` returns ``(n, num_classes)`` logits for all nodes and
  ``backward(grad_logits)`` accumulates parameter gradients;
* time spent applying graph aggregation operators is charged to the
  ``"aggregation"`` bucket so experiments can reproduce the paper's
  Pre./AGG/Learn break-down (Table VII).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.nn.losses import softmax, softmax_cross_entropy
from repro.nn.module import Module
from repro.utils.timer import TimingBreakdown


class NodeClassifier(Module):
    """Shared plumbing for full-batch node classification models."""

    def __init__(self, graph: Graph, *, hidden: int = 64) -> None:
        super().__init__()
        if graph.features is None or graph.labels is None:
            raise ModelError("node classifiers require a graph with features and labels")
        if hidden <= 0:
            raise ModelError(f"hidden size must be positive, got {hidden}")
        self.graph = graph
        self.hidden = int(hidden)
        self.num_nodes = graph.num_nodes
        self.num_features = graph.num_features
        self.num_classes = graph.num_classes
        self.timing = TimingBreakdown()

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def forward(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def backward(self, grad_logits: np.ndarray) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Convenience helpers
    # ------------------------------------------------------------------ #
    def loss_and_grad(self, mask: Optional[np.ndarray] = None) -> tuple[float, np.ndarray]:
        """Cross-entropy loss of the current forward pass on ``mask`` nodes."""
        logits = self.forward()
        return softmax_cross_entropy(logits, self.graph.labels, mask)

    def predict(self) -> np.ndarray:
        """Predicted class per node (evaluation mode, no dropout)."""
        was_training = self.training
        self.eval()
        try:
            logits = self.forward()
        finally:
            self.train(was_training)
        return np.argmax(logits, axis=1)

    def predict_proba(self) -> np.ndarray:
        """Predicted class probabilities per node (evaluation mode)."""
        was_training = self.training
        self.eval()
        try:
            logits = self.forward()
        finally:
            self.train(was_training)
        return softmax(logits, axis=1)


__all__ = ["NodeClassifier"]
