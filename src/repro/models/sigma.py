"""SIGMA: SimRank-based global message aggregation (the paper's contribution).

Pipeline (paper §III.B, Fig. 3):

1. **Precompute** the approximate SimRank matrix ``S`` with LocalPush
   (Algorithm 1) or an exact/series computation on small graphs, pruned to
   the top-k scores per node.  This happens once, before training, and is
   charged to the ``"precompute"`` timing bucket.
2. **Embed** adjacency rows and features with two MLPs and join them with a
   third (Eq. (4)):
   ``H = MLP_H(δ·MLP_X(X) + (1 − δ)·MLP_A(A))``.
3. **Aggregate once, globally** (Eq. (5)): ``Ẑ = S·H`` — cost ``O(k·n·f)``
   thanks to the top-k pruned operator.
4. **Update** (Eq. (6)): ``Z = (1 − α)·Ẑ + α·H`` with a learnable balance
   ``α`` (initialised at 0.5, reported per dataset in Table X), followed by
   a linear classification head.

Ablation switches reproduce the rows of Table VIII:

* ``use_simrank=False``      → "SIGMA w/o S" (α pinned to 1).
* ``operator_mode="simrank_adj"`` → "SIGMA w/ S·A" (localised operator).
* ``use_features=False``     → "SIGMA w/o X" (δ = 0).
* ``use_adjacency=False``    → "SIGMA w/o A" (δ = 1).
"""

from __future__ import annotations

from typing import Literal, Optional

import numpy as np
import scipy.sparse as sp

from repro.config import SIGMA_DEFAULT_SIMRANK, SimRankConfig
from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.graphs.sparse import sparse_row_normalize
from repro.models.base import NodeClassifier
from repro.nn.linear import Linear
from repro.nn.mlp import MLP
from repro.nn.module import Parameter
from repro.propagation.sparse_ops import SparsePropagation
from repro.simrank.topk import simrank_operator
from repro.utils.rng import RngLike, ensure_rng

OperatorMode = Literal["simrank", "simrank_adj"]


def _sigmoid(value: float) -> float:
    # Two-branch form so np.exp only ever sees a non-positive argument:
    # the naive 1/(1+exp(-x)) overflows once the learnable α logit drifts
    # far negative during training.
    if value >= 0.0:
        return float(1.0 / (1.0 + np.exp(-value)))
    z = np.exp(value)
    return float(z / (1.0 + z))


class SIGMA(NodeClassifier):
    """SIGMA node classifier.

    Parameters
    ----------
    graph:
        Labelled, attributed graph.
    hidden:
        Width of the hidden embeddings.
    delta:
        Feature factor δ balancing ``MLP_X(X)`` against ``MLP_A(A)``.
    alpha:
        Initial value of the local/global balance α; learnable unless
        ``learn_alpha=False``.
    simrank:
        A :class:`repro.config.SimRankConfig` describing the operator
        precompute: method, decay, ε, top-k, dtype and the persistent
        operator cache.  Defaults to
        :data:`repro.config.SIGMA_DEFAULT_SIMRANK` (the paper's
        ``ε = 0.1``, ``k = 32``).
    final_layers:
        Number of layers in ``MLP_H`` (1 for small datasets, 2 for large, as
        in the paper's parameter settings).
    """

    def __init__(self, graph: Graph, *, hidden: int = 64, delta: float = 0.5,
                 alpha: float = 0.5, learn_alpha: bool = True,
                 dropout: float = 0.5, final_layers: int = 1,
                 simrank: Optional[SimRankConfig] = None,
                 use_simrank: bool = True, use_features: bool = True,
                 use_adjacency: bool = True,
                 operator_mode: OperatorMode = "simrank",
                 rng: RngLike = None) -> None:
        super().__init__(graph, hidden=hidden)
        simrank = simrank if simrank is not None else SIGMA_DEFAULT_SIMRANK
        if not 0.0 <= delta <= 1.0:
            raise ModelError(f"delta must be in [0, 1], got {delta}")
        if not 0.0 <= alpha <= 1.0:
            raise ModelError(f"alpha must be in [0, 1], got {alpha}")
        if operator_mode not in ("simrank", "simrank_adj"):
            raise ModelError(f"unknown operator_mode {operator_mode!r}")
        if not use_features and not use_adjacency:
            raise ModelError("at least one of use_features/use_adjacency must be true")
        generator = ensure_rng(rng)

        self.delta = float(delta)
        self.use_simrank = use_simrank
        self.use_features = use_features
        self.use_adjacency = use_adjacency
        self.operator_mode = operator_mode
        self.learn_alpha = learn_alpha and use_simrank
        #: The resolved operator configuration (``self.simrank`` below is
        #: the computed operator itself, kept for backward compatibility).
        self.simrank_config = simrank

        # ---------------- precomputation (Algorithm 1 + top-k) ---------- #
        self.simrank = None
        self.propagation: Optional[SparsePropagation] = None
        if use_simrank:
            with self.timing.measure("precompute"):
                operator = simrank_operator(graph, config=simrank)
                matrix = operator.matrix
                if operator_mode == "simrank_adj":
                    # Localised ablation: restrict aggregation weights to the
                    # immediate neighbourhood (paper's "SIGMA w/ S·A").
                    matrix = sparse_row_normalize(matrix @ graph.adjacency.tocsr())
            self.simrank = operator
            self.propagation = SparsePropagation(matrix, timing=self.timing)

        # ---------------- feature transformation (Eq. (4)) -------------- #
        self._adjacency = graph.adjacency.tocsr()
        self.mlp_features = None
        self.mlp_adjacency = None
        if use_features:
            self.mlp_features = MLP(self.num_features, hidden, hidden, num_layers=1,
                                    rng=generator, name="sigma.mlp_x")
        if use_adjacency:
            self.mlp_adjacency = MLP(self.num_nodes, hidden, hidden, num_layers=1,
                                     rng=generator, name="sigma.mlp_a")
        self.mlp_hidden = MLP(hidden, hidden, hidden, num_layers=final_layers,
                              dropout=dropout, rng=generator, name="sigma.mlp_h")
        self.head = Linear(hidden, self.num_classes, rng=generator, name="sigma.head")

        # ---------------- local/global balance α ------------------------ #
        initial_logit = float(np.log(alpha / (1.0 - alpha))) if 0.0 < alpha < 1.0 else (
            10.0 if alpha >= 1.0 else -10.0)
        self._alpha_param = Parameter(np.array([initial_logit]), name="sigma.alpha")
        self._fixed_alpha = float(alpha)
        self._cache: Optional[dict] = None

    # ------------------------------------------------------------------ #
    @property
    def alpha(self) -> float:
        """Current value of the balance α (Eq. (6)); learnable by default."""
        if not self.use_simrank:
            return 1.0
        if self.learn_alpha:
            return _sigmoid(float(self._alpha_param.value[0]))
        return self._fixed_alpha

    @property
    def effective_delta(self) -> float:
        """δ actually used after the use_features / use_adjacency switches."""
        if not self.use_features:
            return 0.0
        if not self.use_adjacency:
            return 1.0
        return self.delta

    def parameters(self):
        params = super().parameters()
        if not self.learn_alpha:
            params = [p for p in params if p is not self._alpha_param]
        return params

    # ------------------------------------------------------------------ #
    def _combined_embedding(self) -> np.ndarray:
        delta = self.effective_delta
        hidden_x = self.mlp_features(self.graph.features) if self.use_features else None
        hidden_a = self.mlp_adjacency(self._adjacency) if self.use_adjacency else None
        if hidden_x is None:
            return hidden_a
        if hidden_a is None:
            return hidden_x
        return delta * hidden_x + (1.0 - delta) * hidden_a

    def forward(self) -> np.ndarray:
        combined = self._combined_embedding()
        hidden = self.mlp_hidden(combined)
        alpha = self.alpha
        if self.use_simrank:
            aggregated = self.propagation(hidden)   # Eq. (5): Ẑ = S·H
            updated = (1.0 - alpha) * aggregated + alpha * hidden  # Eq. (6)
        else:
            aggregated = None
            updated = hidden
        self._cache = {"hidden": hidden, "aggregated": aggregated, "alpha": alpha}
        return self.head(updated)

    def backward(self, grad_logits: np.ndarray) -> None:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cache = self._cache
        grad_updated = self.head.backward(grad_logits)
        alpha = cache["alpha"]
        if self.use_simrank:
            aggregated, hidden = cache["aggregated"], cache["hidden"]
            if self.learn_alpha:
                # d loss / d α, then through the sigmoid parameterisation.
                grad_alpha = float(np.sum(grad_updated * (hidden - aggregated)))
                self._alpha_param.grad[0] += grad_alpha * alpha * (1.0 - alpha)
            grad_hidden = alpha * grad_updated
            grad_hidden = grad_hidden + self.propagation.backward((1.0 - alpha) * grad_updated)
        else:
            grad_hidden = grad_updated
        grad_combined = self.mlp_hidden.backward(grad_hidden)
        delta = self.effective_delta
        if self.use_features and self.use_adjacency:
            self.mlp_features.backward(delta * grad_combined)
            self.mlp_adjacency.backward((1.0 - delta) * grad_combined)
        elif self.use_features:
            self.mlp_features.backward(grad_combined)
        else:
            self.mlp_adjacency.backward(grad_combined)

    # ------------------------------------------------------------------ #
    def embeddings(self) -> np.ndarray:
        """The pre-head representation ``Z`` of Eq. (6) (Fig. 8 visualisation)."""
        was_training = self.training
        self.eval()
        try:
            combined = self._combined_embedding()
            hidden = self.mlp_hidden(combined)
            if not self.use_simrank:
                return hidden
            aggregated = self.propagation(hidden)
            alpha = self.alpha
            return (1.0 - alpha) * aggregated + alpha * hidden
        finally:
            self.train(was_training)


__all__ = ["SIGMA"]
