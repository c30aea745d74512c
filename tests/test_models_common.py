"""Behavioural tests shared by every model in the registry."""

import numpy as np
import pytest

from repro.config import SimRankConfig
from repro.models.registry import create_model, default_hyperparameters, list_models
from repro.nn.losses import softmax_cross_entropy
from repro.training.config import TrainConfig
from repro.training.trainer import Trainer

ALL_MODELS = list_models()

# Small hyper-parameters so every model builds and trains quickly in tests.
FAST_OVERRIDES = {
    "mlp": {"hidden": 16},
    "gcn": {"hidden": 16},
    "sgc": {},
    "gat": {"hidden": 4, "num_heads": 2},
    "appnp": {"hidden": 16, "num_steps": 4},
    "mixhop": {"hidden": 8},
    "gcnii": {"hidden": 16, "num_layers": 3},
    "gprgnn": {"hidden": 16, "num_steps": 4},
    "h2gcn": {"hidden": 16},
    "acmgcn": {"hidden": 16},
    "linkx": {"hidden": 16},
    "glognn": {"hidden": 16, "k_hops": 2, "norm_layers": 1},
    "pprgo": {"hidden": 16, "top_k": 8},
    "sigma": {"hidden": 16, "simrank": SimRankConfig(top_k=8)},
    "sigma_iterative": {"hidden": 16, "simrank": SimRankConfig(top_k=8)},
}


def _build(name, graph, seed=0):
    return create_model(name, graph, rng=seed, **FAST_OVERRIDES[name])


@pytest.mark.parametrize("model_name", ALL_MODELS)
class TestModelContract:
    def test_forward_shape(self, model_name, small_heterophilous_graph):
        model = _build(model_name, small_heterophilous_graph)
        logits = model.forward()
        assert logits.shape == (small_heterophilous_graph.num_nodes,
                                small_heterophilous_graph.num_classes)
        assert np.isfinite(logits).all()

    def test_backward_populates_gradients(self, model_name, small_heterophilous_graph):
        graph = small_heterophilous_graph
        model = _build(model_name, graph)
        model.zero_grad()
        logits = model.forward()
        _, grad = softmax_cross_entropy(logits, graph.labels)
        model.backward(grad)
        grads = [np.abs(param.grad).sum() for param in model.parameters()]
        assert sum(grads) > 0.0

    def test_training_reduces_loss(self, model_name, small_heterophilous_graph):
        from repro.nn.optim import Adam

        graph = small_heterophilous_graph
        model = _build(model_name, graph)
        optimizer = Adam(model.parameters(), lr=0.01)
        initial_loss, _ = model.loss_and_grad()
        for _ in range(25):
            optimizer.zero_grad()
            _, grad = model.loss_and_grad()
            model.backward(grad)
            optimizer.step()
        final_loss, _ = model.loss_and_grad()
        assert final_loss < initial_loss

    def test_predictions_in_label_range(self, model_name, small_heterophilous_graph):
        model = _build(model_name, small_heterophilous_graph)
        predictions = model.predict()
        assert predictions.shape == (small_heterophilous_graph.num_nodes,)
        assert predictions.min() >= 0
        assert predictions.max() < small_heterophilous_graph.num_classes

    def test_predict_proba_rows_sum_to_one(self, model_name, small_heterophilous_graph):
        model = _build(model_name, small_heterophilous_graph)
        proba = model.predict_proba()
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_accuracy_bounds(self, model_name, small_dataset):
        """Every accuracy the trainer scores for the model is in [0, 1]."""
        model = _build(model_name, small_dataset.graph)
        config = TrainConfig(max_epochs=2, min_epochs=1)
        result = Trainer(model, config).fit(small_dataset.split(0))
        scores = [result.best_val_accuracy, result.test_accuracy,
                  result.train_accuracy]
        for record in result.history:
            scores += [record.train_accuracy, record.val_accuracy,
                       record.test_accuracy]
        assert all(0.0 <= score <= 1.0 for score in scores)

    def test_deterministic_given_seed(self, model_name, small_heterophilous_graph):
        graph = small_heterophilous_graph
        first = _build(model_name, graph, seed=7)
        second = _build(model_name, graph, seed=7)
        first.eval()
        second.eval()
        np.testing.assert_allclose(first.forward(), second.forward())

    def test_default_hyperparameters_exist(self, model_name, small_heterophilous_graph):
        defaults = default_hyperparameters(model_name)
        assert isinstance(defaults, dict)
