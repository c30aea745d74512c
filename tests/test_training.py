"""Tests for the training harness."""

import numpy as np
import pytest

from repro.config import RunSpec, SimRankConfig
from repro.errors import TrainingError
from repro.models.registry import create_model
from repro.nn.optim import Adam
from repro.propagation.sparse_ops import SparsePropagation
from repro.training.config import FAST_CONFIG, TrainConfig
from repro.training.early_stopping import EarlyStopping
from repro.training.evaluation import evaluate_model, repeated_evaluation
from repro.training.metrics import accuracy_score, confusion_matrix, macro_f1_score
from repro.training.trainer import Trainer


def _score(model, indices):
    """Accuracy of one fresh evaluation forward on ``indices``."""
    predictions = model.predict()
    labels = model.graph.labels
    return float(np.mean(predictions[indices] == labels[indices]))


def _fit_one_forward_per_accuracy(model, config, split):
    """The training loop with one ``predict()`` per accuracy.

    A reference copy of the loop that scored every accuracy with its own
    evaluation forward (two or three per epoch, two more at the end);
    ``Trainer.fit`` scores them all from one forward and must match it.
    Adam only, like every config the comparison uses.
    """
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    stopper = EarlyStopping(config.patience)
    best_state = None
    history = []
    for epoch in range(config.max_epochs):
        model.train()
        optimizer.zero_grad()
        loss, grad = model.loss_and_grad(split.train)
        model.backward(grad)
        optimizer.step()
        train_acc = _score(model, split.train)
        val_acc = _score(model, split.val)
        test_acc = (_score(model, split.test) if config.track_test_history
                    else float("nan"))
        history.append((epoch, loss, train_acc, val_acc, test_acc))
        if stopper.update(val_acc, epoch):
            best_state = [param.value.copy() for param in model.parameters()]
        if epoch + 1 >= config.min_epochs and stopper.should_stop:
            break
    if best_state is not None:
        for param, value in zip(model.parameters(), best_state):
            param.value[...] = value
    model.eval()
    return {"history": history, "best_epoch": stopper.best_epoch,
            "best_val_accuracy": stopper.best_score or 0.0,
            "test_accuracy": _score(model, split.test),
            "train_accuracy": _score(model, split.train)}


class TestTrainConfig:
    def test_defaults_valid(self):
        config = TrainConfig()
        assert config.optimizer == "adam"

    def test_invalid_learning_rate(self):
        with pytest.raises(TrainingError):
            TrainConfig(learning_rate=0.0)

    def test_invalid_optimizer(self):
        with pytest.raises(TrainingError):
            TrainConfig(optimizer="rmsprop")

    def test_invalid_min_epochs(self):
        with pytest.raises(TrainingError):
            TrainConfig(min_epochs=500, max_epochs=100)

    @pytest.mark.parametrize("bad,message", [
        ({"max_epochs": 12.5, "min_epochs": 5},
         "max_epochs must be an integer, got 12.5"),
        ({"patience": True}, "patience must be an integer, got True"),
        ({"min_epochs": "5"}, "min_epochs must be an integer, got '5'"),
        ({"learning_rate": "fast"},
         "learning_rate must be a number, got 'fast'"),
        ({"weight_decay": None}, "weight_decay must be a number, got None"),
        ({"momentum": "high"}, "momentum must be a number, got 'high'"),
        ({"learning_rate": float("nan")},
         "learning_rate must be a finite number, got nan"),
        ({"learning_rate": float("inf")},
         "learning_rate must be a finite number, got inf"),
        ({"weight_decay": float("nan")},
         "weight_decay must be a finite number, got nan"),
        ({"weight_decay": float("inf")},
         "weight_decay must be a finite number, got inf"),
        ({"momentum": float("nan")},
         "momentum must be a finite number, got nan"),
        ({"momentum": float("-inf")},
         "momentum must be a finite number, got -inf"),
        ({"momentum": float("inf")},
         "momentum must be a finite number, got inf"),
    ])
    def test_invalid_types_raise_training_error(self, bad, message):
        """A count that is not integral or a rate that is not a number
        fails here, not later inside ``Trainer.fit``."""
        with pytest.raises(TrainingError) as excinfo:
            TrainConfig(**bad)
        assert str(excinfo.value) == message

    def test_counts_become_int_and_rates_float(self):
        config = TrainConfig(max_epochs=12.0, patience=np.int64(4),
                             min_epochs=5, learning_rate="0.01",
                             weight_decay=0, momentum=1)
        assert (config.max_epochs, config.patience) == (12, 4)
        assert (config.learning_rate, config.weight_decay,
                config.momentum) == (0.01, 0.0, 1.0)
        for name in ("max_epochs", "patience", "min_epochs"):
            assert type(getattr(config, name)) is int
        for name in ("learning_rate", "weight_decay", "momentum"):
            assert type(getattr(config, name)) is float

    def test_a_serialised_rate_string_is_read_as_a_number(self):
        spec = RunSpec.from_dict(
            {"model": "mlp", "train": {"learning_rate": "0.01"}})
        assert spec.train.learning_rate == 0.01

    def test_with_overrides(self):
        config = TrainConfig().with_overrides(max_epochs=10)
        assert config.max_epochs == 10
        assert TrainConfig().max_epochs != 10


class TestEarlyStopping:
    def test_improvement_resets_counter(self):
        stopper = EarlyStopping(patience=2)
        assert stopper.update(0.5, 0)
        assert not stopper.update(0.4, 1)
        assert stopper.update(0.6, 2)
        assert stopper.counter == 0

    def test_should_stop_after_patience(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0.5, 0)
        stopper.update(0.4, 1)
        stopper.update(0.3, 2)
        assert stopper.should_stop

    def test_tracks_best_epoch(self):
        stopper = EarlyStopping(patience=5)
        stopper.update(0.2, 0)
        stopper.update(0.9, 1)
        stopper.update(0.5, 2)
        assert stopper.best_epoch == 1
        assert stopper.best_score == pytest.approx(0.9)

    def test_invalid_patience(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([0, 1, 1], [0, 1, 0]) == pytest.approx(2 / 3)

    def test_accuracy_shape_mismatch(self):
        with pytest.raises(ValueError):
            accuracy_score([0, 1], [0])

    def test_confusion_matrix(self):
        matrix = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        np.testing.assert_array_equal(matrix, [[1, 1], [0, 2]])

    def test_macro_f1_perfect(self):
        assert macro_f1_score([0, 1, 2], [0, 1, 2]) == pytest.approx(1.0)

    def test_macro_f1_handles_missing_class(self):
        value = macro_f1_score([0, 0, 1], [0, 0, 0])
        assert 0.0 <= value < 1.0


class TestTrainer:
    def test_fit_returns_result(self, small_dataset):
        model = create_model("mlp", small_dataset.graph, rng=0, hidden=16)
        result = Trainer(model, FAST_CONFIG).fit(small_dataset.split(0))
        assert 0.0 <= result.test_accuracy <= 1.0
        assert result.num_epochs >= FAST_CONFIG.min_epochs
        assert result.best_epoch >= 0
        assert len(result.history) == result.num_epochs

    def test_training_improves_over_untrained(self, small_dataset):
        graph = small_dataset.graph
        split = small_dataset.split(0)
        untrained = create_model("mlp", graph, rng=0, hidden=16)
        predictions = untrained.predict()
        untrained_acc = float(np.mean(
            predictions[split.test] == graph.labels[split.test]))
        model = create_model("mlp", graph, rng=0, hidden=16)
        result = Trainer(model, FAST_CONFIG).fit(split)
        assert result.test_accuracy >= untrained_acc

    def test_early_stopping_limits_epochs(self, small_dataset):
        config = TrainConfig(max_epochs=200, patience=5, min_epochs=1,
                             track_test_history=False)
        model = create_model("mlp", small_dataset.graph, rng=0, hidden=16)
        result = Trainer(model, config).fit(small_dataset.split(0))
        assert result.num_epochs < 200

    def test_timing_breakdown_present(self, small_dataset):
        model = create_model("sigma", small_dataset.graph, rng=0, hidden=16,
                             simrank=SimRankConfig(top_k=8))
        result = Trainer(model, FAST_CONFIG).fit(small_dataset.split(0))
        assert result.timing.precompute > 0.0
        assert result.timing.training > 0.0
        assert result.learning_time == pytest.approx(
            result.timing.precompute + result.timing.training)

    def test_convergence_curve_monotone_time(self, small_dataset):
        model = create_model("mlp", small_dataset.graph, rng=0, hidden=16)
        config = FAST_CONFIG.with_overrides(track_test_history=True)
        result = Trainer(model, config).fit(small_dataset.split(0))
        curve = result.convergence_curve()
        times = [point[0] for point in curve]
        assert times == sorted(times)

    def test_sgd_optimizer_option(self, small_dataset):
        config = FAST_CONFIG.with_overrides(optimizer="sgd", learning_rate=0.05)
        model = create_model("mlp", small_dataset.graph, rng=0, hidden=16)
        result = Trainer(model, config).fit(small_dataset.split(0))
        assert 0.0 <= result.test_accuracy <= 1.0


class TestOneEvaluationForwardPerEpoch:
    """``Trainer.fit`` scores every accuracy of an epoch from one
    evaluation forward, and answers bit for bit as one forward per
    accuracy did: an evaluation forward draws no randomness."""

    CONFIG = TrainConfig(max_epochs=40, patience=5, min_epochs=5)

    MODELS = {
        "sigma": {"hidden": 16,
                  "simrank": SimRankConfig(method="localpush", top_k=8)},
        "mlp": {"hidden": 16, "dropout": 0.5},
    }

    @pytest.mark.parametrize("track_test_history", [True, False])
    @pytest.mark.parametrize("model_name", ["sigma", "mlp"])
    def test_fit_matches_one_forward_per_accuracy(
            self, small_dataset, model_name, track_test_history):
        config = self.CONFIG.with_overrides(
            track_test_history=track_test_history)
        split = small_dataset.split(0)
        kwargs = self.MODELS[model_name]
        model = create_model(model_name, small_dataset.graph, rng=0, **kwargs)
        reference = create_model(model_name, small_dataset.graph, rng=0,
                                 **kwargs)
        result = Trainer(model, config).fit(split)
        expected = _fit_one_forward_per_accuracy(reference, config, split)

        records = [(r.epoch, r.loss, r.train_accuracy, r.val_accuracy,
                    r.test_accuracy) for r in result.history]
        np.testing.assert_array_equal(np.array(records),
                                      np.array(expected["history"]))
        test_column = np.array(records)[:, 4]
        assert np.isnan(test_column).all() == (not track_test_history)
        for name in ("best_epoch", "best_val_accuracy", "test_accuracy",
                     "train_accuracy"):
            assert getattr(result, name) == expected[name], name
        for param, ref in zip(model.parameters(), reference.parameters()):
            np.testing.assert_array_equal(param.value, ref.value)
        # The best epoch is not the last, so the restore is exercised.
        assert result.best_epoch < result.num_epochs - 1

    @pytest.mark.parametrize("track_test_history", [True, False])
    def test_sigma_fit_runs_one_evaluation_forward_per_epoch(
            self, small_dataset, monkeypatch, track_test_history):
        """20 training forwards, 20 evaluation forwards and one final
        forward; one forward per accuracy ran 62, or 82 tracking test."""
        model = create_model("sigma", small_dataset.graph, rng=0,
                             **self.MODELS["sigma"])
        calls = []
        original = SparsePropagation.forward

        def counting(self, inputs):
            calls.append(self.training)
            return original(self, inputs)

        monkeypatch.setattr(SparsePropagation, "forward", counting)
        config = TrainConfig(max_epochs=20, min_epochs=20,
                             track_test_history=track_test_history)
        result = Trainer(model, config).fit(small_dataset.split(0))
        assert result.num_epochs == 20
        assert len(calls) == 41
        assert calls.count(True) == 20


class TestEvaluation:
    def test_evaluate_model(self, small_dataset):
        result = evaluate_model("mlp", small_dataset, config=FAST_CONFIG, hidden=16)
        assert 0.0 <= result.test_accuracy <= 1.0

    def test_repeated_evaluation_summary(self, small_dataset):
        summary = repeated_evaluation("mlp", small_dataset, num_repeats=2,
                                      config=FAST_CONFIG, hidden=16)
        assert len(summary.accuracies) == 2
        assert 0.0 <= summary.mean_accuracy <= 1.0
        assert summary.std_accuracy >= 0.0
        row = summary.as_row()
        assert row["model"] == "mlp"
        assert row["dataset"] == small_dataset.name

    def test_repeats_capped_by_available_splits(self, small_dataset):
        summary = repeated_evaluation("mlp", small_dataset, num_repeats=50,
                                      config=FAST_CONFIG, hidden=16)
        assert len(summary.accuracies) == small_dataset.num_splits
