"""Full-batch training loop with early stopping and timing breakdown.

The trainer mirrors the paper's protocol: train with Adam on the training
nodes, select the best epoch by validation accuracy, report test accuracy at
that epoch, and account time in the Pre./AGG/Learn buckets of Table VII
(precomputation time is charged by the model at construction; the trainer
adds the per-epoch training time, which includes the aggregation bucket).

Each epoch is one training step and one evaluation forward whose
predictions score every accuracy of the epoch.  An evaluation forward draws
no randomness (dropout draws only in training mode), so one forward gives
the answers one forward per accuracy would.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import TrainingError
from repro.datasets.dataset import Split
from repro.models.base import NodeClassifier
from repro.nn.optim import SGD, Adam, Optimizer
from repro.training.config import TrainConfig
from repro.training.early_stopping import EarlyStopping
from repro.utils.timer import TimingBreakdown


@dataclass
class EpochRecord:
    """Metrics captured after one training epoch."""

    epoch: int
    loss: float
    train_accuracy: float
    val_accuracy: float
    test_accuracy: float
    elapsed_seconds: float


@dataclass
class TrainResult:
    """Outcome of one training run."""

    best_epoch: int
    best_val_accuracy: float
    test_accuracy: float
    train_accuracy: float
    history: List[EpochRecord] = field(default_factory=list)
    timing: TimingBreakdown = field(default_factory=TimingBreakdown)
    num_epochs: int = 0

    @property
    def learning_time(self) -> float:
        """Precomputation plus training time (the paper's 'Learn' column)."""
        return self.timing.learning

    def convergence_curve(self) -> List[tuple[float, float]]:
        """``(cumulative seconds, test accuracy)`` pairs (Fig. 4 series)."""
        return [(record.elapsed_seconds, record.test_accuracy) for record in self.history]


def _accuracy(predictions: np.ndarray, labels: np.ndarray,
              indices: np.ndarray) -> float:
    """Share of ``indices`` whose prediction is its label (NaN when empty)."""
    return float(np.mean(predictions[indices] == labels[indices]))


class Trainer:
    """Trains a :class:`NodeClassifier` on one dataset split."""

    def __init__(self, model: NodeClassifier, config: Optional[TrainConfig] = None) -> None:
        self.model = model
        self.config = config or TrainConfig()
        self._optimizer = self._build_optimizer()

    def _build_optimizer(self) -> Optimizer:
        parameters = self.model.parameters()
        if not parameters:
            raise TrainingError("model has no trainable parameters")
        if self.config.optimizer == "adam":
            return Adam(parameters, lr=self.config.learning_rate,
                        weight_decay=self.config.weight_decay)
        return SGD(parameters, lr=self.config.learning_rate,
                   momentum=self.config.momentum,
                   weight_decay=self.config.weight_decay)

    # ------------------------------------------------------------------ #
    def fit(self, split: Split) -> TrainResult:
        """Train on ``split.train``, select on ``split.val``, report ``split.test``.

        Per epoch: one training step, then one evaluation forward whose
        predictions score the train, val and (under
        ``track_test_history``) test accuracy, both in the ``training``
        timing bucket.  One more forward, after the best epoch's
        parameters are restored, scores the final accuracies.  An empty
        subset scores NaN.
        """
        model = self.model
        config = self.config
        labels = model.graph.labels
        stopper = EarlyStopping(config.patience)
        best_state: Optional[List[np.ndarray]] = None
        history: List[EpochRecord] = []
        start = time.perf_counter()

        for epoch in range(config.max_epochs):
            model.train()
            with model.timing.measure("training"):
                self._optimizer.zero_grad()
                loss, grad = model.loss_and_grad(split.train)
                model.backward(grad)
                self._optimizer.step()

                predictions = model.predict()
                train_acc = _accuracy(predictions, labels, split.train)
                val_acc = _accuracy(predictions, labels, split.val)
                test_acc = (_accuracy(predictions, labels, split.test)
                            if config.track_test_history else float("nan"))
            elapsed = time.perf_counter() - start
            history.append(EpochRecord(epoch=epoch, loss=loss, train_accuracy=train_acc,
                                       val_accuracy=val_acc, test_accuracy=test_acc,
                                       elapsed_seconds=elapsed))

            improved = stopper.update(val_acc, epoch)
            if improved:
                best_state = [param.value.copy() for param in model.parameters()]
            if epoch + 1 >= config.min_epochs and stopper.should_stop:
                break

        if best_state is not None:
            for param, value in zip(model.parameters(), best_state):
                param.value[...] = value

        model.eval()
        predictions = model.predict()
        final_test = _accuracy(predictions, labels, split.test)
        final_train = _accuracy(predictions, labels, split.train)
        return TrainResult(
            best_epoch=stopper.best_epoch,
            best_val_accuracy=stopper.best_score or 0.0,
            test_accuracy=final_test,
            train_accuracy=final_train,
            history=history,
            timing=model.timing,
            num_epochs=len(history),
        )


__all__ = ["Trainer", "TrainResult", "EpochRecord"]
