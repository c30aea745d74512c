"""Training configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, Type

from repro.config import FrozenConfig, _as_float, _as_int
from repro.errors import ReproError, TrainingError


@dataclass(frozen=True)
class TrainConfig(FrozenConfig):
    """Hyper-parameters of the full-batch training loop.

    Mirrors the paper's search space (Table VI): learning rate, weight decay,
    dropout (a model parameter), early-stopping patience and epoch budget.
    The rates are coerced to ``float`` and the epoch counts to ``int``.
    """

    ERROR: ClassVar[Type[ReproError]] = TrainingError

    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    max_epochs: int = 300
    patience: int = 50
    optimizer: str = "adam"
    momentum: float = 0.9
    min_epochs: int = 10
    track_test_history: bool = True
    model_overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        for name in ("learning_rate", "weight_decay", "momentum"):
            coerce(self, name,
                   _as_float(name, getattr(self, name), TrainingError))
        for name in ("max_epochs", "patience", "min_epochs"):
            coerce(self, name, _as_int(name, getattr(self, name), TrainingError))
        if self.learning_rate <= 0:
            raise TrainingError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.weight_decay < 0:
            raise TrainingError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if self.max_epochs < 1:
            raise TrainingError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise TrainingError(f"patience must be >= 1, got {self.patience}")
        if self.optimizer not in {"adam", "sgd"}:
            raise TrainingError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if self.min_epochs < 0 or self.min_epochs > self.max_epochs:
            raise TrainingError("min_epochs must be in [0, max_epochs]")


# Reasonable defaults for quick experiments / tests on the synthetic graphs.
FAST_CONFIG = TrainConfig(max_epochs=60, patience=20, min_epochs=5)

__all__ = ["TrainConfig", "FAST_CONFIG"]
