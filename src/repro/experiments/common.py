"""Shared utilities for the experiment modules."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.models.registry import create_model
from repro.training.config import TrainConfig
from repro.training.trainer import Trainer

# Training configuration mirroring the paper's protocol: derived from the
# library-wide TrainConfig defaults so the shared numbers (learning rate,
# epoch budget, optimizer, min_epochs) live in exactly one place.  The two
# overridden values are *intentional* paper-protocol divergences from the
# library defaults — weight decay 1e-3 (vs 5e-4) and patience 60 (vs 50)
# per the Table VI experiment sweep — pinned by the divergence test in
# tests/test_experiments.py.
DEFAULT_EXPERIMENT_CONFIG = TrainConfig().with_overrides(
    weight_decay=1e-3,
    patience=60,
    track_test_history=False,
)

# Reduced configuration behind ``repro-experiment --quick``, the tuning
# search and Fig. 5's default: the paper protocol with a shorter epoch
# budget.
QUICK_EXPERIMENT_CONFIG = DEFAULT_EXPERIMENT_CONFIG.with_overrides(
    max_epochs=60,
    patience=25,
)

# Small validation-based search grids, standing in for the paper's Table VI
# hyper-parameter search.  Only the parameters that matter for the comparison
# (the feature factor δ and SIGMA's MLP_H depth) are swept to keep runtimes
# laptop-friendly.
TUNING_GRIDS: Dict[str, List[Dict[str, object]]] = {
    "sigma": [
        {"delta": delta, "final_layers": layers}
        for delta in (0.3, 0.5, 0.7)
        for layers in (1, 2)
    ],
    "glognn": [{"delta": delta} for delta in (0.3, 0.5, 0.7)],
    "linkx": [{}],
}


def tune_hyperparameters(model_name: str, dataset: Dataset, *,
                         grid: Optional[Sequence[Mapping[str, object]]] = None,
                         config: Optional[TrainConfig] = None,
                         base_overrides: Optional[Mapping[str, object]] = None,
                         seed: int = 0) -> Dict[str, object]:
    """Pick the grid entry with the best validation accuracy on split 0.

    A lightweight stand-in for the paper's hyper-parameter search (Table VI):
    each candidate is trained once on the first split and judged by
    validation accuracy.  Returns the winning override dict (possibly empty).
    """
    candidates = list(grid if grid is not None else TUNING_GRIDS.get(model_name, [{}]))
    if not candidates:
        return dict(base_overrides or {})
    if len(candidates) == 1:
        merged = dict(base_overrides or {})
        merged.update(candidates[0])
        return merged
    config = config or QUICK_EXPERIMENT_CONFIG
    best_score = -1.0
    best: Mapping[str, object] = candidates[0]
    for candidate in candidates:
        overrides = dict(base_overrides or {})
        overrides.update(candidate)
        model = create_model(model_name, dataset.graph, rng=seed, **overrides)
        result = Trainer(model, config).fit(dataset.split(0))
        if result.best_val_accuracy > best_score:
            best_score = result.best_val_accuracy
            best = candidate
    merged = dict(base_overrides or {})
    merged.update(best)
    return merged


def format_table(rows: Iterable[Mapping[str, object]],
                 columns: Optional[Sequence[str]] = None,
                 *, float_format: str = "{:.2f}") -> str:
    """Render rows of dictionaries as a fixed-width ASCII table."""
    rows = [dict(row) for row in rows]
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def render(value: object) -> str:
        if isinstance(value, float):
            return float_format.format(value)
        return str(value)

    rendered = [[render(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(line[i]) for line in rendered))
              for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(width) for col, width in zip(columns, widths))
    separator = "  ".join("-" * width for width in widths)
    body = "\n".join("  ".join(cell.ljust(width) for cell, width in zip(line, widths))
                     for line in rendered)
    return "\n".join([header, separator, body])


def mean_and_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and standard deviation, as reported in the paper's tables."""
    array = np.asarray(list(values), dtype=np.float64)
    if array.size == 0:
        return 0.0, 0.0
    return float(array.mean()), float(array.std())


__all__ = [
    "DEFAULT_EXPERIMENT_CONFIG",
    "QUICK_EXPERIMENT_CONFIG",
    "TUNING_GRIDS",
    "tune_hyperparameters",
    "format_table",
    "mean_and_std",
]
