"""Experiment E5 — Fig. 4: convergence (test accuracy vs training time).

For each large dataset, trains the leading baselines and SIGMA while
recording cumulative wall-clock time and test accuracy per epoch, producing
the series plotted in the paper's Fig. 4.  The quantitative summary reports
the time each model needs to reach 95% of its own final accuracy.

Declaratively: a (dataset × model) grid whose custom cell runner trains on
split 0 with ``track_test_history`` and records the per-epoch trajectory
(:func:`repro.api.run` only surfaces the aggregated summary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.config import ExperimentCell, ExperimentSpec, RunSpec, grid_product
from repro.datasets.registry import load_dataset
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

DEFAULT_DATASETS = ("genius", "penn94", "arxiv-year", "pokec")
DEFAULT_MODELS = ("mixhop", "gcnii", "linkx", "glognn", "sigma")

TITLE = "Fig. 4 — convergence efficiency (accuracy vs training time)"


@dataclass
class ConvergenceCurve:
    """One model's (time, test-accuracy) trajectory on one dataset."""

    model: str
    dataset: str
    times: np.ndarray
    accuracies: np.ndarray

    @property
    def final_accuracy(self) -> float:
        return float(self.accuracies[-1]) if self.accuracies.size else 0.0

    def time_to_fraction(self, fraction: float = 0.95) -> float:
        """Seconds needed to reach ``fraction`` of the final accuracy."""
        if self.accuracies.size == 0:
            return float("nan")
        target = fraction * self.accuracies.max()
        reached = np.flatnonzero(self.accuracies >= target)
        if reached.size == 0:
            return float(self.times[-1])
        return float(self.times[reached[0]])


@dataclass
class Fig4Result:
    curves: List[ConvergenceCurve] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return [{
            "dataset": curve.dataset,
            "model": curve.model,
            "final_accuracy": round(100 * curve.final_accuracy, 2),
            "time_to_95pct": round(curve.time_to_fraction(0.95), 3),
            "total_time": round(float(curve.times[-1]) if curve.times.size else 0.0, 3),
        } for curve in self.curves]

    def curve(self, model: str, dataset: str) -> ConvergenceCurve:
        for entry in self.curves:
            if entry.model == model and entry.dataset == dataset:
                return entry
        raise KeyError(f"no curve for {model} on {dataset}")


def convergence_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Train one (model, dataset) pair recording its per-epoch history."""
    from repro.api import build_model
    from repro.training.trainer import Trainer

    spec = cell.spec
    dataset = load_dataset(spec.dataset, seed=spec.seed,
                           scale_factor=spec.scale_factor)
    model = build_model(spec.model, dataset.graph, rng=spec.seed,
                        **spec.overrides)
    # The curve IS the per-epoch history: force tracking even when a train
    # override (e.g. the --quick transform) replaced the builder's config.
    train = spec.train.with_overrides(track_test_history=True)
    trained = Trainer(model, train).fit(dataset.split(0))
    return {
        "model": spec.model,
        "dataset": spec.dataset,
        "times": [float(record.elapsed_seconds) for record in trained.history],
        "accuracies": [float(record.test_accuracy) for record in trained.history],
    }


def spec(datasets: Sequence[str] = DEFAULT_DATASETS,
         models: Sequence[str] = DEFAULT_MODELS, *,
         scale_factor: float = 1.0, config: Optional[TrainConfig] = None,
         seed: int = 0) -> ExperimentSpec:
    """Per-epoch accuracy/time curves for each (model, dataset)."""
    datasets, models = list(datasets), list(models)
    train = (config or DEFAULT_EXPERIMENT_CONFIG).with_overrides(
        track_test_history=True)
    base = RunSpec(model=models[0], dataset=datasets[0], train=train,
                   seed=seed, scale_factor=scale_factor)
    return ExperimentSpec(
        name="fig4", title=TITLE, base=base,
        grid=grid_product({"dataset": datasets, "model": models}))


@experiment("fig4", title=TITLE, spec=spec, cell=convergence_cell)
def _reduce(spec: ExperimentSpec, cells) -> Fig4Result:
    result = Fig4Result()
    for outcome in cells:
        result.curves.append(ConvergenceCurve(
            model=outcome.spec.model,
            dataset=outcome.spec.dataset,
            times=np.asarray(outcome.record["times"], dtype=np.float64),
            accuracies=np.asarray(outcome.record["accuracies"], dtype=np.float64),
        ))
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("fig4", print_result=False)
    print("Fig. 4 — convergence efficiency (time to 95% of final accuracy)")
    print(format_table(result.rows()))


if __name__ == "__main__":  # pragma: no cover
    main()
