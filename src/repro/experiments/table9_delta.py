"""Experiment E10 — Table IX: sensitivity to the feature factor δ.

Sweeps δ over {0.1, 0.3, 0.5, 0.7, 0.9} on Penn94, arXiv-year and pokec and
reports the resulting SIGMA accuracy, showing that different datasets prefer
different balances between feature and adjacency embeddings.  Declaratively:
a (δ × dataset) grid of plain SIGMA ``RunSpec`` cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import ExperimentSpec, RunSpec, grid_product
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

DEFAULT_DATASETS = ("penn94", "arxiv-year", "pokec")
DEFAULT_DELTAS = (0.1, 0.3, 0.5, 0.7, 0.9)

TITLE = "Table IX — sensitivity to the feature factor δ"


@dataclass
class Table9Result:
    """Accuracy per (δ, dataset)."""

    datasets: List[str]
    deltas: List[float]
    accuracies: Dict[float, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for delta in self.deltas:
            row: Dict[str, object] = {"delta": delta}
            for dataset in self.datasets:
                row[dataset] = round(100 * self.accuracies[delta][dataset], 2)
            rows.append(row)
        return rows

    def best_delta(self, dataset: str) -> float:
        return max(self.deltas, key=lambda delta: self.accuracies[delta][dataset])


def spec(datasets: Sequence[str] = DEFAULT_DATASETS,
         deltas: Sequence[float] = DEFAULT_DELTAS, *,
         num_repeats: int = 2, scale_factor: float = 1.0,
         config: Optional[TrainConfig] = None, seed: int = 0,
         final_layers: int = 2) -> ExperimentSpec:
    """The δ sweep for SIGMA on the requested datasets."""
    datasets, deltas = list(datasets), list(deltas)
    base = RunSpec(model="sigma", dataset=datasets[0],
                   overrides={"final_layers": final_layers},
                   train=config or DEFAULT_EXPERIMENT_CONFIG, seed=seed,
                   repeats=num_repeats, scale_factor=scale_factor)
    return ExperimentSpec(
        name="table9", title=TITLE, base=base,
        grid=grid_product({"overrides.delta": deltas, "dataset": datasets}),
        reduction={"datasets": datasets, "deltas": deltas})


@experiment("table9", title=TITLE, spec=spec)
def _reduce(spec: ExperimentSpec, cells) -> Table9Result:
    result = Table9Result(datasets=list(spec.reduction["datasets"]),
                          deltas=list(spec.reduction["deltas"]))
    for outcome in cells:
        delta = outcome.spec.overrides["delta"]
        result.accuracies.setdefault(delta, {})
        result.accuracies[delta][outcome.spec.dataset] = (
            outcome.record["mean_accuracy"])
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table9", print_result=False)
    print("Table IX — SIGMA accuracy (%) across feature-factor δ values")
    print(format_table(result.rows()))
    for dataset in result.datasets:
        print(f"best δ on {dataset}: {result.best_delta(dataset)}")


if __name__ == "__main__":  # pragma: no cover
    main()
