"""Experiment E13 — Table XI: iterative SIGMA aggregation.

Compares GCN with 1–3 layers against the iterative SIGMA variant with 1–3
SimRank propagation layers, reproducing the paper's observation that
replacing the adjacency with the SimRank operator (plus the LINKX-style
input features) lifts accuracy dramatically on heterophilous graphs while
the number of iterations matters little.  Declaratively: a
(depth × model × dataset) grid of plain ``RunSpec`` cells, each labelled
``gcn-L`` / ``sigma-L`` via a declared ``label`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import ExperimentSpec, RunSpec
from repro.datasets.registry import LARGE_DATASETS
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

DEFAULT_LAYERS = (1, 2, 3)

TITLE = "Table XI — iterative SIGMA vs iterative GCN"


@dataclass
class Table11Result:
    """Accuracy per (model-depth, dataset)."""

    datasets: List[str]
    accuracies: Dict[str, Dict[str, float]] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        rows = []
        for label, per_dataset in self.accuracies.items():
            row: Dict[str, object] = {"model": label}
            for dataset in self.datasets:
                row[dataset] = round(100 * per_dataset[dataset], 2)
            rows.append(row)
        return rows

    def sigma_beats_gcn_everywhere(self, depth: int = 1) -> bool:
        sigma = self.accuracies[f"sigma-{depth}"]
        gcn = self.accuracies[f"gcn-{depth}"]
        return all(sigma[d] > gcn[d] for d in self.datasets)


def spec(datasets: Sequence[str] = tuple(LARGE_DATASETS),
         layers: Sequence[int] = DEFAULT_LAYERS, *,
         num_repeats: int = 2, scale_factor: float = 1.0,
         config: Optional[TrainConfig] = None, seed: int = 0) -> ExperimentSpec:
    """GCN-L vs iterative SIGMA-L for each depth L in ``layers``."""
    datasets = list(datasets)
    entries = []
    for depth in layers:
        for label, model_name in ((f"gcn-{depth}", "gcn"),
                                  (f"sigma-{depth}", "sigma_iterative")):
            for dataset in datasets:
                entries.append({"label": label, "model": model_name,
                                "overrides.num_layers": depth,
                                "dataset": dataset})
    base = RunSpec(model="gcn", dataset=datasets[0],
                   train=config or DEFAULT_EXPERIMENT_CONFIG, seed=seed,
                   repeats=num_repeats, scale_factor=scale_factor)
    return ExperimentSpec(name="table11", title=TITLE, base=base,
                          grid=tuple(entries), params={"label": ""},
                          reduction={"datasets": datasets})


@experiment("table11", title=TITLE, spec=spec)
def _reduce(spec: ExperimentSpec, cells) -> Table11Result:
    result = Table11Result(datasets=list(spec.reduction["datasets"]))
    for outcome in cells:
        label = str(outcome.params["label"])
        result.accuracies.setdefault(label, {})
        result.accuracies[label][outcome.spec.dataset] = (
            outcome.record["mean_accuracy"])
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table11", print_result=False)
    print("Table XI — iterative SIGMA vs iterative GCN (accuracy %)")
    print(format_table(result.rows()))


if __name__ == "__main__":  # pragma: no cover
    main()
