"""Experiment E8 — Fig. 7: accuracy/runtime trade-off over the top-k scheme.

Fixes ε = 0.1 and sweeps k, recording total runtime (precompute + training)
and accuracy.  The paper's observation: accuracy saturates around k = 32
while the runtime keeps growing, motivating the practical choice
k ∈ {16, 32}.  Declaratively: a one-axis ``simrank.top_k`` grid over a
base SIGMA run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.config import (
    SIGMA_DEFAULT_SIMRANK,
    ExperimentSpec,
    RunSpec,
    SimRankConfig,
    grid_product,
)
from repro.experiments.common import DEFAULT_EXPERIMENT_CONFIG, format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.training.config import TrainConfig

DEFAULT_TOP_KS = (4, 8, 16, 32, 64, 128)

TITLE = "Fig. 7 — accuracy/runtime trade-off over top-k"


@dataclass
class Fig7Result:
    dataset: str
    points: List[Dict[str, float]] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return list(self.points)

    def accuracy_series(self) -> List[tuple[int, float]]:
        return [(int(point["top_k"]), float(point["accuracy"])) for point in self.points]

    def runtime_series(self) -> List[tuple[int, float]]:
        return [(int(point["top_k"]), float(point["runtime"])) for point in self.points]

    def saturation_k(self, tolerance: float = 0.5) -> int:
        """Smallest k whose accuracy is within ``tolerance`` points of the best."""
        best = max(float(point["accuracy"]) for point in self.points)
        eligible = [int(point["top_k"]) for point in self.points
                    if best - float(point["accuracy"]) <= tolerance]
        return min(eligible) if eligible else int(self.points[-1]["top_k"])


def spec(dataset_name: str = "pokec", *, top_ks: Sequence[int] = DEFAULT_TOP_KS,
         epsilon: float = 0.1, num_repeats: int = 1, scale_factor: float = 1.0,
         config: Optional[TrainConfig] = None, seed: int = 0,
         final_layers: int = 2,
         simrank: Optional[SimRankConfig] = None) -> ExperimentSpec:
    """Sweep k at fixed ε: ``simrank`` is the base operator configuration;
    each sweep point overrides only its ``top_k``."""
    base_simrank = (simrank if simrank is not None
                    else SIGMA_DEFAULT_SIMRANK).with_overrides(epsilon=epsilon)
    base = RunSpec(model="sigma", dataset=dataset_name,
                   overrides={"final_layers": final_layers},
                   train=config or DEFAULT_EXPERIMENT_CONFIG,
                   simrank=base_simrank, seed=seed, repeats=num_repeats,
                   scale_factor=scale_factor)
    return ExperimentSpec(name="fig7", title=TITLE, base=base,
                          grid=grid_product({"simrank.top_k": top_ks}))


@experiment("fig7", title=TITLE, spec=spec)
def _reduce(spec: ExperimentSpec, cells) -> Fig7Result:
    result = Fig7Result(dataset=spec.base.dataset)
    for outcome in cells:
        result.points.append({
            "top_k": outcome.spec.simrank.top_k,
            "accuracy": round(100 * outcome.record["mean_accuracy"], 2),
            "runtime": round(outcome.record["mean_learning_time"], 3),
            "aggregation": round(outcome.record["mean_aggregation_time"], 3),
        })
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("fig7", print_result=False)
    print(f"Fig. 7 — accuracy/runtime trade-off over top-k on {result.dataset}")
    print(format_table(result.rows()))
    print(f"accuracy saturates at k = {result.saturation_k()}")


if __name__ == "__main__":  # pragma: no cover
    main()
