"""Experiment E7 — Fig. 6: effect of the error threshold ε and top-k on pokec.

Varies the LocalPush error threshold ε and the top-k pruning level of the
SimRank operator and records SIGMA's accuracy and precomputation time,
reproducing the paper's finding that ε = 0.1 with k ∈ {16, 32} is the sweet
spot: tighter ε or much larger k barely improve accuracy but inflate the
precomputation / aggregation cost.

Declaratively: a (ε × k) grid of ``RunSpec`` cells over one base SIGMA
run — every cell is keyed separately in the operator cache *and* in the
experiment :class:`~repro.experiments.store.ArtifactStore`, so repeated
sweeps skip both the precompute and the finished cells.
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

DEFAULT_EPSILONS = (0.01, 0.05, 0.1)
DEFAULT_TOP_KS = (4, 16, 64, 256)

TITLE = "Fig. 6 — effect of the error threshold ε and top-k"


@dataclass
class Fig6Result:
    """Accuracy and timing per (ε, k) cell."""

    dataset: str
    cells: List[Dict[str, float]] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return list(self.cells)

    def accuracy(self, epsilon: float, top_k: int) -> float:
        for cell in self.cells:
            if cell["epsilon"] == epsilon and cell["top_k"] == top_k:
                return float(cell["accuracy"])
        raise KeyError(f"no cell for epsilon={epsilon}, top_k={top_k}")

    def precompute(self, epsilon: float, top_k: int) -> float:
        for cell in self.cells:
            if cell["epsilon"] == epsilon and cell["top_k"] == top_k:
                return float(cell["precompute"])
        raise KeyError(f"no cell for epsilon={epsilon}, top_k={top_k}")


def spec(dataset_name: str = "pokec", *,
         epsilons: Sequence[float] = DEFAULT_EPSILONS,
         top_ks: Sequence[int] = DEFAULT_TOP_KS, num_repeats: int = 1,
         scale_factor: float = 1.0, config: Optional[TrainConfig] = None,
         seed: int = 0, final_layers: int = 2,
         simrank: Optional[SimRankConfig] = None) -> ExperimentSpec:
    """The declarative (ε × k) sweep for SIGMA on ``dataset_name``.

    ``simrank`` is the *base* operator configuration shared by every
    cell, such as the persistent cache directory; each grid cell
    overrides only its ``(epsilon, top_k)``.
    """
    base_simrank = (simrank if simrank is not None
                    else SIGMA_DEFAULT_SIMRANK).with_overrides(method="localpush")
    base = RunSpec(model="sigma", dataset=dataset_name,
                   overrides={"final_layers": final_layers},
                   train=config or DEFAULT_EXPERIMENT_CONFIG,
                   simrank=base_simrank, seed=seed, repeats=num_repeats,
                   scale_factor=scale_factor)
    return ExperimentSpec(
        name="fig6", title=TITLE, base=base,
        grid=grid_product({"simrank.epsilon": epsilons,
                           "simrank.top_k": top_ks}))


@experiment("fig6", title=TITLE, spec=spec)
def _reduce(spec: ExperimentSpec, cells) -> Fig6Result:
    result = Fig6Result(dataset=spec.base.dataset)
    for outcome in cells:
        result.cells.append({
            "epsilon": outcome.spec.simrank.epsilon,
            "top_k": outcome.spec.simrank.top_k,
            "accuracy": round(100 * outcome.record["mean_accuracy"], 2),
            "precompute": round(outcome.record["mean_precompute_time"], 3),
            "learn": round(outcome.record["mean_learning_time"], 3),
        })
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("fig6", print_result=False)
    print(f"Fig. 6 — effect of ε and top-k on {result.dataset}")
    print(format_table(result.rows()))


if __name__ == "__main__":  # pragma: no cover
    main()
