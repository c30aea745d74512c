"""Experiment E14 — Table III: aggregation complexity comparison.

Table III of the paper is analytic: it lists the asymptotic aggregation and
inference complexity of each heterophilous GNN.  This module does two
things:

* reports the symbolic complexity expressions (the table itself), and
* instantiates them for a concrete graph (n, m, d, f, …) to produce
  *estimated operation counts*, confirming the ordering the paper argues
  for: SIGMA's ``O(k·n·f)`` aggregation is the smallest term once the graph
  is large (``k·n ≪ m ≤ n²``).

Declaratively: a single analytic cell; ``measure_precompute`` additionally
grounds the SIGMA row in a measured LocalPush timing under the base
``RunSpec``'s :class:`~repro.config.SimRankConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import (
    ExperimentCell,
    ExperimentSpec,
    RunSpec,
    SimRankConfig,
)
from repro.datasets.registry import load_dataset
from repro.experiments.common import format_table
from repro.experiments.engine import run_experiment
from repro.experiments.registry import experiment
from repro.graphs.graph import Graph

TITLE = "Table III — aggregation complexity comparison"


@dataclass(frozen=True)
class ComplexityEntry:
    """Symbolic and numeric aggregation cost for one model."""

    model: str
    aggregation: str
    inference: str
    estimated_ops: float


@dataclass
class Table3Result:
    dataset: str
    entries: List[ComplexityEntry] = field(default_factory=list)
    #: Measured SIGMA precompute (LocalPush + top-k) in seconds, when
    #: requested via ``measure_precompute``; keyed by the resolved
    #: LocalPush worker count (``"workers=<k>"``).
    measured_precompute: Dict[str, float] = field(default_factory=dict)

    def rows(self) -> List[Dict[str, object]]:
        return [{
            "model": entry.model,
            "aggregation": entry.aggregation,
            "inference": entry.inference,
            "estimated_ops": f"{entry.estimated_ops:.2e}",
        } for entry in self.entries]

    def cheapest_model(self) -> str:
        return min(self.entries, key=lambda entry: entry.estimated_ops).model


def complexity_table(graph: Graph, *, hidden: int = 64, num_layers: int = 2,
                     k_nearest: int = 5, num_relations: int = 3, k_hops: int = 3,
                     norm_layers: int = 2, top_k: int = 32) -> List[ComplexityEntry]:
    """Instantiate Table III's expressions for a concrete graph."""
    n = graph.num_nodes
    m = graph.num_directed_edges
    d = max(graph.average_degree, 1.0)
    f = hidden
    layers = num_layers
    entries = [
        ComplexityEntry(
            model="Geom-GCN",
            aggregation="O(n^2 f + m f)",
            inference="O(L n^2 f + L m f + n f^2)",
            estimated_ops=float(n * n * f + m * f),
        ),
        ComplexityEntry(
            model="GPNN",
            aggregation="O(n^2 f^2 + n f)",
            inference="O(n^2 f^2 + L m f + n f^2)",
            estimated_ops=float(n * n * f * f + n * f),
        ),
        ComplexityEntry(
            model="U-GCN",
            aggregation="O(d m f + n^2 f + k1 n f)",
            inference="O(d m f + n^2 f + k1 n f + n f^2)",
            estimated_ops=float(d * m * f + n * n * f + k_nearest * n * f),
        ),
        ComplexityEntry(
            model="WR-GAT",
            aggregation="O(L m f + L |R| n^2 f + n f^2)",
            inference="O(L |R| n^2 f + m f + L n f^2)",
            estimated_ops=float(layers * m * f + layers * num_relations * n * n * f
                                + n * f * f),
        ),
        ComplexityEntry(
            model="GloGNN",
            aggregation="O(k2 m f l_norm)",
            inference="O(L k2 m f l_norm + m f + L n f^2)",
            estimated_ops=float(k_hops * m * f * norm_layers),
        ),
        ComplexityEntry(
            model="SIGMA",
            aggregation="O(k n f)",
            inference="O(k n f + m f + n f^2)",
            estimated_ops=float(top_k * n * f),
        ),
    ]
    return entries


def complexity_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Instantiate the analytic table (plus an optional measured timing)."""
    from repro.api import precompute
    from repro.simrank.localpush import resolve_workers

    spec = cell.spec
    dataset = load_dataset(spec.dataset, seed=spec.seed,
                           scale_factor=spec.scale_factor)
    entries = complexity_table(dataset.graph, hidden=cell.params["hidden"],
                               top_k=cell.params["top_k"])
    record: Dict[str, object] = {
        "dataset": spec.dataset,
        "entries": [{
            "model": entry.model,
            "aggregation": entry.aggregation,
            "inference": entry.inference,
            "estimated_ops": entry.estimated_ops,
        } for entry in entries],
        "measured_precompute": {},
    }
    if cell.params["measure_precompute"]:
        base = spec.simrank if spec.simrank is not None else SimRankConfig()
        operator = precompute(dataset.graph, base.with_overrides(
            method="localpush", epsilon=cell.params["epsilon"],
            top_k=cell.params["top_k"]))
        workers = resolve_workers(base.workers, dataset.graph.num_nodes)
        record["measured_precompute"] = {
            f"workers={workers}": operator.precompute_seconds}
    return record


def spec(dataset_name: str = "pokec", *, scale_factor: float = 1.0,
         hidden: int = 64, top_k: int = 32, seed: int = 0,
         measure_precompute: bool = False, epsilon: float = 0.1,
         simrank: Optional[SimRankConfig] = None) -> ExperimentSpec:
    """The complexity table for the requested benchmark graph.

    With ``measure_precompute=True`` the analytic SIGMA row is
    complemented by a measured LocalPush timing under ``simrank``'s
    worker count; with a ``cache_dir`` in the
    config a repeated run measures the cache load instead.
    """
    base = RunSpec(model="sigma", dataset=dataset_name, simrank=simrank,
                   seed=seed, scale_factor=scale_factor)
    return ExperimentSpec(
        name="table3", title=TITLE, base=base,
        params={"hidden": hidden, "top_k": top_k, "epsilon": epsilon,
                "measure_precompute": bool(measure_precompute)})


@experiment("table3", title=TITLE, spec=spec, cell=complexity_cell)
def _reduce(spec: ExperimentSpec, cells) -> Table3Result:
    if not cells:
        return Table3Result(dataset=spec.base.dataset)
    outcome = cells[0]
    result = Table3Result(dataset=outcome.spec.dataset)
    for entry in outcome.record["entries"]:
        result.entries.append(ComplexityEntry(
            model=str(entry["model"]),
            aggregation=str(entry["aggregation"]),
            inference=str(entry["inference"]),
            estimated_ops=float(entry["estimated_ops"]),
        ))
    result.measured_precompute = {
        str(plan): float(seconds)
        for plan, seconds in outcome.record["measured_precompute"].items()}
    return result


def main() -> None:  # pragma: no cover - CLI entry point
    result = run_experiment("table3", print_result=False)
    print(f"Table III — aggregation complexity, instantiated on {result.dataset}")
    print(format_table(result.rows()))
    print(f"cheapest aggregation: {result.cheapest_model()}")


if __name__ == "__main__":  # pragma: no cover
    main()
