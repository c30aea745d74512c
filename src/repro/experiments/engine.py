"""Sweep engine: execute an :class:`~repro.config.ExperimentSpec` grid.

The engine is the single execution path behind every experiment — the
``repro-experiment`` CLI and :func:`run_experiment` both funnel into
:func:`execute`:

1. expand the spec into cells (:meth:`ExperimentSpec.cells`);
2. walk the cells in order in the calling thread: serve a finished cell
   from the :class:`repro.experiments.store.ArtifactStore` when one is
   configured (``resume``; ``force`` recomputes), otherwise run it
   through the experiment's cell runner and persist its record before
   the next cell starts, so a killed sweep restarts where it died;
3. fold all records through the experiment's reduction and append a
   versioned run artefact embedding the resolved spec.

The default cell runner, :func:`evaluation_cell`, executes the cell's
``RunSpec`` through :func:`repro.api.run` — a grid experiment whose cells
are plain training runs needs no runner of its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import ExperimentCell, ExperimentSpec

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.config import RunSpec
    from repro.telemetry.runtime import Telemetry
    from repro.training.config import TrainConfig
    from repro.training.evaluation import EvaluationSummary
from repro.errors import ExperimentError
from repro.experiments.registry import ExperimentDefinition, build_spec, get_experiment
from repro.experiments.store import ArtifactStore


def summary_record(summary: "EvaluationSummary") -> Dict[str, object]:
    """Full-precision JSON record of one repeated-evaluation summary.

    Unlike ``EvaluationSummary.as_row()`` nothing is rounded here: the
    reductions must reproduce the legacy modules' numbers (ranking ties
    included) exactly from the stored record.
    """
    return {
        "model": summary.model,
        "dataset": summary.dataset,
        "accuracies": [float(value) for value in summary.accuracies],
        "mean_accuracy": summary.mean_accuracy,
        "std_accuracy": summary.std_accuracy,
        "mean_learning_time": summary.mean_learning_time,
        "mean_precompute_time": summary.mean_precompute_time,
        "mean_aggregation_time": summary.mean_aggregation_time,
    }


def evaluation_cell(cell: ExperimentCell) -> Dict[str, object]:
    """Default cell runner: execute the cell's ``RunSpec`` end to end."""
    from repro.api import run

    return summary_record(run(cell.spec).summary)


def _execute_cell(cell_runner: Callable[[ExperimentCell], dict],
                  cell: ExperimentCell, trace: bool = False,
                  experiment: str = ""
                  ) -> Tuple[dict, float, Optional[Dict[str, object]]]:
    """Run one cell under a timer.

    With ``trace`` on, the cell runs under its own *local* tracer, so the
    returned tree holds that cell's spans only: an ``experiment.cell``
    root span with an ``experiment.cell.run`` child around the runner
    call, plus whatever spans telemetry-aware layers underneath record.
    The returned tree is the versioned ``SpanRecorder.tree()`` payload
    embedded in the run artefact's cell records.
    """
    start = time.perf_counter()
    if not trace:
        record = cell_runner(cell)
        return record, time.perf_counter() - start, None
    from repro.telemetry.tracing import SpanRecorder, Tracer

    recorder = SpanRecorder()
    tracer = Tracer([recorder])
    with tracer.span("experiment.cell", index=cell.index,
                     experiment=experiment):
        with tracer.span("experiment.cell.run"):
            record = cell_runner(cell)
    return record, time.perf_counter() - start, recorder.tree()


@dataclass(frozen=True)
class CellOutcome:
    """One executed (or resumed) cell: its record plus provenance."""

    cell: ExperimentCell
    record: Dict[str, object]
    seconds: float = 0.0
    cached: bool = False
    key: Optional[str] = None
    #: Versioned span tree of the traced execution (``None`` when the
    #: run was untraced or the cell was served from the store).
    trace: Optional[Dict[str, object]] = None

    @property
    def index(self) -> int:
        return self.cell.index

    @property
    def spec(self) -> "RunSpec":
        return self.cell.spec

    @property
    def params(self) -> Dict[str, object]:
        return self.cell.params


@dataclass
class ExperimentRun:
    """Outcome of :func:`execute`: the reduced result plus the sweep log."""

    spec: ExperimentSpec
    result: object
    outcomes: List[CellOutcome] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def cells_executed(self) -> int:
        return sum(1 for outcome in self.outcomes if not outcome.cached)

    @property
    def cells_resumed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    def to_record(self) -> Dict[str, object]:
        """Versioned run record with the resolved spec embedded (the
        ``bench_localpush.py`` record pattern, generalized)."""
        rows = self.result.rows() if hasattr(self.result, "rows") else []
        return {
            "experiment": self.spec.name,
            "title": self.spec.title,
            # Record metadata only — never ordering, never in the rows
            # the bit-identical guarantee covers.
            "created_unix": time.time(),  # repro-lint: disable=R3
            "spec": self.spec.to_dict(),
            "seconds": self.seconds,
            "cells_executed": self.cells_executed,
            "cells_resumed": self.cells_resumed,
            "cells": [{
                "index": outcome.index,
                "key": outcome.key,
                "overrides": outcome.cell.overrides,
                "seconds": outcome.seconds,
                "cached": outcome.cached,
                "record": outcome.record,
                "trace": outcome.trace,
            } for outcome in self.outcomes],
            "rows": rows,
        }


def execute(spec: ExperimentSpec, *,
            definition: Optional[ExperimentDefinition] = None,
            store: Optional[ArtifactStore | str] = None,
            resume: bool = True, force: bool = False,
            telemetry: Optional["Telemetry"] = None) -> ExperimentRun:
    """Execute ``spec`` cell by cell and reduce to the paper artefact.

    ``definition`` defaults to the registry entry under ``spec.name``.
    With a ``store``, finished cells are served from disk when ``resume``
    is true (``force`` recomputes and overwrites them), every fresh cell
    is persisted before the next one starts, and a run artefact is
    appended.

    With an enabled ``telemetry`` handle, every freshly executed cell is
    traced (see :func:`_execute_cell`); the span trees land in the run
    artefact's cell records (``trace`` key) and, when the handle carries
    a JSONL sink, are also appended there with run-unique span ids.
    """
    if not isinstance(spec, ExperimentSpec):
        raise ExperimentError(
            f"execute expects an ExperimentSpec, got {type(spec).__name__}")
    definition = definition or get_experiment(spec.name)
    cell_runner = definition.cell or evaluation_cell
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ArtifactStore(store)
    from repro.telemetry.runtime import resolve_telemetry

    telemetry = resolve_telemetry(telemetry)
    trace = telemetry.enabled

    started = time.perf_counter()
    outcomes: List[CellOutcome] = []
    for cell in spec.cells():
        key = store.key_for(cell, cell_runner) if store is not None else None
        if store is not None and resume and not force:
            stored = store.load_cell(key, cell, cell_runner)
            if stored is not None:
                outcomes.append(CellOutcome(cell=cell, record=stored,
                                            cached=True, key=key))
                continue
        record, seconds, tree = _execute_cell(cell_runner, cell, trace,
                                              spec.name)
        if store is not None:
            store.store_cell(key, cell, cell_runner, record,
                             experiment=spec.name, seconds=seconds,
                             trace=tree)
        outcomes.append(CellOutcome(cell=cell, record=record, seconds=seconds,
                                    key=key, trace=tree))

    if trace and telemetry.sink is not None:
        _emit_traces(telemetry, outcomes)
    result = definition.reduce(spec, outcomes)
    run = ExperimentRun(spec=spec, result=result, outcomes=outcomes,
                        seconds=time.perf_counter() - started)
    if store is not None:
        store.append_artifact(spec.name, run.to_record())
    return run


def _emit_traces(telemetry: "Telemetry",
                 outcomes: Sequence[CellOutcome]) -> None:
    """Append every traced cell's spans to the handle's JSONL sink.

    Each cell was traced by its own local tracer (span ids start at 1 in
    every cell), so ids are offset per cell to stay unique across the
    whole run's trace file — ``repro-trace`` needs the parent links to
    resolve unambiguously.
    """
    sink = telemetry.sink
    assert sink is not None
    offset = 0
    for outcome in outcomes:
        if not outcome.trace:
            continue
        spans = outcome.trace.get("spans")
        if not isinstance(spans, list) or not spans:
            continue
        for span in spans:
            shifted = dict(span)
            shifted["span_id"] = int(shifted["span_id"]) + offset
            if shifted.get("parent_id") is not None:
                shifted["parent_id"] = int(shifted["parent_id"]) + offset
            sink.write(shifted)
        offset += max(int(span["span_id"]) for span in spans)


def run_experiment(name: str, *args: object, scale_factor: Optional[float] = None,
                   train: Optional["TrainConfig"] = None,
                   store: Optional[ArtifactStore | str] = None,
                   resume: bool = True, force: bool = False,
                   spec: Optional[ExperimentSpec] = None,
                   print_result: bool = True,
                   telemetry: Optional["Telemetry"] = None,
                   **overrides: object) -> object:
    """Run a registered experiment and return its result object.

    ``*args``/``**overrides`` are handed to the experiment's spec builder
    (unknown ones are a hard :class:`ExperimentError`); ``spec=`` runs a
    pre-built spec instead.  ``scale_factor`` and ``train`` are applied as
    spec transforms, so they reach *every* experiment by construction —
    no experiment can silently ignore them.
    """
    definition = get_experiment(name)
    if spec is None:
        spec = build_spec(name, *args, **overrides)
    elif args or overrides:
        raise ExperimentError(
            "pass either a pre-built spec or builder arguments, not both")
    if scale_factor is not None:
        spec = spec.with_base(scale_factor=scale_factor)
    if train is not None:
        spec = spec.with_train(train)
    run = execute(spec, definition=definition, store=store, resume=resume,
                  force=force, telemetry=telemetry)
    if print_result:
        from repro.experiments.common import format_table

        rows = run.result.rows() if hasattr(run.result, "rows") else []
        print(f"== {definition.name} ==")
        print(format_table(rows))
    return run.result


__all__ = ["CellOutcome", "ExperimentRun", "evaluation_cell",
           "summary_record", "execute", "run_experiment"]
