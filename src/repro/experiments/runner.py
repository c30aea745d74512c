"""Command-line entry point for the declarative experiment registry.

A thin shell over :mod:`repro.experiments.engine`: every experiment is a
registered :class:`repro.config.ExperimentSpec` (grid of ``RunSpec``
cells + reduction), and the flags here are spec transforms and sweep
options — they apply to *every* experiment by construction, so no flag
can be silently dropped the way the old signature-inspection dispatch
dropped ``--scale-factor``.

Examples
--------
``repro-experiment --list``
``repro-experiment --describe fig6``
``repro-experiment table5``
``repro-experiment fig6 --scale-factor 0.25 --quick``
``repro-experiment fig6 --store artifacts/``

The same interface is exposed as ``python -m repro.cli experiment …``.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

from repro.errors import ExperimentError
from repro.experiments.engine import run_experiment
from repro.experiments.registry import build_spec, get_experiment, list_experiments


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate a table or figure of the SIGMA paper from "
                    "its registered declarative spec.")
    parser.add_argument("experiment", nargs="?",
                        help="experiment id, e.g. table5 or fig6")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--describe", action="store_true",
                        help="print the resolved spec as JSON instead of running")
    parser.add_argument("--scale-factor", type=float, default=None,
                        help="node-count multiplier for quicker runs "
                             "(applies to every experiment)")
    parser.add_argument("--quick", action="store_true",
                        help="train under the reduced smoke protocol "
                             "(QUICK_EXPERIMENT_CONFIG)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="ArtifactStore directory: completed cells and "
                             "the versioned run artefact persist there, and "
                             "a re-run resumes from the finished cells")
    parser.add_argument("--no-resume", dest="resume", action="store_false",
                        help="ignore stored cells (they are still overwritten)")
    parser.add_argument("--force", action="store_true",
                        help="recompute every cell even when stored")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="trace the sweep: per-cell span trees land in "
                             "the run artefact and a JSONL trace is "
                             "appended to PATH (summarise with repro-trace)")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.list or not args.experiment:
            print("available experiments:")
            for definition in list_experiments():
                print(f"  {definition.name:10s} {definition.title}")
            return 0

        # Build the transformed spec once — the describe output IS the
        # spec the run branch executes, so the two cannot drift.
        spec = build_spec(args.experiment)
        if args.scale_factor is not None:
            spec = spec.with_base(scale_factor=args.scale_factor)
        if args.quick:
            from repro.experiments.common import QUICK_EXPERIMENT_CONFIG

            spec = spec.with_train(QUICK_EXPERIMENT_CONFIG)

        if args.describe:
            definition = get_experiment(args.experiment)
            from repro.experiments.engine import evaluation_cell
            from repro.experiments.store import runner_name

            print(json.dumps({
                "cells": spec.num_cells,
                "cell_runner": runner_name(definition.cell or evaluation_cell),
                "spec": spec.to_dict(),
            }, indent=2, default=str))
            return 0

        telemetry = None
        if args.trace is not None:
            from repro.config import TelemetryConfig
            from repro.telemetry import telemetry_from_config

            telemetry = telemetry_from_config(
                TelemetryConfig(enabled=True, trace_path=args.trace))
        try:
            run_experiment(args.experiment, spec=spec, store=args.store,
                           resume=args.resume, force=args.force,
                           print_result=True, telemetry=telemetry)
        finally:
            if telemetry is not None:
                telemetry.close()
        return 0
    except ExperimentError as error:
        parser.exit(2, f"error: {error}\n")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
