"""Benchmark: the LocalPush engine core inline and on its thread pool.

Times the engine core on a synthetic pokec-style graph twice — ``serial``
(one worker: every shard pushed inline) and ``thread`` (the pool at the
default or ``--workers`` size) — checks the serial core's error against
the dense ``linearized_simrank`` series (the fixed point of Lemma III.5)
is below ``ε`` *and* that the pooled run is bit-identical to the serial
one, then appends the result to ``BENCH_localpush.json`` at the repo
root so future PRs can track the precompute-speed trajectory.

The JSON file is an append-only list of run records.  Each new record is
validated against :data:`RECORD_SCHEMA` before being appended and carries
``cpu_count`` alongside ``num_workers`` — pool speedups are only
interpretable relative to the cores the machine actually had.

Usage
-----
``PYTHONPATH=src python benchmarks/bench_localpush.py``            full run (5k nodes)
``PYTHONPATH=src python benchmarks/bench_localpush.py --smoke``    quick smoke (600 nodes)
``... --nodes 2000 --epsilon 0.05 --workers 8 --output /tmp/b.json``  custom
``... --profile``                                       print the phase table too

Both modes exercise the series reference, the serial core and the
thread pool.  The full run measures the pool's speedup over the serial
core on a ≥ 5k-node graph at ε = 0.1 (``speedup_vs_serial`` — > 1 needs
actual multi-core hardware; see ``cpu_count`` in the record).  The dense
series costs ``O(n²)`` memory and dominates the full run's wall time (it
is computed at tolerance ``ε/100`` so its own truncation error stays far
below ``ε``); ``backends.core.seconds`` times only the serial core.

Every record additionally carries two sections:

* ``float32`` — the reduced-precision sweep: fused float32 runs on small
  graphs against the dense ``linearized_simrank`` oracle, with the
  measured max error checked against the adjusted bound
  (:func:`repro.simrank.kernels.float32_error_bound`).
* ``profile`` — the per-phase (frontier/push/merge/prune) seconds of one
  serial core run at the headline ε (``--profile`` prints the table),
  summed from the ``localpush.<phase>`` spans the engine opens on a
  recording tracer — the same spans ``repro-trace`` reads, with no
  separate timer.

``benchmarks/check_perf_gate.py`` consumes this history in CI: it
compares the freshest record's core seconds against the last earlier
record with the same ``cpu_count``/``num_nodes`` shape and fails on a
>30 % core-kernel slowdown.
"""

from __future__ import annotations

# repro-lint: disable-file=R8 — this micro-benchmark measures the engine
# internals themselves (worker pool, series reference, synthetic
# generator), so importing them is its purpose, not an API leak.
import argparse
import json
import os
from pathlib import Path

import numpy as np

from repro.config import SimRankConfig
from repro.datasets.synthetic import SyntheticGraphConfig, generate_synthetic_graph
from repro.errors import ConfigError
from repro.graphs import top_k_per_row
from repro.simrank.engine import default_num_workers, localpush_engine
from repro.simrank.exact import linearized_simrank
from repro.simrank.kernels import PHASES, float32_error_bound
from repro.simrank.localpush import localpush_simrank
from repro.telemetry import NULL_TRACER, SpanRecorder, Tracer, phase_seconds
from repro.utils.timer import Timer

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_localpush.json"

#: Top-level schema of one appended benchmark record: required key → type.
#: ``validate_record`` enforces it (with exact types — ``bool`` is not an
#: acceptable ``int``) before anything is written to the history file.
#: ``config`` is the resolved ``SimRankConfig.to_dict()`` of the run and
#: must round-trip through ``SimRankConfig.from_dict``.
RECORD_SCHEMA = {
    "benchmark": str,
    "mode": str,
    "num_nodes": int,
    "num_edges": int,
    "epsilon": float,
    "decay": float,
    "seed": int,
    "cpu_count": int,
    "num_workers": int,
    "config": dict,
    "backends": dict,
    "executors": dict,
    "float32": dict,
    "profile": dict,
    "within_epsilon": bool,
}

#: Schema of the ``float32`` sweep section.
FLOAT32_SCHEMA = {
    "epsilon": float,
    "decay": float,
    "bound": float,
    "sweeps": list,
}

#: Schema of the ``profile`` phase-breakdown section.
PROFILE_SCHEMA = {
    "executor": str,
    "total_seconds": float,
    "phase_seconds": dict,
}

#: Entries every record's ``executors`` section must hold: the core on
#: one worker (``serial``) and on the thread pool (``thread``).
REQUIRED_EXECUTORS = ("serial", "thread")

#: Schema of each entry inside ``record["executors"]``.
EXECUTOR_SCHEMA = {
    "seconds": float,
    "num_pushes": int,
    "nnz": int,
}

#: Extra keys required of the ``thread`` entry.
POOLED_EXECUTOR_SCHEMA = {
    "num_workers": int,
    "speedup_vs_serial": float,
    "bit_identical_to_serial": bool,
}


class RecordSchemaError(ValueError):
    """The benchmark record does not match :data:`RECORD_SCHEMA`."""


def _check_fields(mapping: dict, schema: dict, context: str, problems: list) -> None:
    for field, expected in schema.items():
        if field not in mapping:
            problems.append(f"{context}: missing required key {field!r}")
            continue
        value = mapping[field]
        if expected is float:
            ok = type(value) in (int, float) and type(value) is not bool
        else:
            ok = type(value) is expected
        if not ok:
            problems.append(
                f"{context}.{field}: expected {expected.__name__}, "
                f"got {type(value).__name__} ({value!r})")


def validate_record(record: dict) -> dict:
    """Validate a benchmark record against the schema; raise on mismatch."""
    problems: list = []
    _check_fields(record, RECORD_SCHEMA, "record", problems)
    executors = record.get("executors")
    if isinstance(executors, dict):
        for name in REQUIRED_EXECUTORS:
            if name not in executors:
                problems.append(f"record.executors: missing executor {name!r}")
        for name, entry in executors.items():
            if not isinstance(entry, dict):
                problems.append(f"record.executors.{name}: expected dict")
                continue
            _check_fields(entry, EXECUTOR_SCHEMA,
                          f"record.executors.{name}", problems)
            if name == "thread":
                _check_fields(entry, POOLED_EXECUTOR_SCHEMA,
                              f"record.executors.{name}", problems)
    backends = record.get("backends")
    if isinstance(backends, dict) and "core" not in backends:
        problems.append("record.backends: missing the core entry")
    f32 = record.get("float32")
    if isinstance(f32, dict):
        _check_fields(f32, FLOAT32_SCHEMA, "record.float32", problems)
    profile = record.get("profile")
    if isinstance(profile, dict):
        _check_fields(profile, PROFILE_SCHEMA, "record.profile", problems)
    config = record.get("config")
    if type(config) is dict:
        try:
            SimRankConfig.from_dict(config)
        except ConfigError as error:
            problems.append(f"record.config: not a valid SimRankConfig "
                            f"serialisation ({error})")
    if problems:
        raise RecordSchemaError(
            "benchmark record failed schema validation:\n  "
            + "\n  ".join(problems))
    return record


def build_graph(num_nodes: int, *, average_degree: float, seed: int):
    config = SyntheticGraphConfig(
        num_nodes=num_nodes, num_classes=2, num_features=8,
        average_degree=average_degree, homophily=0.44,
        name=f"bench-localpush-{num_nodes}")
    return generate_synthetic_graph(config, seed=seed)


def time_plan(graph, *, epsilon: float, decay: float, num_workers: int,
              top_k: int | None = None) -> dict:
    """One timed core run; with ``top_k``, the operator pipeline's cost.

    ``top_k`` keeps the sub-threshold residual (``absorb_residual``) and
    prunes the finished estimate with ``top_k_per_row(k,
    keep_diagonal=True)``, timed together — what ``simrank_operator``
    pays for a top-k LocalPush operator.
    """
    timer = Timer()
    with timer:
        result = localpush_simrank(graph, epsilon=epsilon, decay=decay,
                                   prune=False, num_workers=num_workers,
                                   absorb_residual=top_k is not None)
        matrix = result.matrix
        if top_k is not None:
            matrix = top_k_per_row(matrix, top_k, keep_diagonal=True)
    record = {
        "seconds": timer.elapsed,
        "num_pushes": result.num_pushes,
        "nnz": int(matrix.nnz),
        "matrix": matrix,
        "num_workers": result.num_workers,
    }
    if top_k is not None:
        record["top_k"] = top_k
    return record


def time_core(graph, *, epsilon: float, decay: float,
              tracer: Tracer = NULL_TRACER) -> dict:
    """One timed serial engine-core run (the profiled measurement)."""
    timer = Timer()
    with timer:
        result = localpush_engine(graph, epsilon=epsilon, decay=decay,
                                  prune=False, tracer=tracer)
    return {"seconds": timer.elapsed, "num_pushes": result.num_pushes}


def float32_sweep(*, epsilon: float, decay: float, average_degree: float,
                  seed: int, sizes: tuple = (300, 600)) -> dict:
    """The ``float32`` record section: measured error vs the adjusted bound.

    Runs the float32 core on small graphs against the dense
    ``linearized_simrank`` oracle (iterated to near machine precision)
    and checks the measured max error against
    :func:`repro.simrank.kernels.float32_error_bound` — the documented
    guarantee of ``dtype="float32"``.  The float64 error is recorded
    alongside so the precision penalty is visible in the history.
    """
    bound = float32_error_bound(epsilon, decay)
    sweeps = []
    for size in sizes:
        graph = build_graph(size, average_degree=average_degree,
                            seed=seed + size)
        exact = linearized_simrank(graph, decay=decay, tolerance=1e-12)
        errors = {}
        for dtype in ("float32", "float64"):
            result = localpush_engine(graph, epsilon=epsilon, decay=decay,
                                      prune=False, absorb_residual=True,
                                      dtype=dtype)
            dense = result.matrix.toarray().astype(np.float64)
            errors[dtype] = float(np.abs(dense - exact).max())
        sweeps.append({
            "num_nodes": graph.num_nodes,
            "max_abs_err_float32": errors["float32"],
            "max_abs_err_float64": errors["float64"],
            "within_bound": bool(errors["float32"] < bound),
        })
        print(f"  float32 sweep n={graph.num_nodes}: "
              f"err32={errors['float32']:.3e} err64={errors['float64']:.3e} "
              f"bound={bound:.3e} within={sweeps[-1]['within_bound']}")
    return {"epsilon": epsilon, "decay": decay, "bound": bound,
            "sweeps": sweeps}


def profile_breakdown(graph, *, epsilon: float, decay: float,
                      show: bool) -> dict:
    """The ``profile`` record section: per-phase seconds of one core run.

    The engine runs on a ``Tracer([recorder])``, so its round kernel
    opens one ``localpush.<phase>`` span per phase interval, and the
    table is :func:`repro.telemetry.summary.phase_seconds` over the
    recorded spans — the same aggregation ``repro-trace`` prints, so
    the benchmark and the tracing CLI can never disagree.  The record
    shape is :data:`PROFILE_SCHEMA`.
    """
    recorder = SpanRecorder()
    run = time_core(graph, epsilon=epsilon, decay=decay,
                    tracer=Tracer([recorder]))
    totals = {phase: 0.0 for phase in PHASES}
    totals.update(phase_seconds(recorder.spans()))
    phases = {phase: round(seconds, 4)
              for phase, seconds in totals.items()}
    if show:
        print(f"  phase breakdown (serial, epsilon={epsilon}):")
        for phase, seconds in phases.items():
            share = seconds / run["seconds"] if run["seconds"] > 0 else 0.0
            print(f"  {phase:>10}: {seconds:8.4f}s ({share:5.1%})")
    return {
        "executor": "serial",
        "total_seconds": round(run["seconds"], 4),
        "phase_seconds": phases,
    }


def load_history(path: Path) -> list:
    """Existing benchmark records; a legacy single-record file is wrapped."""
    if not path.exists():
        return []
    existing = json.loads(path.read_text())
    return existing if isinstance(existing, list) else [existing]


def run(*, num_nodes: int, average_degree: float, epsilon: float, decay: float,
        seed: int, smoke: bool, num_workers: int, top_k: int = 32,
        show_profile: bool = False) -> dict:
    graph = build_graph(num_nodes, average_degree=average_degree, seed=seed)
    cpu_count = os.cpu_count() or 1
    print(f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges, "
          f"epsilon={epsilon}, decay={decay}, workers={num_workers}, "
          f"cpus={cpu_count}")

    # The dense series first: the within-ε reference (Lemma III.5's fixed
    # point), at a tolerance far below ε so its own truncation error
    # cannot mask or fake a violation.
    timer = Timer()
    with timer:
        series = linearized_simrank(graph, decay=decay,
                                    tolerance=epsilon / 100.0)
    print(f"  {'series':>10}: {timer.elapsed:8.3f}s (dense reference)")

    # The core on one worker (every shard inline) and on the pool.
    runs = {}
    for name, workers in (("serial", 1), ("thread", num_workers)):
        record = time_plan(graph, epsilon=epsilon, decay=decay,
                           num_workers=workers)
        runs[name] = record
        print(f"  {name:>10}: {record['seconds']:8.3f}s "
              f"({record['num_pushes']} pushes, nnz={record['nnz']}, "
              f"workers={record['num_workers']})")

    # The operator pipeline prunes the core's finished estimate to its
    # top-k (simrank_operator), so the tracked record must include what
    # model precompute actually pays.
    pruned = time_plan(graph, epsilon=epsilon, decay=decay,
                       num_workers=1, top_k=top_k)
    print(f"  {'serial+topk':>11}: {pruned['seconds']:8.3f}s "
          f"(top_k={top_k}, nnz={pruned['nnz']})")

    serial = runs["serial"]
    serial_matrix = serial["matrix"]
    max_abs_diff = float(np.abs(serial_matrix.toarray() - series).max())
    within_epsilon = max_abs_diff < epsilon
    print(f"  core vs series: max|Ŝ − S| = {max_abs_diff:.5f} "
          f"(bound ε = {epsilon})")

    executors_out = {}
    for name, record in runs.items():
        entry = {
            "seconds": round(record["seconds"], 4),
            "num_pushes": record["num_pushes"],
            "nnz": record["nnz"],
        }
        if name == "thread":
            matrix = record["matrix"]
            identical = (
                np.array_equal(serial_matrix.indptr, matrix.indptr)
                and np.array_equal(serial_matrix.indices, matrix.indices)
                and np.array_equal(serial_matrix.data, matrix.data))
            entry["num_workers"] = int(record["num_workers"])
            entry["speedup_vs_serial"] = (
                round(serial["seconds"] / record["seconds"], 2)
                if record["seconds"] > 0 else float("inf"))
            entry["bit_identical_to_serial"] = bool(identical)
            print(f"  {name:>10}: speedup vs serial "
                  f"{entry['speedup_vs_serial']}x, bit-identical={identical}")
        executors_out[name] = entry
    executors_out["serial_topk"] = {
        "seconds": round(pruned["seconds"], 4),
        "num_pushes": pruned["num_pushes"],
        "nnz": pruned["nnz"],
        "top_k": pruned["top_k"],
    }

    backends_out = {
        "core": {
            "seconds": round(serial["seconds"], 4),
            "num_pushes": serial["num_pushes"],
            "nnz": serial["nnz"],
            "max_abs_diff_vs_series": round(max_abs_diff, 6),
        },
    }

    float32_out = float32_sweep(epsilon=epsilon, decay=decay,
                                average_degree=average_degree, seed=seed)
    profile_out = profile_breakdown(graph, epsilon=epsilon, decay=decay,
                                    show=show_profile)

    # The resolved configuration of the headline serial/thread runs
    # (LocalPush, full estimate, no pruning) — embedded so the history is
    # self-describing.  The extra `serial_topk` measurement differs in
    # its absorbed residual and top-k prune and records its own `top_k`.
    config = SimRankConfig(method="localpush", epsilon=epsilon, decay=decay,
                           workers=num_workers)

    return {
        "benchmark": "localpush_executors",
        "mode": "smoke" if smoke else "full",
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "epsilon": epsilon,
        "decay": decay,
        "seed": seed,
        "cpu_count": cpu_count,
        "num_workers": num_workers,
        "config": config.to_dict(),
        "backends": backends_out,
        "executors": executors_out,
        "float32": float32_out,
        "profile": profile_out,
        "within_epsilon": bool(within_epsilon),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="quick 600-node run instead of the full 5k-node one")
    parser.add_argument("--nodes", type=int, default=None,
                        help="node count override (default: 5000, or 600 with --smoke)")
    parser.add_argument("--degree", type=float, default=9.0,
                        help="target average degree (pokec-like default: 9)")
    parser.add_argument("--epsilon", type=float, default=0.1,
                        help="LocalPush error threshold ε")
    parser.add_argument("--decay", type=float, default=0.6, help="decay factor c")
    parser.add_argument("--seed", type=int, default=0, help="graph seed")
    parser.add_argument("--workers", type=int, default=None,
                        help="thread-pool size of the pooled run "
                             "(default: min(4, cpu count))")
    parser.add_argument("--profile", action="store_true",
                        help="print the per-phase (frontier/push/merge/"
                             "prune) breakdown of the serial core run; the "
                             "breakdown is recorded either way")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="benchmark history JSON to append to "
                             "(default: BENCH_localpush.json at the repo root)")
    args = parser.parse_args(argv)

    num_nodes = args.nodes if args.nodes is not None else (600 if args.smoke else 5000)
    num_workers = args.workers if args.workers is not None else default_num_workers()
    record = run(num_nodes=num_nodes, average_degree=args.degree,
                 epsilon=args.epsilon, decay=args.decay, seed=args.seed,
                 smoke=args.smoke, num_workers=num_workers,
                 show_profile=args.profile)
    validate_record(record)
    history = load_history(args.output)
    history.append(record)
    args.output.write_text(json.dumps(history, indent=2) + "\n")
    print(f"appended record #{len(history)} to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
