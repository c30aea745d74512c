"""Every metric in BENCHMARK.json is registered, well named and emitted.

The short runs start ``perfbench/run.py`` as a subprocess with the
command line of ``BENCHMARK.json``, once per workload and tracing mode.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import pytest

from perfbench.catalogue import (END_TO_END, GATED, PER_LAYER, WORKLOADS,
                                 benchmark_json)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SHORT_SECONDS = {"paper-pokec": 1, "serve-read": 2, "serve-write": 2}


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_is_the_catalogue():
    assert _benchmark() == benchmark_json()


def test_names_units_and_reasons_are_well_formed():
    document = _benchmark()
    names = [w["name"] for w in document["workloads"]]
    names += [m["name"] for m in document["end_to_end"]]
    names += [m["name"] for m in document["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
        assert NAME.fullmatch(name), name
    for metric in document["end_to_end"] + document["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    for workload in document["workloads"]:
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in document["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_register_is_consistent():
    assert set(GATED) <= set(END_TO_END)
    for name, metric in {**END_TO_END, **PER_LAYER}.items():
        assert set(metric.workloads) <= set(WORKLOADS), name
    for name, metric in PER_LAYER.items():
        assert metric.moves, f"{name} names no end-to-end metric it moves"
        for moved, workload in metric.moves:
            assert moved in END_TO_END and workload in WORKLOADS, name


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric(workload, trace, tmp_path):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", str(SHORT_SECONDS[workload]),
         "--trace", str(trace), "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-3000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    document = _benchmark()
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in document[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert math.isfinite(metric["value"]), name
    if not trace:
        for name in GATED:
            assert result["metrics"][name]["value"] > 0, name
        return
    report_path = tmp_path / f"report-{workload}-seed3-trace1.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    for name, metric in PER_LAYER.items():
        if workload in metric.workloads:
            assert report["per_layer"][name]["n"] > 0, name
    summary = subprocess.run(
        [sys.executable, "-m", "repro.telemetry", report["trace_path"]],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
    assert summary.returncode == 0, summary.stderr[-2000:]
    assert "spans:" in summary.stdout


def test_run_without_the_program_fails_without_a_result(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as f:
                (bare / "perfbench" / name).write_bytes(f.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert out.stdout.strip() == ""
