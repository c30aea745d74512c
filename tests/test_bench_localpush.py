"""Schema-validation tests for the LocalPush benchmark record.

``benchmarks/bench_localpush.py`` appends run records to
``BENCH_localpush.json``; every appended record must satisfy
``RECORD_SCHEMA`` (required keys, exact types, a ``serial`` entry and a
``thread`` entry with ``speedup_vs_serial`` and ``num_workers``) and
carry ``cpu_count`` so pool speedups stay interpretable across machines.
The benchmark script is not a package, so it is loaded by file path.
"""

import copy
import importlib.util
from pathlib import Path

import pytest

from repro.config import SimRankConfig

_BENCH_PATH = (Path(__file__).resolve().parent.parent / "benchmarks"
               / "bench_localpush.py")
_spec = importlib.util.spec_from_file_location("bench_localpush", _BENCH_PATH)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


def _valid_record() -> dict:
    executor = {"seconds": 0.5, "num_pushes": 100, "nnz": 1000}
    pooled = {**executor, "num_workers": 4, "speedup_vs_serial": 1.6,
              "bit_identical_to_serial": True}
    return {
        "benchmark": "localpush_executors",
        "mode": "smoke",
        "num_nodes": 600,
        "num_edges": 2700,
        "epsilon": 0.1,
        "decay": 0.6,
        "seed": 0,
        "cpu_count": 4,
        "num_workers": 4,
        "config": SimRankConfig(method="localpush", epsilon=0.1, decay=0.6,
                                workers=4).to_dict(),
        "backends": {"core": {"seconds": 0.5, "num_pushes": 100, "nnz": 1000,
                              "max_abs_diff_vs_series": 0.01}},
        "executors": {"serial": dict(executor),
                      "thread": dict(pooled)},
        "float32": {
            "epsilon": 0.1, "decay": 0.6, "bound": 0.1001,
            "sweeps": [{"num_nodes": 300, "max_abs_err_float32": 0.02,
                        "max_abs_err_float64": 0.02, "within_bound": True}],
        },
        "profile": {
            "executor": "serial", "total_seconds": 0.5,
            "phase_seconds": {"frontier": 0.1, "push": 0.2,
                              "merge": 0.15, "prune": 0.05},
        },
        "within_epsilon": True,
    }


class TestRecordSchema:
    def test_valid_record_passes(self):
        assert bench.validate_record(_valid_record()) is not None

    @pytest.mark.parametrize("missing", sorted(set(bench.RECORD_SCHEMA)))
    def test_missing_top_level_key_fails(self, missing):
        record = _valid_record()
        del record[missing]
        with pytest.raises(bench.RecordSchemaError, match=missing):
            bench.validate_record(record)

    def test_cpu_count_is_required_and_typed(self):
        record = _valid_record()
        record["cpu_count"] = "4"  # wrong type
        with pytest.raises(bench.RecordSchemaError, match="cpu_count"):
            bench.validate_record(record)

    def test_bool_is_not_an_int(self):
        record = _valid_record()
        record["num_nodes"] = True  # bool must not satisfy an int field
        with pytest.raises(bench.RecordSchemaError, match="num_nodes"):
            bench.validate_record(record)

    def test_int_is_an_acceptable_float(self):
        record = _valid_record()
        record["epsilon"] = 1  # JSON round-trips 1.0 as 1
        assert bench.validate_record(record)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_every_executor_entry_is_required(self, executor):
        record = _valid_record()
        del record["executors"][executor]
        with pytest.raises(bench.RecordSchemaError, match=executor):
            bench.validate_record(record)

    def test_pooled_executors_need_speedup_and_workers(self):
        record = _valid_record()
        del record["executors"]["thread"]["speedup_vs_serial"]
        with pytest.raises(bench.RecordSchemaError, match="speedup_vs_serial"):
            bench.validate_record(record)
        record = _valid_record()
        del record["executors"]["thread"]["num_workers"]
        with pytest.raises(bench.RecordSchemaError, match="num_workers"):
            bench.validate_record(record)

    def test_core_entry_required(self):
        """The perf gate reads backends.core.seconds."""
        record = _valid_record()
        del record["backends"]["core"]
        with pytest.raises(bench.RecordSchemaError, match="core"):
            bench.validate_record(record)

    def test_float32_section_needs_its_bound(self):
        record = _valid_record()
        del record["float32"]["bound"]
        with pytest.raises(bench.RecordSchemaError, match="bound"):
            bench.validate_record(record)

    def test_profile_section_needs_phase_seconds(self):
        record = _valid_record()
        del record["profile"]["phase_seconds"]
        with pytest.raises(bench.RecordSchemaError, match="phase_seconds"):
            bench.validate_record(record)

    def test_config_must_round_trip_as_simrank_config(self):
        record = _valid_record()
        record["config"]["num_workers"] = 4  # not a SimRankConfig field
        with pytest.raises(bench.RecordSchemaError, match="config"):
            bench.validate_record(record)
        record = _valid_record()
        record["config"]["epsilon"] = -1.0  # fails validation
        with pytest.raises(bench.RecordSchemaError, match="config"):
            bench.validate_record(record)

    def test_config_records_the_resolved_run_parameters(self):
        record = _valid_record()
        config = SimRankConfig.from_dict(record["config"])
        assert config.method == "localpush"
        assert config.epsilon == record["epsilon"]
        assert config.decay == record["decay"]
        assert config.workers == record["num_workers"]

    def test_validation_does_not_mutate(self):
        record = _valid_record()
        snapshot = copy.deepcopy(record)
        bench.validate_record(record)
        assert record == snapshot


class TestSmokeRecord:
    """End-to-end: a real (tiny) bench run emits a schema-valid record."""

    def test_smoke_run_produces_valid_record(self):
        record = bench.run(num_nodes=120, average_degree=4.0, epsilon=0.3,
                           decay=0.6, seed=0, smoke=True, num_workers=2)
        assert bench.validate_record(record)
        assert record["within_epsilon"] is True
        core = record["backends"]["core"]
        assert set(record["backends"]) == {"core"}
        assert 0.0 <= core["max_abs_diff_vs_series"] < record["epsilon"]
        assert set(record["executors"]) == {"serial", "thread",
                                            "serial_topk"}
        topk = record["executors"]["serial_topk"]
        assert topk["top_k"] == 32
        assert topk["nnz"] <= 32 * record["num_nodes"]
        assert record["executors"]["thread"]["bit_identical_to_serial"]
        assert record["executors"]["thread"]["num_workers"] == 2
        assert all(sweep["within_bound"]
                   for sweep in record["float32"]["sweeps"])
        assert set(record["profile"]["phase_seconds"]) \
            == {"frontier", "push", "merge", "prune"}
