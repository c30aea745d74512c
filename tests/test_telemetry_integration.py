"""Integration suite: the telemetry handle threaded through every layer.

Each instrumented layer is exercised with a live (enabled) handle and
its spans/counters asserted, *and* with the disabled default asserted
bit-identical to the enabled run — tracing is observability only, it
never changes an answer:

* **engine** — ``localpush_engine(tracer=Tracer([recorder]))`` records
  one ``localpush.<phase>`` span per phase interval, tagged with the
  phase and the round the round state counted;
* **serve** — the service's counters and latency histogram land in the
  handle's registry (``repro_serve_*``), every shared exact round is a
  ``serve.exact_batch`` span, and the scrape renders the operator
  cache's own ``repro_cache_events_total`` — the same numbers as the
  ``/metrics`` ``cache`` section, with telemetry on or off and for every
  service sharing the cache;
* **dynamic** — each repair is a ``dynamic.repair`` span carrying the
  batch size and the repair's push/round/warm-start provenance;
* **experiments** — traced cells embed their versioned span tree in the
  run artefact (``trace`` key) and the store payload, stream to the
  handle's JSONL sink with run-unique span ids, and untraced payloads
  stay byte-identical to the pre-telemetry format;
* **bench** — ``profile_breakdown`` derives the (unchanged) per-phase
  schema from the engine's spans.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from _simrank_fixtures import erdos_renyi as _erdos_renyi
from repro.config import (ExperimentSpec, RunSpec, SimRankConfig,
                          TelemetryConfig)
from repro.dynamic.operator import DynamicOperator
from repro.experiments.engine import execute
from repro.experiments.registry import ExperimentDefinition
from repro.experiments.store import ArtifactStore
from repro.graphs.delta import GraphDelta
from repro.serve import SimRankService
from repro.simrank.cache import get_operator_cache
from repro.simrank.engine import localpush_engine
from repro.simrank.kernels import PHASES
from repro.simrank.topk import simrank_operator
from repro.telemetry import (SpanRecorder, Telemetry, Tracer, load_trace,
                             telemetry_from_config)


@pytest.fixture()
def graph():
    return _erdos_renyi(50, 0.1, seed=3)


def _enabled(tmp_path, **overrides):
    config = TelemetryConfig(enabled=True, **overrides)
    return telemetry_from_config(config)


# --------------------------------------------------------------------- #
# Engine phase spans
# --------------------------------------------------------------------- #
class TestEnginePhaseSpans:
    def test_phase_spans_with_round_attributes(self, graph):
        recorder = SpanRecorder()
        localpush_engine(graph, epsilon=0.1, tracer=Tracer([recorder]))
        spans = recorder.spans()
        names = {span["name"] for span in spans}
        assert names == {f"localpush.{phase}" for phase in PHASES}
        for span in spans:
            attrs = span["attributes"]
            assert span["name"] == f"localpush.{attrs['phase']}"
            assert isinstance(attrs["round"], int) and attrs["round"] >= 0
            assert span["duration"] >= 0.0

    def test_the_round_state_counts_its_rounds(self, graph):
        recorder = SpanRecorder()
        result = localpush_engine(graph, epsilon=0.1,
                                  tracer=Tracer([recorder]))
        spans = recorder.spans()
        rounds = result.num_rounds
        # One push and one merge per round, numbered 0 .. rounds-1.
        for phase in ("push", "merge"):
            assert sorted(span["attributes"]["round"] for span in spans
                          if span["attributes"]["phase"] == phase) \
                == list(range(rounds))
        # Every round opens with a frontier extraction; the terminating
        # one, which finds nothing to push, carries the final count.
        frontier = [span["attributes"]["round"] for span in spans
                    if span["attributes"]["phase"] == "frontier"]
        assert max(frontier) == rounds
        assert all(0 <= span["attributes"]["round"] <= rounds
                   for span in spans)

    def test_profiled_run_is_bit_identical_to_unprofiled(self, graph):
        plain = localpush_engine(graph, epsilon=0.1)
        profiled = localpush_engine(graph, epsilon=0.1,
                                    tracer=Tracer([SpanRecorder()]))
        assert (plain.matrix != profiled.matrix).nnz == 0
        assert plain.num_pushes == profiled.num_pushes


# --------------------------------------------------------------------- #
# Serving layer
# --------------------------------------------------------------------- #
def _warm_cache(graph, tmp_path):
    """A cache dir holding a tighter all-pairs entry (one miss, one store)."""
    cache_dir = str(tmp_path / "operators")
    simrank_operator(graph, SimRankConfig(
        method="localpush", epsilon=0.05, top_k=None, cache_dir=cache_dir))
    return cache_dir


def _non_edge(graph):
    for v in range(1, graph.num_nodes):
        if graph.adjacency[0, v] == 0.0:
            return 0, v
    raise AssertionError("graph is complete")  # pragma: no cover


def _cache_events(text):
    """``{event: count}`` of the scrape's ``repro_cache_events_total``."""
    prefix = 'repro_cache_events_total{event="'
    return {line[len(prefix):].split('"')[0]: int(line.split()[-1])
            for line in text.splitlines() if line.startswith(prefix)}


class TestServeTelemetry:
    def test_counters_land_in_the_handle_registry(self, graph, tmp_path):
        handle = _enabled(tmp_path)
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1),
                                 telemetry=handle)
        service.topk(3, k=5)
        assert service.counters.registry is handle.registry
        queries = handle.registry.counter("repro_serve_queries_total")
        assert queries.value() == 1.0

    def test_exact_batch_span(self, graph, tmp_path):
        handle = _enabled(tmp_path)
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1),
                                 telemetry=handle)
        service.topk_batch([2, 9, 2], k=4)
        spans = [span for span in handle.recorder.spans()
                 if span["name"] == "serve.exact_batch"]
        assert len(spans) == 1
        assert spans[0]["attributes"] == {"batch_size": 2}  # deduplicated

    def test_one_version_rows_span_per_computation(self, graph, tmp_path):
        from repro.graphs.fingerprint import graph_fingerprint

        handle = _enabled(tmp_path)
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1),
                                 telemetry=handle)
        for source in (3, 7, 3):
            service.topk(source, k=5)
        spans = handle.recorder.spans()
        rows = [span for span in spans
                if span["name"] == "serve.version_rows"]
        assert len(rows) == 1
        attrs = rows[0]["attributes"]
        assert attrs["version"] == graph_fingerprint(graph)
        assert attrs["component_size"] == graph.num_nodes  # connected
        assert attrs["pushes"] > 0
        parent = next(span for span in spans
                      if span["span_id"] == rows[0]["parent_id"])
        assert parent["name"] == "serve.exact_batch"

    def test_enabled_answers_match_disabled(self, graph, tmp_path):
        plain = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        traced = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1),
                                telemetry=_enabled(tmp_path))
        assert traced.topk(7, k=5).entries == plain.topk(7, k=5).entries

    def test_disabled_service_records_no_spans(self, graph):
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1))
        service.topk(3, k=5)
        assert service.telemetry.enabled is False
        assert service.telemetry.recorder is None
        # Counters still work (private registry), so /metrics/prometheus
        # is available without --telemetry.
        assert "repro_serve_queries_total 1" in service.prometheus_metrics()

    @pytest.mark.parametrize("enabled", [False, True],
                             ids=["telemetry-off", "telemetry-on"])
    def test_scraped_cache_events_equal_the_metrics_section(
            self, graph, tmp_path, enabled):
        cache_dir = _warm_cache(graph, tmp_path)
        service = SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1, cache_dir=cache_dir),
            telemetry=_enabled(tmp_path) if enabled else None)
        service.apply_update([GraphDelta("insert", *_non_edge(graph))])
        service.close()  # the repaired snapshot is stored
        text = service.prometheus_metrics()
        assert 'repro_cache_events_total{event="store"} 2\n' in text
        section = service.metrics()["cache"]
        assert section["stores"] == 2
        scraped = _cache_events(text)
        assert section == {
            "hits": scraped["exact_hit"] + scraped["reuse_hit"],
            "exact_hits": scraped["exact_hit"],
            "reuse_hits": scraped["reuse_hit"],
            "misses": scraped["miss"],
            "stores": scraped["store"]}

    def test_services_sharing_a_cache_scrape_every_store(self, graph,
                                                         tmp_path):
        cache_dir = _warm_cache(graph, tmp_path)
        services = [SimRankService(
            graph, simrank=SimRankConfig(epsilon=0.1, cache_dir=cache_dir),
            telemetry=_enabled(tmp_path)) for _ in range(2)]
        assert services[0].telemetry is not services[1].telemetry
        batch = [GraphDelta("insert", *_non_edge(graph))]
        for service in services:
            service.apply_update(batch)
            service.close()
        for service in services:
            assert _cache_events(service.prometheus_metrics())["store"] \
                == service.metrics()["cache"]["stores"] == 3
        assert get_operator_cache(cache_dir).stats()["stores"] == 3

    def test_prometheus_scrape_includes_gauges(self, graph, tmp_path):
        handle = _enabled(tmp_path)
        service = SimRankService(graph, simrank=SimRankConfig(epsilon=0.1),
                                 telemetry=handle)
        service.topk(3, k=5)
        text = service.prometheus_metrics()
        assert "# TYPE repro_serve_queries_total counter" in text
        assert "repro_serve_queries_total 1" in text
        assert "# TYPE repro_serve_latency_seconds histogram" in text
        assert 'repro_serve_latency_seconds_count{path="exact"} 1' in text
        assert f"repro_serve_graph_nodes {graph.num_nodes}" in text
        assert "repro_cache_events_total" not in text  # no cache configured


# --------------------------------------------------------------------- #
# Dynamic repair spans
# --------------------------------------------------------------------- #
class TestDynamicTelemetry:
    def test_repair_span_carries_provenance(self, graph, tmp_path):
        handle = _enabled(tmp_path)
        operator = DynamicOperator(graph, simrank=SimRankConfig(epsilon=0.1),
                                   telemetry=handle)
        u, v = _non_edge(graph)
        result = operator.apply([GraphDelta("insert", u, v)])
        spans = [span for span in handle.recorder.spans()
                 if span["name"] == "dynamic.repair"]
        assert len(spans) == 1
        attrs = spans[0]["attributes"]
        assert attrs["batch_size"] == 1
        assert attrs["num_pushes"] == result.num_pushes
        assert attrs["num_rounds"] == result.num_rounds
        assert attrs["warm_start"] == result.warm_start

    def test_snapshot_write_span_carries_provenance(self, graph, tmp_path,
                                                    monkeypatch):
        handle = _enabled(tmp_path)
        cache = get_operator_cache(tmp_path / "operators")
        operator = DynamicOperator(graph, simrank=SimRankConfig(epsilon=0.1),
                                   cache=cache, telemetry=handle)
        u, v = _non_edge(graph)
        operator.apply([GraphDelta("insert", u, v)])
        assert operator.flush() is None

        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cache, "store", full_disk)
        operator.apply([GraphDelta("delete", u, v)])
        error = operator.flush()
        spans = [span for span in handle.recorder.spans()
                 if span["name"] == "dynamic.snapshot_write"]
        assert [span["parent_id"] for span in spans] == [None, None]
        assert [span["attributes"] for span in spans] == [
            {"superseded": 0}, {"superseded": 0, "error": error}]
        assert "No space left on device" in error

    def test_traced_repair_is_bit_identical(self, graph):
        u, v = _non_edge(graph)
        batch = [GraphDelta("insert", u, v)]
        plain = DynamicOperator(graph, simrank=SimRankConfig(epsilon=0.1))
        plain.apply(batch)
        handle = Telemetry(recorder=SpanRecorder())
        traced = DynamicOperator(graph, simrank=SimRankConfig(epsilon=0.1),
                                 telemetry=handle)
        traced.apply(batch)
        assert (plain.operator().matrix != traced.operator().matrix).nnz == 0


# --------------------------------------------------------------------- #
# Experiment engine traces
# --------------------------------------------------------------------- #
def _toy_cell(cell):
    return {"index": cell.index, "dataset": cell.spec.dataset}


def _toy_reduce(spec, outcomes):
    return [outcome.record for outcome in outcomes]


def _toy_spec():
    return ExperimentSpec(
        name="demo", base=RunSpec(model="sigma", dataset="texas", repeats=1),
        grid=({"dataset": "texas"}, {"dataset": "cora"}))


_TOY = ExperimentDefinition(name="demo", title="Demo", builder=_toy_spec,
                            reduce=_toy_reduce, cell=_toy_cell)


class TestExperimentTraces:
    def test_traced_cells_embed_span_trees(self, tmp_path):
        trace_path = tmp_path / "run-trace.jsonl"
        handle = telemetry_from_config(TelemetryConfig(
            enabled=True, trace_path=str(trace_path)))
        run = execute(_toy_spec(), definition=_TOY, telemetry=handle)
        handle.close()
        assert all(outcome.trace is not None for outcome in run.outcomes)
        for outcome in run.outcomes:
            names = [span["name"] for span in outcome.trace["spans"]]
            assert "experiment.cell" in names
            assert "experiment.cell.run" in names
            roots = [span for span in outcome.trace["spans"]
                     if span["parent_id"] is None]
            assert [span["name"] for span in roots] == ["experiment.cell"]
            assert roots[0]["attributes"]["experiment"] == "demo"
        # The run record carries the trees under the cells' "trace" key.
        record = run.to_record()
        assert all(cell["trace"] is not None for cell in record["cells"])
        # The run-level JSONL has run-unique ids with resolvable parents.
        spans = load_trace(trace_path)
        ids = [span["span_id"] for span in spans]
        assert len(set(ids)) == len(ids) == 4  # 2 cells × 2 spans
        known = set(ids)
        assert all(span["parent_id"] in known for span in spans
                   if span["parent_id"] is not None)

    def test_untraced_run_has_no_trace_anywhere(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        run = execute(_toy_spec(), definition=_TOY, store=store)
        assert all(outcome.trace is None for outcome in run.outcomes)
        for outcome in run.outcomes:
            payload = json.loads(store.cell_path(outcome.key).read_text())
            assert "trace" not in payload  # byte-identical legacy payload

    def test_traced_store_payload_carries_the_tree(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        handle = telemetry_from_config(TelemetryConfig(enabled=True))
        run = execute(_toy_spec(), definition=_TOY, store=store,
                      telemetry=handle)
        outcome = run.outcomes[0]
        payload = json.loads(store.cell_path(outcome.key).read_text())
        assert payload["trace"]["spans"]
        assert payload["record"] == outcome.record

    def test_tracing_never_invalidates_stored_cells(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        execute(_toy_spec(), definition=_TOY, store=store)
        handle = telemetry_from_config(TelemetryConfig(enabled=True))
        rerun = execute(_toy_spec(), definition=_TOY, store=store,
                        telemetry=handle)
        # Same keys: every cell resumes from the untraced run.
        assert rerun.cells_resumed == 2 and rerun.cells_executed == 0


# --------------------------------------------------------------------- #
# Benchmark profile on spans
# --------------------------------------------------------------------- #
class TestBenchProfile:
    def test_profile_breakdown_schema_unchanged(self):
        bench_path = (Path(__file__).resolve().parent.parent / "benchmarks"
                      / "bench_localpush.py")
        spec = importlib.util.spec_from_file_location("bench_lp_telemetry",
                                                      bench_path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        graph = _erdos_renyi(40, 0.1, seed=1)
        section = bench.profile_breakdown(graph, epsilon=0.1, decay=0.6,
                                          show=False)
        assert set(section["phase_seconds"]) == set(PHASES)
        assert all(isinstance(value, float) and value >= 0.0
                   for value in section["phase_seconds"].values())
