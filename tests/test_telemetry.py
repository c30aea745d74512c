"""Unit suite for the :mod:`repro.telemetry` subsystem.

Covers the three halves on their own terms:

* **metrics** — typed instruments under one registry lock: idempotent
  registration, kind clashes, name/label validation, labelled series,
  histogram bucket accumulation and the snapshot shape;
* **tracing** — hierarchical spans (per-thread stacks), the bounded
  thread-safe recorder, the JSONL sink round-trip through
  :func:`repro.telemetry.load_trace`, and the no-op default's inertness;
* **exposition + summary + CLI** — the deterministic Prometheus text
  rendering (label escaping, integer formatting, histogram expansion),
  the versioned JSON twin, the pure summary functions behind
  ``repro-trace``, and the CLI's exit codes.

Plus the handle layer: ``TelemetryConfig`` validation/CLI bridging and
the ``Telemetry``/``DISABLED``/``resolve_telemetry`` contract every
instrumented layer relies on.
"""

import argparse
import json
import threading

import pytest

from repro.config import TelemetryConfig
from repro.errors import ConfigError, TelemetryError
from repro.telemetry import (DEFAULT_BUCKETS, DISABLED,
                             METRICS_FORMAT_VERSION, NULL_TRACER,
                             TRACE_FORMAT_VERSION, JsonlSpanSink,
                             MetricsRegistry, SpanRecorder, Telemetry, Tracer,
                             aggregate_by_name, format_summary, json_snapshot,
                             load_trace, phase_seconds, prometheus_text,
                             resolve_telemetry, self_times,
                             telemetry_from_config, top_spans_by_self_time)
from repro.telemetry.__main__ import main as trace_main
from repro.telemetry.summary import build_tree
from repro.telemetry.tracing import NULL_SPAN


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_test_total", "help text")
        counter.inc()
        counter.inc(2.5)
        counter.inc(1.0, path="exact")
        assert counter.value() == 3.5
        assert counter.value(path="exact") == 1.0
        assert counter.value(path="cached") == 0.0

    def test_counter_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("repro_test_total")
        with pytest.raises(TelemetryError, match="cannot decrease"):
            counter.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("repro_test_gauge")
        gauge.set(5.0)
        gauge.inc(-2.0)
        assert gauge.value() == 3.0
        gauge.set(0.25, path="exact")
        assert gauge.value(path="exact") == 0.25

    def test_histogram_cumulative_buckets(self):
        hist = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 5.0, 50.0):
            hist.observe(value)
        series = hist.series()[()]
        assert series.bucket_counts == [1, 2, 3]  # cumulative; +Inf = count
        assert series.count == 4
        assert series.sum == pytest.approx(55.55)

    def test_histogram_quantile_interpolates_within_buckets(self):
        hist = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.5, 3.0):
            hist.observe(value)  # cumulative counts [1, 3, 4]
        # Rank q·4 inside its bucket, linear from the lower bound.
        assert hist.quantile(0.25) == 1.0
        assert hist.quantile(0.5) == 1.5
        assert hist.quantile(0.875) == 3.0
        assert hist.quantile(1.0) == 4.0
        assert hist.quantile(0.0) == 0.0  # first non-empty bucket's floor

    def test_histogram_quantile_of_the_inf_bucket_is_the_top_bound(self):
        hist = MetricsRegistry().histogram(
            "repro_test_seconds", buckets=(1.0, 2.0))
        hist.observe(0.5, path="a")
        hist.observe(30.0, path="a")
        assert hist.quantile(0.25, path="a") == 0.5
        assert hist.quantile(0.99, path="a") == 2.0

    def test_histogram_quantile_of_an_empty_series_is_none(self):
        hist = MetricsRegistry().histogram("repro_test_seconds")
        assert hist.quantile(0.5) is None
        hist.observe(0.01, path="exact")
        assert hist.quantile(0.5, path="cached") is None
        with pytest.raises(TelemetryError, match="quantile"):
            hist.quantile(1.5, path="exact")

    def test_default_buckets_are_the_prometheus_client_ladder(self):
        assert DEFAULT_BUCKETS == (0.005, 0.01, 0.025, 0.05, 0.075, 0.1,
                                   0.25, 0.5, 0.75, 1.0, 2.5, 5.0, 7.5,
                                   10.0)
        hist = MetricsRegistry().histogram("repro_test_seconds")
        assert hist.buckets == DEFAULT_BUCKETS

    def test_histogram_buckets_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="strictly increasing"):
            registry.histogram("repro_bad_seconds", buckets=(1.0, 1.0))
        with pytest.raises(TelemetryError, match="strictly increasing"):
            registry.histogram("repro_bad2_seconds", buckets=())

    def test_registration_is_idempotent_per_name(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_test_total", "first help")
        second = registry.counter("repro_test_total", "second help")
        assert first is second
        assert second.help == "first help"  # the original wins

    def test_kind_clash_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(TelemetryError, match="already registered"):
            registry.gauge("repro_test_total")

    def test_invalid_names_and_labels_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TelemetryError, match="invalid metric name"):
            registry.counter("0starts_with_digit")
        with pytest.raises(TelemetryError, match="invalid metric name"):
            registry.counter("has spaces")
        counter = registry.counter("repro_test_total")
        with pytest.raises(TelemetryError, match="invalid label name"):
            counter.inc(1.0, **{"bad-label": "x"})

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", "a").inc(2.0, path="exact")
        registry.gauge("repro_b").set(1.5)
        registry.histogram("repro_c_seconds", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert set(snap) == {"repro_a_total", "repro_b", "repro_c_seconds"}
        assert snap["repro_a_total"]["kind"] == "counter"
        assert snap["repro_a_total"]["series"] == [
            {"labels": {"path": "exact"}, "value": 2.0}]
        assert snap["repro_c_seconds"]["series"][0]["bucket_counts"] == [1]
        json.dumps(snap)  # JSON-serialisable, by contract

    def test_concurrent_increments_are_atomic(self):
        counter = MetricsRegistry().counter("repro_test_total")
        threads = [threading.Thread(
            target=lambda: [counter.inc() for _ in range(1000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value() == 8000  # no lost updates


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #
class TestTracer:
    def test_span_hierarchy_and_attributes(self):
        recorder = SpanRecorder()
        tracer = Tracer([recorder])
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                inner.set("n", 3)
        spans = {span["name"]: span for span in recorder.spans()}
        assert set(spans) == {"outer", "inner"}
        assert spans["outer"]["parent_id"] is None
        assert spans["inner"]["parent_id"] == spans["outer"]["span_id"]
        assert spans["outer"]["attributes"] == {"kind": "test"}
        assert spans["inner"]["attributes"] == {"n": 3}
        assert spans["inner"]["duration"] >= 0.0
        # Children complete (and record) before their parents.
        assert [s["name"] for s in recorder.spans()] == ["inner", "outer"]

    def test_sibling_spans_share_a_parent(self):
        recorder = SpanRecorder()
        tracer = Tracer([recorder])
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {span["name"]: span for span in recorder.spans()}
        assert spans["a"]["parent_id"] == spans["root"]["span_id"]
        assert spans["b"]["parent_id"] == spans["root"]["span_id"]

    def test_cross_thread_spans_are_new_roots(self):
        recorder = SpanRecorder()
        tracer = Tracer([recorder])

        def worker():
            with tracer.span("threaded"):
                pass

        with tracer.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        spans = {span["name"]: span for span in recorder.spans()}
        assert spans["threaded"]["parent_id"] is None  # honest for pools

    def test_recorder_bounds_and_drop_accounting(self):
        recorder = SpanRecorder(max_spans=2)
        tracer = Tracer([recorder])
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert len(recorder.spans()) == 2
        assert recorder.dropped == 3
        assert recorder.tree()["dropped"] == 3
        recorder.clear()
        assert recorder.spans() == [] and recorder.dropped == 0

    def test_recorder_rejects_nonpositive_bound(self):
        with pytest.raises(TelemetryError, match="max_spans"):
            SpanRecorder(max_spans=0)

    def test_tree_payload_is_versioned_and_flat(self):
        recorder = SpanRecorder()
        tracer = Tracer([recorder])
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        tree = recorder.tree()
        assert tree["version"] == TRACE_FORMAT_VERSION
        assert {span["name"] for span in tree["spans"]} == {"root", "child"}
        json.dumps(tree)  # artefact-embeddable

    def test_jsonl_sink_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSpanSink(path)
        tracer = Tracer([sink])
        with tracer.span("outer"):
            with tracer.span("inner", n=1):
                pass
        sink.close()
        spans = load_trace(path)
        assert [span["name"] for span in spans] == ["inner", "outer"]
        assert spans[0]["attributes"] == {"n": 1}
        raw = path.read_text().splitlines()
        assert all(json.loads(line)["v"] == TRACE_FORMAT_VERSION
                   for line in raw)

    def test_load_trace_rejects_malformed_lines(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(TelemetryError, match="not valid JSON"):
            load_trace(bad)
        bad.write_text('{"v": 999, "name": "x", "span_id": 1}\n')
        with pytest.raises(TelemetryError, match="unsupported trace format"):
            load_trace(bad)
        bad.write_text('{"v": 1, "name": "x"}\n')
        with pytest.raises(TelemetryError, match="missing"):
            load_trace(bad)
        bad.write_text('[1, 2]\n')
        with pytest.raises(TelemetryError, match="expected a JSON object"):
            load_trace(bad)

    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("anything", n=1)
        assert span is NULL_SPAN  # one shared instance, no allocation
        with span as entered:
            entered.set("k", "v")  # all no-ops
        assert NULL_TRACER.enabled is False

    def test_concurrent_recording_loses_nothing(self):
        recorder = SpanRecorder(max_spans=10_000)
        tracer = Tracer([recorder])

        def worker():
            for _ in range(100):
                with tracer.span("w"):
                    pass

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = recorder.spans()
        assert len(spans) == 800
        ids = [span["span_id"] for span in spans]
        assert len(set(ids)) == 800  # unique ids across threads


# --------------------------------------------------------------------- #
# Exposition
# --------------------------------------------------------------------- #
class TestExposition:
    def test_prometheus_text_snapshot(self):
        """Pin the rendering byte for byte — no #-comment drift."""
        registry = MetricsRegistry()
        registry.counter("repro_q_total", "Total queries.").inc(9)
        gauge = registry.gauge("repro_lat", "Latency.")
        gauge.set(0.5, path="exact", quantile="p50")
        assert prometheus_text(registry) == (
            "# HELP repro_q_total Total queries.\n"
            "# TYPE repro_q_total counter\n"
            "repro_q_total 9\n"
            "# HELP repro_lat Latency.\n"
            "# TYPE repro_lat gauge\n"
            'repro_lat{path="exact",quantile="p50"} 0.5\n')

    def test_integer_values_render_without_decimal(self):
        registry = MetricsRegistry()
        registry.counter("repro_n_total").inc(3.0)
        assert "repro_n_total 3\n" in prometheus_text(registry)

    def test_histogram_expansion(self):
        registry = MetricsRegistry()
        hist = registry.histogram("repro_h_seconds", "H.", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(5.0)
        text = prometheus_text(registry)
        assert 'repro_h_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_h_seconds_bucket{le="1"} 1' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_h_seconds_sum 5.05" in text
        assert "repro_h_seconds_count 2" in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("repro_e_total").inc(
            1.0, path='a"b\\c\nd')
        text = prometheus_text(registry)
        assert r'path="a\"b\\c\nd"' in text
        # The escaped text round-trips: unescape recovers the original.
        escaped = text.split('path="')[1].split('"}')[0]
        unescaped = (escaped.replace(r"\\", "\x00").replace(r"\n", "\n")
                     .replace(r'\"', '"').replace("\x00", "\\"))
        assert unescaped == 'a"b\\c\nd'

    def test_empty_registry_renders_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_json_snapshot_versioned(self):
        registry = MetricsRegistry()
        registry.counter("repro_q_total", "Q.").inc(2)
        snap = json_snapshot(registry)
        assert snap["version"] == METRICS_FORMAT_VERSION
        assert snap["metrics"]["repro_q_total"]["series"] == [
            {"labels": {}, "value": 2.0}]


# --------------------------------------------------------------------- #
# Summary + CLI
# --------------------------------------------------------------------- #
def _span(name, span_id, parent_id=None, duration=1.0, **attributes):
    return {"name": name, "span_id": span_id, "parent_id": parent_id,
            "start": 0.0, "duration": duration, "attributes": attributes}


class TestSummary:
    def test_build_tree_groups_children_and_orphans(self):
        spans = [_span("root", 1), _span("child", 2, parent_id=1),
                 _span("orphan", 3, parent_id=99)]
        tree = build_tree(spans)
        assert [s["name"] for s in tree[None]] == ["root", "orphan"]
        assert [s["name"] for s in tree[1]] == ["child"]

    def test_self_times_subtract_direct_children(self):
        spans = [_span("root", 1, duration=3.0),
                 _span("a", 2, parent_id=1, duration=1.0),
                 _span("b", 3, parent_id=1, duration=1.5)]
        selves = self_times(spans)
        assert selves[1] == pytest.approx(0.5)
        assert selves[2] == 1.0 and selves[3] == 1.5

    def test_self_time_floors_at_zero(self):
        # Overlapping children can sum past the parent; never negative.
        spans = [_span("root", 1, duration=1.0),
                 _span("a", 2, parent_id=1, duration=2.0)]
        assert self_times(spans)[1] == 0.0

    def test_aggregate_by_name(self):
        spans = [_span("push", 1, duration=1.0),
                 _span("push", 2, duration=2.0),
                 _span("merge", 3, duration=0.5)]
        agg = aggregate_by_name(spans)
        assert agg["push"] == {"count": 2.0, "total_seconds": 3.0,
                               "self_seconds": 3.0}
        assert agg["merge"]["count"] == 1.0

    def test_top_spans_ranking_is_deterministic(self):
        spans = [_span("a", 2, duration=1.0), _span("b", 1, duration=1.0),
                 _span("c", 3, duration=5.0)]
        top = top_spans_by_self_time(spans, limit=2)
        assert [span["name"] for span, _ in top] == ["c", "b"]  # ties → id

    def test_phase_seconds_filters_by_prefix(self):
        spans = [_span("localpush.push", 1, duration=1.0),
                 _span("localpush.push", 2, duration=0.5),
                 _span("localpush.merge", 3, duration=0.25),
                 _span("serve.exact_batch", 4, duration=9.0)]
        assert phase_seconds(spans) == {"push": 1.5, "merge": 0.25}

    def test_format_summary_sections(self):
        spans = [_span("localpush.push", 1, duration=1.0, round=0)]
        report = format_summary(spans)
        assert "spans: 1 (1 roots)" in report
        assert "localpush.push" in report
        assert "engine phases (localpush.*):" in report
        assert "top 1 spans by self time:" in report

    def test_cli_summarises_a_trace(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        sink = JsonlSpanSink(path)
        tracer = Tracer([sink])
        with tracer.span("localpush.push", phase="push"):
            pass
        sink.close()
        assert trace_main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "localpush.push" in out

    def test_cli_has_no_phase_prefix_option(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit) as exit_info:
            trace_main([str(path), "--phase-prefix", "serve"])
        assert exit_info.value.code == 2

    def test_cli_error_exits(self, tmp_path, capsys):
        assert trace_main([str(tmp_path / "missing.jsonl")]) == 2
        bad = tmp_path / "bad.jsonl"
        bad.write_text("nope\n")
        assert trace_main([str(bad)]) == 2
        good = tmp_path / "good.jsonl"
        good.write_text("")
        assert trace_main([str(good), "--limit", "0"]) == 2


# --------------------------------------------------------------------- #
# Config + handle
# --------------------------------------------------------------------- #
class TestTelemetryConfig:
    def test_defaults_are_off(self):
        config = TelemetryConfig()
        assert config.enabled is False
        assert config.trace_path is None
        assert config.max_recorded_spans == 4096

    def test_validation(self):
        with pytest.raises(ConfigError):
            TelemetryConfig(max_recorded_spans=0)
        with pytest.raises(ConfigError):
            TelemetryConfig(trace_path=123)

    def test_roundtrip_and_overrides(self):
        config = TelemetryConfig(enabled=True, trace_path="t.jsonl")
        assert TelemetryConfig.from_dict(config.to_dict()) == config
        assert config.with_overrides(enabled=False).enabled is False
        with pytest.raises(ConfigError):
            config.with_overrides(nope=1)

    def test_from_cli_args_bridges_the_flags(self):
        args = argparse.Namespace(telemetry=False, trace_path=None,
                                  max_recorded_spans=None)
        assert TelemetryConfig.from_cli_args(args).enabled is False
        args.telemetry = True
        assert TelemetryConfig.from_cli_args(args).enabled is True
        # A trace path implies enabled even without the switch.
        args.telemetry = False
        args.trace_path = "out.jsonl"
        config = TelemetryConfig.from_cli_args(args)
        assert config.enabled is True and config.trace_path == "out.jsonl"


class TestTelemetryHandle:
    def test_disabled_is_the_none_default(self):
        assert resolve_telemetry(None) is DISABLED
        assert DISABLED.enabled is False
        assert DISABLED.tracer is NULL_TRACER
        DISABLED.close()  # no sink: a no-op

    def test_explicit_handle_passes_through(self):
        handle = Telemetry()
        assert resolve_telemetry(handle) is handle
        assert handle.enabled is True
        assert handle.tracer.enabled is True

    def test_from_config_disabled(self):
        assert telemetry_from_config(None) is DISABLED
        assert telemetry_from_config(TelemetryConfig()) is DISABLED

    def test_from_config_enabled_records_and_sinks(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        config = TelemetryConfig(enabled=True, trace_path=str(path),
                                 max_recorded_spans=7)
        handle = telemetry_from_config(config)
        assert handle.enabled is True
        assert handle.recorder.max_spans == 7
        with handle.tracer.span("x"):
            pass
        handle.close()
        assert [s["name"] for s in handle.recorder.spans()] == ["x"]
        assert [s["name"] for s in load_trace(path)] == ["x"]

    def test_handles_do_not_share_registries(self):
        a, b = Telemetry(), Telemetry()
        a.registry.counter("repro_x_total").inc()
        assert b.registry.counter("repro_x_total").value() == 0.0
        assert a.registry is not DISABLED.registry
