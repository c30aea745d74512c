"""Summarise recorded span trees and JSONL trace files.

The analysis half of the tracer: pure functions over the flat span-dict
lists produced by :class:`repro.telemetry.tracing.SpanRecorder` and the
JSONL sink.  ``repro-trace`` (:mod:`repro.telemetry.__main__`) prints
these summaries; ``benchmarks/bench_localpush.py`` derives its
``profile`` record section from :func:`phase_seconds`.  The LocalPush
round kernel opens one ``localpush.<phase>`` span per phase interval
(:data:`PHASE_PREFIX` is the fixed name prefix), so these spans are the
only source of the phase breakdown.

*Self time* is a span's duration minus the summed durations of its
direct children — the time it spent in its own code, the quantity worth
ranking when hunting a hot phase.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from repro.errors import TelemetryError
from repro.telemetry.tracing import TRACE_FORMAT_VERSION

SpanDict = Dict[str, object]

#: Name prefix of the engine phase spans: ``localpush.<phase>``.
PHASE_PREFIX = "localpush"


def load_trace(path: str | os.PathLike[str]) -> List[SpanDict]:
    """Parse a JSONL trace file into span dicts.

    Validates per line: JSON object, a compatible ``"v"`` format stamp
    when present, and the required span fields.  A malformed line is a
    :class:`repro.errors.TelemetryError` naming its line number.
    """
    spans: List[SpanDict] = []
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise TelemetryError(
                    f"{path}:{lineno}: not valid JSON ({error})") from None
            if not isinstance(payload, dict):
                raise TelemetryError(
                    f"{path}:{lineno}: expected a JSON object, "
                    f"got {type(payload).__name__}")
            version = payload.pop("v", TRACE_FORMAT_VERSION)
            if version != TRACE_FORMAT_VERSION:
                raise TelemetryError(
                    f"{path}:{lineno}: unsupported trace format version "
                    f"{version!r} (this build reads "
                    f"{TRACE_FORMAT_VERSION})")
            if "name" not in payload or "span_id" not in payload:
                raise TelemetryError(
                    f"{path}:{lineno}: span line missing 'name'/'span_id'")
            spans.append(payload)
    return spans


def _duration(span: SpanDict) -> float:
    duration = span.get("duration")
    return float(duration) if isinstance(duration, (int, float)) else 0.0


def build_tree(spans: List[SpanDict]) -> Dict[Optional[int], List[SpanDict]]:
    """Children grouped by ``parent_id`` (``None`` keys the roots).

    Parent links pointing at span ids absent from ``spans`` (e.g. a
    truncated recorder) group under ``None`` too — orphans surface as
    roots rather than vanishing.
    """
    known = {span.get("span_id") for span in spans}
    children: Dict[Optional[int], List[SpanDict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent not in known:
            parent = None
        children.setdefault(
            parent if isinstance(parent, int) else None, []).append(span)
    return children


def self_times(spans: List[SpanDict]) -> Dict[int, float]:
    """Per-span self time: duration minus direct children's durations."""
    child_sums: Dict[int, float] = {}
    known = {span.get("span_id") for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if isinstance(parent, int) and parent in known:
            child_sums[parent] = child_sums.get(parent, 0.0) + _duration(span)
    out: Dict[int, float] = {}
    for span in spans:
        span_id = span.get("span_id")
        if isinstance(span_id, int):
            out[span_id] = max(
                0.0, _duration(span) - child_sums.get(span_id, 0.0))
    return out


def aggregate_by_name(spans: List[SpanDict]
                      ) -> Dict[str, Dict[str, float]]:
    """Per-name aggregates: count, total seconds, self seconds."""
    selves = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for span in spans:
        name = str(span.get("name"))
        entry = out.setdefault(
            name, {"count": 0.0, "total_seconds": 0.0, "self_seconds": 0.0})
        entry["count"] += 1.0
        entry["total_seconds"] += _duration(span)
        span_id = span.get("span_id")
        if isinstance(span_id, int):
            entry["self_seconds"] += selves.get(span_id, 0.0)
    return out


def top_spans_by_self_time(spans: List[SpanDict], limit: int = 10
                           ) -> List[Tuple[SpanDict, float]]:
    """The ``limit`` spans with the largest self time, descending.

    Ties break toward the smaller ``span_id`` so the ranking is
    deterministic for any input order.
    """
    selves = self_times(spans)

    def key(span: SpanDict) -> Tuple[float, int]:
        span_id = span.get("span_id")
        sid = span_id if isinstance(span_id, int) else 0
        return (-selves.get(sid, 0.0), sid)

    ranked = sorted((span for span in spans
                     if isinstance(span.get("span_id"), int)), key=key)
    out: List[Tuple[SpanDict, float]] = []
    for span in ranked[:limit]:
        span_id = span.get("span_id")
        assert isinstance(span_id, int)
        out.append((span, selves.get(span_id, 0.0)))
    return out


def phase_seconds(spans: List[SpanDict]) -> Dict[str, float]:
    """Summed duration per engine phase (``localpush.<phase>`` spans).

    The source of the benchmark's ``profile`` record section and of the
    ``repro-trace`` phase table.
    """
    out: Dict[str, float] = {}
    marker = PHASE_PREFIX + "."
    for span in spans:
        name = str(span.get("name"))
        if not name.startswith(marker):
            continue
        phase = name[len(marker):]
        out[phase] = out.get(phase, 0.0) + _duration(span)
    return out


def format_summary(spans: List[SpanDict], *, limit: int = 10) -> str:
    """The human-readable report ``repro-trace`` prints."""
    lines: List[str] = []
    total = sum(_duration(span) for span in spans)
    roots = build_tree(spans).get(None, [])
    lines.append(f"spans: {len(spans)} ({len(roots)} roots), "
                 f"summed duration {total:.4f}s")

    aggregates = aggregate_by_name(spans)
    if aggregates:
        lines.append("")
        lines.append(f"{'name':<32} {'count':>7} {'total_s':>10} "
                     f"{'self_s':>10}")
        ranked_names = sorted(aggregates.items(),
                              key=lambda item: (-item[1]["self_seconds"],
                                                item[0]))
        for name, entry in ranked_names:
            lines.append(f"{name:<32} {int(entry['count']):>7} "
                         f"{entry['total_seconds']:>10.4f} "
                         f"{entry['self_seconds']:>10.4f}")

    phases = phase_seconds(spans)
    if phases:
        lines.append("")
        lines.append(f"engine phases ({PHASE_PREFIX}.*):")
        for phase, seconds in sorted(phases.items(),
                                     key=lambda item: (-item[1], item[0])):
            share = seconds / total if total > 0 else 0.0
            lines.append(f"  {phase:>10}: {seconds:8.4f}s ({share:5.1%})")

    top = top_spans_by_self_time(spans, limit=limit)
    if top:
        lines.append("")
        lines.append(f"top {len(top)} spans by self time:")
        for span, self_seconds in top:
            attrs = span.get("attributes")
            attr_note = f" {attrs}" if attrs else ""
            lines.append(f"  {self_seconds:8.4f}s {span.get('name')}"
                         f" (span {span.get('span_id')}){attr_note}")
    return "\n".join(lines)


__all__ = ["load_trace", "build_tree", "self_times", "aggregate_by_name",
           "top_spans_by_self_time", "phase_seconds", "format_summary",
           "SpanDict", "PHASE_PREFIX"]
