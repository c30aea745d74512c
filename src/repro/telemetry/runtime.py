"""The injectable telemetry handle.

:class:`Telemetry` bundles the two halves of the subsystem — a
:class:`repro.telemetry.metrics.MetricsRegistry` and a
:class:`repro.telemetry.tracing.Tracer` — into the single object the
instrumented layers accept.  The contract every layer follows:

* the parameter defaults to ``None`` and resolves to :data:`DISABLED`
  (a no-op tracer, an untouched registry), so the default path does no
  telemetry work beyond an ``is None`` check / an inert context
  manager — the bit-identical R3 guarantee and the perf gate are
  untouched;
* with an enabled handle, spans land in the handle's in-memory recorder
  and (when configured) its JSONL sink, and the service counters land
  in its registry.

Always-on counts do not depend on the handle: the service counters and
latency histogram use the handle's registry when enabled and a private
one otherwise, and the operator cache counts on a registry of its own.
The LocalPush engine takes a bare :class:`repro.telemetry.tracing.Tracer`
(``localpush_engine(tracer=)``) rather than a handle.

:func:`telemetry_from_config` builds a handle from the frozen
:class:`repro.config.TelemetryConfig` (the CLI bridge's output).
"""

from __future__ import annotations

from typing import Optional

from repro.config import TelemetryConfig
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import (NULL_TRACER, JsonlSpanSink, SpanRecorder,
                                     Tracer)


class Telemetry:
    """One registry + one tracer: the handle the hot layers accept."""

    def __init__(self, *, registry: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 recorder: Optional[SpanRecorder] = None,
                 sink: Optional[JsonlSpanSink] = None,
                 enabled: bool = True) -> None:
        self.enabled = enabled
        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = recorder
        self.sink = sink
        if tracer is None:
            if enabled:
                recorders = [r for r in (recorder, sink) if r is not None]
                tracer = Tracer(recorders)
            else:
                tracer = NULL_TRACER
        self.tracer = tracer

    def close(self) -> None:
        """Flush and close the JSONL sink (no-op without one)."""
        if self.sink is not None:
            self.sink.close()


#: The shared default-off handle: inert tracer, never-written registry.
DISABLED = Telemetry(enabled=False)


def resolve_telemetry(telemetry: Optional[Telemetry]) -> Telemetry:
    """The idiom every instrumented layer uses for its default."""
    return telemetry if telemetry is not None else DISABLED


def telemetry_from_config(config: Optional[TelemetryConfig]) -> Telemetry:
    """Build a handle from the frozen config (:data:`DISABLED` when off)."""
    if config is None or not config.enabled:
        return DISABLED
    recorder = SpanRecorder(max_spans=config.max_recorded_spans)
    sink = (JsonlSpanSink(config.trace_path)
            if config.trace_path is not None else None)
    return Telemetry(recorder=recorder, sink=sink)


__all__ = ["Telemetry", "DISABLED", "resolve_telemetry",
           "telemetry_from_config"]
