"""Hierarchical trace spans: tracer, in-memory recorder, JSONL sink.

A :class:`Span` is one timed operation: a name, a parent, a start
instant, a duration and structured attributes.  Spans are produced by a
:class:`Tracer` as context managers::

    with tracer.span("experiment.cell", index=3) as span:
        record = run_cell()
        span.set("cached", False)

Hierarchy is implicit: each thread keeps its own active-span stack, so a
span opened while another is active becomes its child (per thread —
cross-thread work starts a new root, which is the honest answer for a
thread pool).

**Clock discipline (R3).** Spans read only the monotonic
``time.perf_counter`` clock — never the wall clock — so this module can
sit inside the determinism lint scope alongside the engines it
instruments: a span's timestamps are observability payload and cannot
order or influence any bit-identical computation.

**The no-op default.** :data:`NULL_TRACER` is a shared
:class:`NullTracer` whose ``span()`` returns one preallocated inert
context manager: entering it is two attribute lookups and no allocation,
which is the overhead guarantee the perf gate's telemetry microbenchmark
(``benchmarks/check_telemetry_overhead.py``) asserts.  Every
instrumented layer defaults to it.

**Outputs.** Finished spans go to the tracer's recorders, fixed at
construction: the thread-safe :class:`SpanRecorder` keeps them in memory
(bounded) and reconstructs trees; :class:`JsonlSpanSink` appends one
JSON object per line to a file, the ``repro-trace`` CLI's input format
(:data:`TRACE_FORMAT_VERSION` is stamped on every line).

**Spans are the only per-operation timer.** A duration is measured by
entering and leaving a span at its call site — the LocalPush round
kernel opens its ``localpush.<phase>`` spans on the tracer it is
handed, as the service and the repair loop open theirs — so traces,
``repro-trace`` and the benchmark's phase breakdown read the same
intervals.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import Dict, IO, List, Optional, Sequence

from repro.errors import TelemetryError

#: Version stamped on every JSONL line and span-tree payload; bump when
#: the span dict schema changes so downstream summarisers can tell.
TRACE_FORMAT_VERSION = 1

#: The span dict shape shared by the recorder, the JSONL sink and the
#: run-artefact ``trace`` payloads.
SPAN_FIELDS = ("name", "span_id", "parent_id", "start", "duration",
               "attributes")


class Span:
    """One timed operation; also the context manager the tracer yields.

    ``start``/``duration`` are monotonic (``time.perf_counter``) — only
    differences between them are meaningful, never absolute instants.
    """

    __slots__ = ("name", "span_id", "parent_id", "start", "duration",
                 "attributes", "_tracer")

    def __init__(self, name: str, span_id: int, parent_id: Optional[int],
                 tracer: "Tracer", attributes: Dict[str, object]) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attributes = attributes
        self.start = 0.0
        self.duration: Optional[float] = None
        self._tracer = tracer

    def set(self, key: str, value: object) -> None:
        """Attach one structured attribute (JSON-serialisable value)."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "span_id": self.span_id,
                "parent_id": self.parent_id, "start": self.start,
                "duration": self.duration, "attributes": self.attributes}

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.duration = time.perf_counter() - self.start
        self._tracer._pop(self)


class NullSpan:
    """The inert span: every operation is a no-op, one shared instance."""

    __slots__ = ()

    def set(self, key: str, value: object) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


NULL_SPAN = NullSpan()


class SpanRecorder:
    """Thread-safe in-memory store of finished spans (bounded).

    ``max_spans`` caps memory on long-lived processes; once full, new
    spans are counted in ``dropped`` instead of stored (a trace that
    silently truncates is reported as such by the summariser).
    """

    def __init__(self, max_spans: int = 4096) -> None:
        if max_spans < 1:
            raise TelemetryError(
                f"max_spans must be a positive integer, got {max_spans!r}")
        self.max_spans = max_spans
        self.dropped = 0
        self._lock = threading.Lock()
        self._spans: List[Dict[str, object]] = []

    def record(self, span: Span) -> None:
        payload = span.to_dict()
        with self._lock:
            if len(self._spans) >= self.max_spans:
                self.dropped += 1
                return
            self._spans.append(payload)

    def spans(self) -> List[Dict[str, object]]:
        """Finished spans as plain dicts, in completion order."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    def tree(self) -> Dict[str, object]:
        """The versioned span-tree payload embedded in run artefacts.

        ``{"version": TRACE_FORMAT_VERSION, "spans": [...], "dropped"}``
        — spans keep their parent links (``parent_id``) rather than
        being nested, so the payload is flat, stable under concurrency
        and cheap to store; consumers rebuild the hierarchy from the
        links (:func:`repro.telemetry.summary.build_tree`).
        """
        with self._lock:
            return {"version": TRACE_FORMAT_VERSION,
                    "spans": list(self._spans),
                    "dropped": self.dropped}


class JsonlSpanSink:
    """Append-only JSONL sink: one finished span per line.

    Lines are ``{"v": TRACE_FORMAT_VERSION, **span}``; writes are
    serialised on a lock and flushed per line, so a killed process
    keeps every span that finished before the kill.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle: Optional[IO[str]] = None

    def _file(self) -> IO[str]:
        if self._handle is None:
            self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def record(self, span: Span) -> None:
        self.write(span.to_dict())

    def write(self, span_dict: Dict[str, object]) -> None:
        """Append one span dict (used directly for imported span trees)."""
        line = json.dumps({"v": TRACE_FORMAT_VERSION, **span_dict},
                          sort_keys=True)
        with self._lock:
            handle = self._file()
            handle.write(line + "\n")
            handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class Tracer:
    """Produces hierarchical spans and fans finished ones to recorders.

    Each thread has its own active-span stack (``threading.local``), so
    concurrent request handlers trace independent trees.  ``recorders``
    is any mix of :class:`SpanRecorder` / :class:`JsonlSpanSink` (duck:
    anything with ``record(span)``).
    """

    #: Class-level flag: ``if tracer.enabled`` guards any non-trivial
    #: attribute computation at call sites.
    enabled = True

    def __init__(self, recorders: Optional[Sequence[object]] = None) -> None:
        self._recorders: List[object] = list(recorders or [])
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._next_id = 1

    def span(self, name: str, **attributes: object) -> Span:
        """A new span, parented to the thread's currently active span."""
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        stack = getattr(self._local, "stack", None)
        parent_id = stack[-1].span_id if stack else None
        return Span(name, span_id, parent_id, self, dict(attributes))

    def current_span(self) -> "Span | NullSpan":
        """The innermost span open on this thread, else :data:`NULL_SPAN`.

        Lets a callee annotate the span its caller opened around it.
        """
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else NULL_SPAN

    # ------------------------------------------------------------------ #
    # Span lifecycle (called by Span.__enter__/__exit__)
    # ------------------------------------------------------------------ #
    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # pragma: no cover - defensive
            stack.remove(span)
        for recorder in self._recorders:
            record = getattr(recorder, "record", None)
            if record is not None:
                record(span)


class NullTracer(Tracer):
    """The default-off tracer: spans are the shared inert no-op.

    ``span()`` ignores its arguments and returns :data:`NULL_SPAN`
    without allocating, so ``with tracer.span(...)`` on a hot path costs
    two attribute lookups and two no-op calls.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def span(self, name: str, **attributes: object) -> NullSpan:  # type: ignore[override]
        return NULL_SPAN


#: The shared no-op tracer every instrumented layer defaults to.
NULL_TRACER = NullTracer()


__all__ = ["Span", "NullSpan", "NULL_SPAN", "SpanRecorder", "JsonlSpanSink",
           "Tracer", "NullTracer", "NULL_TRACER", "TRACE_FORMAT_VERSION",
           "SPAN_FIELDS"]
