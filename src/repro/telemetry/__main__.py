"""``repro-trace`` — summarise a JSONL trace file.

Usage::

    python -m repro.telemetry <trace.jsonl> [--limit N]

Reads the append-only JSONL emitted by
:class:`repro.telemetry.tracing.JsonlSpanSink` (one span per line) and
prints the :func:`repro.telemetry.summary.format_summary` report:
span/root counts, per-name aggregates ranked by self time, the engine
phase breakdown and the top spans by self time.

Exit codes: 0 on success, 2 on an unreadable or malformed trace file.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.errors import TelemetryError
from repro.telemetry.summary import format_summary, load_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Summarise a repro telemetry JSONL trace file.")
    parser.add_argument("trace", help="path to the JSONL trace file")
    parser.add_argument("--limit", type=int, default=10,
                        help="how many spans to list in the self-time "
                             "ranking (default 10)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        list(argv) if argv is not None else None)
    if args.limit < 1:
        print("error: --limit must be a positive integer")
        return 2
    try:
        spans = load_trace(args.trace)
    except (TelemetryError, OSError) as error:
        print(f"error: {error}")
        return 2
    print(format_summary(spans, limit=args.limit))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
