"""CI perf regression gate over the ``BENCH_localpush.json`` history.

Run *after* ``bench_localpush.py`` has appended a fresh record: the gate
takes the newest record, finds the most recent **comparable** earlier
record — same ``cpu_count``, same ``num_nodes`` (and the same
ε/decay/mode, so seconds are measuring the same workload) — and fails
when the core kernel got more than ``--threshold`` (default 30 %)
slower.

The gated metric is ``backends.core.seconds``: the unified-core run,
i.e. the push-round kernel itself with no oracle noise.
Sub-``--min-delta-seconds`` absolute regressions never fail the gate —
smoke-sized records measure milliseconds, where a 30 % swing is timer
noise, not a regression.

Exit codes: ``0`` pass (or no comparable baseline — first run on a new
machine shape is recorded, not judged), ``1`` regression, ``2`` unusable
history (missing file, no records, malformed metric).

Stdlib-only on purpose: the gate must be able to judge a record even
when the package itself is broken.

Usage
-----
``python benchmarks/check_perf_gate.py``                      gate BENCH_localpush.json
``python benchmarks/check_perf_gate.py --history /tmp/b.json --threshold 0.5``
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

DEFAULT_HISTORY = Path(__file__).resolve().parent.parent / "BENCH_localpush.json"

#: Record keys that must match for two records to be comparable: the
#: machine shape (``cpu_count``) and the workload shape (size, ε, decay,
#: mode) — comparing a smoke record against a full record, or records
#: from machines with different core counts, measures nothing.
COMPARABLE_KEYS = ("cpu_count", "num_nodes", "epsilon", "decay", "mode")


def core_seconds(record: dict) -> float:
    """The gated metric of one record; raises ``KeyError``/``TypeError``
    on malformed records."""
    seconds = record["backends"]["core"]["seconds"]
    if not isinstance(seconds, (int, float)) or isinstance(seconds, bool):
        raise TypeError(f"backends.core.seconds is not a number: {seconds!r}")
    return float(seconds)


def comparable(fresh: dict, candidate: dict) -> bool:
    return all(candidate.get(key) == fresh.get(key)
               for key in COMPARABLE_KEYS)


def find_baseline(history: list, fresh: dict) -> dict | None:
    """The most recent earlier record comparable to ``fresh``."""
    for candidate in reversed(history[:-1]):
        if isinstance(candidate, dict) and comparable(fresh, candidate):
            return candidate
    return None


def check(history: list, *, threshold: float,
          min_delta_seconds: float) -> tuple[int, str]:
    """Gate the newest record; returns ``(exit_code, message)``."""
    if not history:
        return 2, "perf gate: history has no records to judge"
    fresh = history[-1]
    try:
        fresh_seconds = core_seconds(fresh)
    except (KeyError, TypeError) as error:
        return 2, f"perf gate: newest record is malformed ({error})"
    shape = ", ".join(f"{key}={fresh.get(key)}" for key in COMPARABLE_KEYS)
    baseline = find_baseline(history, fresh)
    if baseline is None:
        return 0, (f"perf gate: no comparable baseline ({shape}) — "
                   f"recording {fresh_seconds:.4f}s as the first "
                   "measurement for this shape")
    try:
        base_seconds = core_seconds(baseline)
    except (KeyError, TypeError) as error:
        return 2, f"perf gate: baseline record is malformed ({error})"
    if base_seconds <= 0:
        return 0, (f"perf gate: baseline core seconds are {base_seconds}; "
                   "nothing to compare against")
    ratio = fresh_seconds / base_seconds
    delta = fresh_seconds - base_seconds
    verdict = (f"core kernel {fresh_seconds:.4f}s vs baseline "
               f"{base_seconds:.4f}s ({ratio:.2f}x, {shape})")
    if ratio > 1.0 + threshold and delta > min_delta_seconds:
        return 1, (f"perf gate FAILED: {verdict} exceeds the "
                   f"{threshold:.0%} slowdown threshold")
    return 0, f"perf gate passed: {verdict}"


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--history", type=Path, default=DEFAULT_HISTORY,
                        help="benchmark history JSON "
                             "(default: BENCH_localpush.json at the repo root)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="relative core-kernel slowdown that fails the "
                             "gate (default: 0.30 = 30%%)")
    parser.add_argument("--min-delta-seconds", type=float, default=0.05,
                        help="absolute slowdown below which the gate never "
                             "fails — milliseconds-sized smoke records swing "
                             "more than 30%% on timer noise alone "
                             "(default: 0.05s)")
    args = parser.parse_args(argv)

    if not args.history.exists():
        print(f"perf gate: history file {args.history} does not exist")
        return 2
    try:
        history = json.loads(args.history.read_text())
    except json.JSONDecodeError as error:
        print(f"perf gate: history file {args.history} is not JSON ({error})")
        return 2
    if not isinstance(history, list):
        history = [history]
    code, message = check(history, threshold=args.threshold,
                          min_delta_seconds=args.min_delta_seconds)
    print(message)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
