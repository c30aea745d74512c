"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-pokec --seed 1 --seconds 30 --trace 0

Workloads: ``paper-pokec``, ``serve-read``, ``serve-write`` (see
:mod:`perfbench`).  The program under test is imported from the
checkout's ``src/`` and nowhere else; without it the run exits with
status 2 and prints no result.  The human-readable report comes first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the gated
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Traces and per-run reports go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from typing import List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: glibc ``mallopt`` parameter number of ``M_ARENA_MAX``, and the cap.
M_ARENA_MAX = -8
MALLOC_ARENA_MAX = 2


def _cap_malloc_arenas() -> Optional[int]:
    """Cap glibc's malloc arenas before any thread starts; the cap, or None.

    The daemon runs a thread per request, and glibc hands threads their
    own arenas (up to eight per core) whose freed memory other threads do
    not reuse.  Uncapped, the resident high-water mark of identical
    ``serve-write`` runs varied by ~9%; with two arenas it repeats within
    ~2%, so ``peak_rss_mb`` measures the program, not the arena lottery.
    The cap is recorded in every report.  Without glibc it is skipped.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return MALLOC_ARENA_MAX if mallopt(M_ARENA_MAX, MALLOC_ARENA_MAX) else None


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    from perfbench.catalogue import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with the per-layer breakdown")
    parser.add_argument("--out", default=os.path.join(ROOT, "perfbench",
                                                      "out"),
                        help="directory for traces, reports and caches")
    return parser.parse_args(argv)


def _import_program() -> Optional[str]:
    """Import ``repro`` from the checkout's ``src/``; None, or why not."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        return f"no program to benchmark: {SRC}/repro is missing"
    sys.path.insert(0, SRC)
    import repro

    origin = os.path.realpath(repro.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        return f"repro was imported from {origin}, not from {SRC}"
    return None


def main(argv: Optional[List[str]] = None) -> int:
    sys.path.insert(0, ROOT)
    args = _parse(argv)
    arena_cap = _cap_malloc_arenas()
    problem = _import_program()
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    from perfbench.bench import run

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.out, malloc_arena_max=arena_cap)
    result = outcome.result_line()
    print("\n".join(outcome.lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
