"""Statistics, run metadata and the printed report.

A timing is reported as a median plus the highest percentile the sample
supports, each with its sample count: a tail percentile with fewer than
:data:`MIN_BEYOND` samples beyond it is *unresolved* (``None``), never a
number.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy

from perfbench.catalogue import unit_of

#: Samples a tail percentile needs beyond it to be reported as a number.
MIN_BEYOND = 10

#: Environment variables that set BLAS / OpenMP thread pools.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")


@dataclass
class Value:
    """One reported metric value with its sample count."""

    value: Optional[float]
    n: int

    def to_dict(self, unit: str) -> Dict[str, object]:
        return {"value": self.value, "unit": unit, "n": self.n}


def median(samples: Sequence[float], scale: float = 1.0) -> Value:
    """The median of ``samples`` times ``scale`` (``None`` when empty)."""
    if not samples:
        return Value(None, 0)
    return Value(float(statistics.median(samples)) * scale, len(samples))


def tail(samples: Sequence[float], percent: float,
         scale: float = 1.0) -> Value:
    """The ``percent`` percentile, unresolved without enough samples beyond."""
    n = len(samples)
    if n * (100.0 - percent) / 100.0 < MIN_BEYOND:
        return Value(None, n)
    return Value(float(np.percentile(np.asarray(samples), percent)) * scale, n)


def mean(total: float, count: int) -> Value:
    """``total / count``, or ``0.0`` when nothing was counted."""
    return Value(total / count if count else 0.0, count)


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark in MB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def blas_info() -> Dict[str, object]:
    """The BLAS library numpy links and every thread-count variable set."""
    info: Dict[str, object] = {
        var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    info["library"] = blas.get("name")
    info["version"] = blas.get("version")
    info["configuration"] = blas.get("openblas configuration")
    return info


def metadata(*, workload: str, seed: int, seconds: float, trace: int,
             load_threads: int,
             malloc_arena_max: Optional[int]) -> Dict[str, object]:
    """What a reader needs to explain run-to-run spread."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "load_threads": load_threads,
        "malloc_arena_max": malloc_arena_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "unresolved"
    return f"{value:.6g}"


def format_table(title: str, values: Dict[str, Value]) -> List[str]:
    """Aligned ``name value unit (n=...)`` lines under ``title``."""
    lines = [title]
    for name, value in values.items():
        lines.append(f"  {name:<26} {_fmt(value.value):>14} "
                     f"{unit_of(name):<6} (n={value.n})")
    return lines


def format_overhead(untraced: Dict[str, Value],
                    traced: Dict[str, Value]) -> List[str]:
    """Traced-minus-untraced difference of every end-to-end metric."""
    lines = ["tracing overhead (traced - untraced)"]
    for name, before in untraced.items():
        after = traced[name]
        unit = unit_of(name)
        if before.value is None or after.value is None:
            lines.append(f"  {name:<26} {'unresolved':>14} {unit}")
            continue
        lines.append(f"  {name:<26} {after.value - before.value:>+14.6g} "
                     f"{unit:<6} ({_fmt(before.value)} -> "
                     f"{_fmt(after.value)})")
    return lines


__all__ = ["Value", "median", "tail", "mean", "peak_rss_mb", "metadata",
           "format_table", "format_overhead", "MIN_BEYOND"]
