"""Typed metrics instruments and the registry that owns them.

Three instrument kinds, mirroring the Prometheus data model:

* :class:`Counter` — a monotonically increasing sum (``inc``);
* :class:`Gauge` — a value that can be set to anything (``set``);
* :class:`Histogram` — cumulative bucket counts plus sum/count
  (``observe``) over a fixed upper-bound ladder, read back as
  bucket-interpolated quantiles (``quantile``).

Every instrument supports label sets (``counter.inc(1, path="exact")``)
by keeping one series per sorted ``(label, value)`` tuple, and every
mutation happens under the owning registry's single lock — an increment
is atomic under free-threaded use, which is what lets
:class:`repro.serve.service.ServiceCounters` re-base on a registry and
drop the implicit "only under the service lock" caveat.

The registry is the snapshot boundary: :meth:`MetricsRegistry.snapshot`
returns a plain, JSON-serialisable dict of every series (the versioned
``/metrics/prometheus`` JSON twin lives in
:mod:`repro.telemetry.exposition`).

Metric names follow the Prometheus conventions used across the package:
``repro_<layer>_<what>[_total|_seconds]``, validated against
``[a-zA-Z_:][a-zA-Z0-9_:]*``.
"""

from __future__ import annotations

import re
from threading import Lock
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import TelemetryError

#: One series' identity: the sorted ``(label, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram upper bounds in seconds: the Prometheus client
#: ladder, so a read taking tens of milliseconds lands in a bucket 25 ms
#: wide.  ``+Inf`` is implicit — ``count`` covers it.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.25, 0.5, 0.75, 1.0, 2.5, 5.0,
    7.5, 10.0)


def _validate_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise TelemetryError(
            f"invalid metric name {name!r}; expected "
            "[a-zA-Z_:][a-zA-Z0-9_:]*")
    return name


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    pairs = []
    for label in sorted(labels):
        if not _LABEL_RE.match(label):
            raise TelemetryError(
                f"invalid label name {label!r}; expected "
                "[a-zA-Z_][a-zA-Z0-9_]*")
        pairs.append((label, str(labels[label])))
    return tuple(pairs)


class Instrument:
    """Base instrument: a name, a help string and its labelled series.

    Instances are only created through a :class:`MetricsRegistry`, which
    hands them its lock — all series mutation is atomic under it.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str, lock: Lock) -> None:
        self.name = _validate_name(name)
        self.help = help
        self._lock = lock

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class Counter(Instrument):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str, lock: Lock) -> None:
        super().__init__(name, help, lock)
        self._series: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Atomically add ``amount`` (>= 0) to the labelled series."""
        value = float(amount)
        if value < 0.0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc by {amount!r})")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + value

    def value(self, **labels: object) -> float:
        """The labelled series' current sum (0.0 when never incremented)."""
        key = _label_key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)


class Gauge(Instrument):
    """A value that may move in either direction per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str, lock: Lock) -> None:
        super().__init__(name, help, lock)
        self._series: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def value(self, **labels: object) -> float:
        key = _label_key(labels)
        with self._lock:
            return self._series.get(key, 0.0)

    def series(self) -> Dict[LabelKey, float]:
        with self._lock:
            return dict(self._series)


class HistogramSeries:
    """One label set's cumulative state: bucket counts plus sum/count."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int) -> None:
        self.bucket_counts: List[int] = [0] * num_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(Instrument):
    """Cumulative bucket counts plus sum/count per label set.

    ``buckets`` are the inclusive upper bounds (sorted, strictly
    increasing); the implicit ``+Inf`` bucket is ``count``.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, lock: Lock,
                 buckets: Optional[Tuple[float, ...]] = None) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(float(b) for b in
                       (buckets if buckets is not None else DEFAULT_BUCKETS))
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} buckets must be non-empty and "
                f"strictly increasing, got {bounds!r}")
        self.buckets = bounds
        self._series: Dict[LabelKey, HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        observed = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = HistogramSeries(len(self.buckets))
                self._series[key] = series
            for i, bound in enumerate(self.buckets):
                if observed <= bound:
                    series.bucket_counts[i] += 1
            series.sum += observed
            series.count += 1

    def quantile(self, q: float, **labels: object) -> Optional[float]:
        """The ``q``-quantile of the labelled series, from its buckets.

        Prometheus ``histogram_quantile`` interpolation: the rank
        ``q · count`` falls in the first bucket whose cumulative count
        reaches it, and the estimate moves linearly from that bucket's
        lower bound (the previous upper bound, ``0`` for the first) to
        its upper bound.  ``None`` for an empty series; the top finite
        bound when the rank falls in the implicit ``+Inf`` bucket.
        """
        if not 0.0 <= q <= 1.0:
            raise TelemetryError(f"quantile must be in [0, 1], got {q!r}")
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or series.count == 0:
                return None
            cumulative = list(series.bucket_counts)
            rank = q * series.count
        lower, below = 0.0, 0
        for upper, count in zip(self.buckets, cumulative):
            if count >= rank and count > below:
                fraction = (rank - below) / (count - below)
                return lower + (upper - lower) * fraction
            lower, below = upper, count
        return self.buckets[-1]

    def series(self) -> Dict[LabelKey, HistogramSeries]:
        with self._lock:
            out: Dict[LabelKey, HistogramSeries] = {}
            for key, entry in self._series.items():
                copy = HistogramSeries(len(self.buckets))
                copy.bucket_counts = list(entry.bucket_counts)
                copy.sum = entry.sum
                copy.count = entry.count
                out[key] = copy
            return out


class MetricsRegistry:
    """The instrument factory and snapshot boundary.

    ``counter``/``gauge``/``histogram`` are idempotent per name (the
    same instrument is returned on re-registration; a *kind* clash is a
    :class:`repro.errors.TelemetryError`).  All instruments share the
    registry's single lock, so cross-instrument snapshots are cheap and
    every individual mutation is atomic.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self._instruments: Dict[str, Instrument] = {}

    def _register(self, name: str, kind: type, help: str,
                  **kwargs: object) -> Instrument:
        with self._lock:
            existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TelemetryError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as "
                    f"{kind.__name__.lower()}")
            return existing
        instrument = kind(name, help, self._lock, **kwargs)
        with self._lock:
            return self._instruments.setdefault(name, instrument)

    def counter(self, name: str, help: str = "") -> Counter:
        instrument = self._register(name, Counter, help)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, help: str = "") -> Gauge:
        instrument = self._register(name, Gauge, help)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Tuple[float, ...]] = None) -> Histogram:
        instrument = self._register(name, Histogram, help, buckets=buckets)
        assert isinstance(instrument, Histogram)
        return instrument

    def instruments(self) -> List[Instrument]:
        """Every registered instrument, in registration order."""
        with self._lock:
            return list(self._instruments.values())

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict snapshot of every series (JSON-serialisable).

        ``{name: {"kind", "help", "series": [{"labels", ...values}]}}``;
        counter/gauge series carry ``value``, histogram series carry
        ``buckets``/``bucket_counts``/``sum``/``count``.
        """
        out: Dict[str, Dict[str, object]] = {}
        for instrument in self.instruments():
            series_out: List[Dict[str, object]] = []
            if isinstance(instrument, (Counter, Gauge)):
                for key, value in sorted(instrument.series().items()):
                    series_out.append({"labels": dict(key), "value": value})
            elif isinstance(instrument, Histogram):
                for key, entry in sorted(instrument.series().items()):
                    series_out.append({
                        "labels": dict(key),
                        "buckets": list(instrument.buckets),
                        "bucket_counts": list(entry.bucket_counts),
                        "sum": entry.sum,
                        "count": entry.count,
                    })
            out[instrument.name] = {"kind": instrument.kind,
                                    "help": instrument.help,
                                    "series": series_out}
        return out


__all__ = ["Counter", "Gauge", "Histogram", "HistogramSeries", "Instrument",
           "MetricsRegistry", "DEFAULT_BUCKETS", "LabelKey"]
