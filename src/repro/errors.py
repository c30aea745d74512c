"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so that callers
can distinguish library failures from programming errors with a single
``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the repro library."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation on it is invalid."""


class DatasetError(ReproError):
    """Raised when a dataset specification or split is invalid."""


class SimRankError(ReproError):
    """Raised when SimRank computation receives invalid parameters."""


class ConfigError(SimRankError, ValueError):
    """Raised when a configuration object fails validation.

    Subclasses :class:`SimRankError` and :class:`ValueError` so callers
    that guarded the pre-config pipeline (``simrank_operator`` raised
    ``SimRankError`` for bad parameters; the cache cap raised
    ``ValueError``) keep catching what they caught before the config
    objects took over validation.
    """


class ServeError(ReproError):
    """Raised when the serving layer cannot answer a query.

    The :mod:`repro.serve` degradation ladder (exact → cached → looser-ε)
    raises this only when its *last* rung fails — any earlier failure
    falls through to the next rung and is recorded in the service
    counters instead.
    """


class TelemetryError(ReproError):
    """Raised when the telemetry subsystem is misused.

    Covers invalid metric names or label values, registering one metric
    name under two instrument kinds, and malformed trace files handed to
    the ``repro-trace`` summariser.  Telemetry is observability only —
    this error never fires on a default-off (no-op) handle, so the hot
    paths it instruments cannot start failing because of it.
    """


class ModelError(ReproError):
    """Raised when a model is mis-configured or used before being built."""


class TrainingError(ReproError):
    """Raised when a training run cannot proceed."""


class ExperimentError(ReproError):
    """Raised when an experiment request is invalid.

    Covers the declarative experiment layer end to end: unknown experiment
    names, unsupported builder keywords (a knob that cannot apply is a hard
    error, never silently dropped) and malformed grids at execution time.
    """


class ArtifactError(ExperimentError):
    """Raised when an :class:`repro.experiments.store.ArtifactStore`
    directory cannot be used (unwritable path, malformed artifact file
    that cannot be evicted).  Corrupt *cell* entries are never an error —
    they are evicted and recomputed like operator-cache corruption."""
