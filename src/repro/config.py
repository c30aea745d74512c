"""Typed, validated configuration objects — the public API of the system.

Every knob of the system (the SimRank operator's contract, the cache
directory and byte cap, the training protocol, the serving and update
knobs) lives on one of the frozen dataclasses below instead of
travelling as loose keyword arguments through the layers that consume
it:

* :class:`SimRankConfig` — everything that determines a SimRank
  aggregation operator (method, decay, ε, top-k, normalisation, dtype
  and the persistent operator cache).
  :meth:`SimRankConfig.cache_key_fields` is the *single* derivation of
  the operator-cache key fields; the cache merely hashes them.
* :class:`ServeConfig`, :class:`DynamicConfig` and
  :class:`TelemetryConfig` — the serving, update-stream and
  observability knobs.
* :class:`RunSpec` — one end-to-end evaluation run: model name plus
  overrides, dataset, a :class:`repro.training.config.TrainConfig`, an
  optional :class:`SimRankConfig`, the seed and the repeat count.
  ``repro.api.run(spec)`` executes it.
* :class:`ExperimentSpec` — a grid of :class:`RunSpec` cells plus the
  knobs of its reduction.

Each is validated in its own ``__post_init__`` and inherits the rest
from :class:`FrozenConfig`, which writes the shared methods once from
``dataclasses.fields``: ``with_overrides`` (a validated copy),
``to_dict``/``from_dict`` (the JSON form benchmark records and
experiment manifests embed; ``RunSpec`` and ``ExperimentSpec`` nest
theirs) and ``from_cli_args`` (the CLI bridge, driven by each class's
``CLI_FLAG_FIELDS`` table of valued flags; the one on/off flag,
``--telemetry``, is :meth:`TelemetryConfig.from_cli_args`'s own rule).
An unknown field name or a non-mapping payload raises the class's
``ERROR``: :class:`repro.errors.ConfigError`, or
:class:`repro.errors.TrainingError` for ``TrainConfig``.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (TYPE_CHECKING, Any, ClassVar, Dict, Iterable, List,
                    Mapping, Optional, Sequence, Tuple, Type, TypeVar)

from repro.errors import ConfigError, ReproError
from repro.utils.validation import is_integral

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.training.config import TrainConfig

#: SimRank decay factor ``c`` used throughout the paper (Eq. (2)).
#: ``repro.simrank.exact.DEFAULT_DECAY`` re-exports this value.
DEFAULT_DECAY = 0.6

SIMRANK_METHODS: Tuple[str, ...] = ("exact", "series", "localpush", "auto")
SIMRANK_DTYPES: Tuple[str, ...] = ("float64", "float32")

#: Registry names of the models that consume a :class:`SimRankConfig`.
SIMRANK_MODELS: Tuple[str, ...] = ("sigma", "sigma_iterative")

#: The operator-cache key fields, in their canonical order.  The cache
#: hashes exactly these (plus the format version and graph fingerprint);
#: :meth:`SimRankConfig.cache_key_fields` is the only code that derives
#: their values from a configuration.
CACHE_KEY_FIELDS: Tuple[str, ...] = (
    "method", "decay", "epsilon", "top_k", "row_normalize", "dtype")

#: SimRankConfig fields that deliberately stay OUT of the operator-cache
#: key.  Every field must be either cache-keyed or listed here with a
#: reason — the R1 lint rule (``repro.lint``) cross-checks this set
#: against the dataclass, so adding a field without a keying decision
#: fails tier-1 instead of silently serving stale operators.
#:
#: * ``exact_size_limit`` — auto-resolution knob only; its effect is
#:   keyed through the *resolved* method.
#: * ``cache_dir``, ``cache_max_bytes`` — resource location/budget of
#:   the cache itself, never part of the operator's identity.
CACHE_KEY_EXEMPT: Tuple[str, ...] = (
    "exact_size_limit", "cache_dir", "cache_max_bytes")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _as_float(name: str, value: object,
              error: Type[ReproError] = ConfigError) -> float:
    """Coerce to a finite float, raising ``error`` for anything else.

    NaN and ±inf are rejected here, because the range checks after a
    coercion compare with ``<``/``>``, which NaN passes and which admit
    an infinite bound.
    """
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {value!r}") from None
    if not math.isfinite(number):
        raise error(f"{name} must be a finite number, got {value!r}")
    return number


def _as_int(name: str, value: object,
            error: Type[ReproError] = ConfigError) -> int:
    """Coerce an integral value to int (bools and non-integers rejected)."""
    if not is_integral(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)  # type: ignore[call-overload]


_C = TypeVar("_C", bound="FrozenConfig")


@dataclass(frozen=True)
class FrozenConfig:
    """The methods every frozen config shares, written once.

    A subclass declares its fields and validates them in
    ``__post_init__``; this base derives the rest from
    ``dataclasses.fields``.  ``ERROR`` is the exception an unknown field
    name or a non-mapping payload raises.  ``CLI_FLAG_FIELDS`` maps an
    ``argparse`` attribute to the field it sets.
    """

    ERROR: ClassVar[Type[ReproError]] = ConfigError
    CLI_FLAG_FIELDS: ClassVar[Mapping[str, str]] = {}

    @classmethod
    def _check_names(cls, names: Iterable[str]) -> None:
        unknown = set(names) - {f.name for f in fields(cls)}
        if unknown:
            raise cls.ERROR(f"unknown {cls.__name__} field(s): "
                            f"{', '.join(sorted(unknown))}")

    @classmethod
    def _checked_payload(cls, data: object) -> Dict[str, Any]:
        """``data`` as a dict, once it is a mapping of known field names."""
        if not isinstance(data, Mapping):
            raise cls.ERROR(f"{cls.__name__}.from_dict expects a mapping, "
                            f"got {type(data).__name__}")
        cls._check_names(data)
        return dict(data)

    def with_overrides(self: _C, **changes: object) -> _C:
        """A validated copy with the given fields replaced."""
        self._check_names(changes)
        return replace(self, **changes)

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serialisable); inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls: Type[_C], data: Mapping[str, object]) -> _C:
        """Reconstruct a validated config from :meth:`to_dict` output."""
        return cls(**cls._checked_payload(data))

    @classmethod
    def from_cli_args(cls: Type[_C], args: Any,
                      base: Optional[_C] = None) -> _C:
        """Build a config from parsed CLI flags.

        A flag left at its ``None`` default inherits from ``base`` (the
        defaults when omitted), so an empty command line returns ``base``
        itself.
        """
        base = base if base is not None else cls()
        overrides = {
            field_name: getattr(args, attr)
            for attr, field_name in cls.CLI_FLAG_FIELDS.items()
            if getattr(args, attr, None) is not None
        }
        return base.with_overrides(**overrides) if overrides else base


@dataclass(frozen=True)
class SimRankConfig(FrozenConfig):
    """Full specification of a SimRank aggregation operator.

    Field groups
    ------------
    ``method, decay, epsilon, top_k, row_normalize, exact_size_limit, dtype``
        The mathematical contract: which fixed point is approximated, to
        what error, in which arithmetic, and how the result is
        pruned/normalised.  These feed the operator-cache key
        (``dtype="float64"`` is keyed as ``None``; ``"float32"`` gets
        its own key — its values and error bound differ, see
        :func:`repro.simrank.kernels.float32_error_bound`).
    ``cache_dir, cache_max_bytes``
        The persistent operator cache (:mod:`repro.simrank.cache`) and
        its LRU byte cap.  Pure resource location, never keyed.
    """

    method: str = "auto"
    decay: float = DEFAULT_DECAY
    epsilon: float = 0.1
    top_k: Optional[int] = None
    row_normalize: bool = False
    exact_size_limit: int = 3000
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    dtype: str = "float64"

    #: CLI-flag ↔ field mapping consumed by :meth:`from_cli_args` and the
    #: parser-parity tests: ``argparse`` attribute name → config field.
    CLI_FLAG_FIELDS: ClassVar[Mapping[str, str]] = {
        "simrank_method": "method",
        "decay": "decay",
        "epsilon": "epsilon",
        "top_k": "top_k",
        "simrank_cache_dir": "cache_dir",
        "simrank_cache_max_bytes": "cache_max_bytes",
        "simrank_dtype": "dtype",
    }

    def __post_init__(self) -> None:
        # Numeric fields are coerced to canonical types (float/int/bool);
        # besides validation this canonicalises the cache-key payload, so
        # e.g. epsilon=1 and epsilon=1.0 share one key.  (A pre-config
        # entry written with a non-canonical type recomputes once.)
        coerce = object.__setattr__
        _require(self.method in SIMRANK_METHODS,
                 f"method must be one of {SIMRANK_METHODS}, got {self.method!r}")
        coerce(self, "decay", _as_float("decay", self.decay))
        _require(0.0 < self.decay < 1.0,
                 f"decay must be in (0, 1), got {self.decay}")
        coerce(self, "epsilon", _as_float("epsilon", self.epsilon))
        _require(self.epsilon > 0.0,
                 f"epsilon must be positive, got {self.epsilon}")
        if self.top_k is not None:
            coerce(self, "top_k", _as_int("top_k", self.top_k))
            _require(self.top_k > 0,
                     f"top_k must be a positive integer or None, got {self.top_k!r}")
        coerce(self, "row_normalize", bool(self.row_normalize))
        coerce(self, "exact_size_limit",
               _as_int("exact_size_limit", self.exact_size_limit))
        _require(self.exact_size_limit >= 0,
                 f"exact_size_limit must be non-negative, "
                 f"got {self.exact_size_limit!r}")
        if self.cache_dir is not None:
            try:
                coerce(self, "cache_dir", os.fspath(self.cache_dir))
            except TypeError:
                raise ConfigError(
                    f"cache_dir must be a path or None, "
                    f"got {self.cache_dir!r}") from None
        if self.cache_max_bytes is not None:
            coerce(self, "cache_max_bytes",
                   _as_int("cache_max_bytes", self.cache_max_bytes))
            _require(self.cache_max_bytes > 0,
                     f"cache_max_bytes must be a positive integer or None, "
                     f"got {self.cache_max_bytes!r}")
        _require(self.dtype in SIMRANK_DTYPES,
                 f"dtype must be one of {SIMRANK_DTYPES}, got {self.dtype!r}")

    # ------------------------------------------------------------------ #
    # Resolution (single source of the operator-cache key)
    # ------------------------------------------------------------------ #
    def resolved_method(self, num_nodes: int) -> str:
        """``"auto"`` resolved by graph size (paper policy: exactness on
        small graphs, the ε-approximation above ``exact_size_limit``)."""
        if self.method != "auto":
            return self.method
        return "series" if num_nodes <= self.exact_size_limit else "localpush"

    def cache_key_fields(self, num_nodes: int) -> Dict[str, object]:
        """The operator-cache key fields for a graph of ``num_nodes``.

        This is the *only* derivation of the key tuple in the codebase:
        ``repro.simrank.cache`` hashes exactly this mapping (plus format
        version and graph fingerprint), so every path that builds an
        operator from a config produces the same key.
        """
        method = self.resolved_method(num_nodes)
        return {
            "method": method,
            "decay": self.decay,
            # Exact SimRank has no ε contract; keyed as None.
            "epsilon": None if method == "exact" else self.epsilon,
            "top_k": self.top_k,
            "row_normalize": self.row_normalize,
            # float64 (the reference precision) is keyed as None and
            # omitted from the cache's hashed payload; float32 operators
            # hold different values under a different error bound and
            # get their own key.
            "dtype": None if self.dtype == "float64" else self.dtype,
        }


#: The paper's operator settings for the SIGMA models: top-k pruning at
#: ``k = 32`` (Table III/X), everything else the library defaults.  This
#: is what ``SIGMA(graph)`` uses when no config is passed.
SIGMA_DEFAULT_SIMRANK = SimRankConfig(top_k=32)


@dataclass(frozen=True)
class ServeConfig(FrozenConfig):
    """Configuration of the :mod:`repro.serve` online query layer.

    Field groups
    ------------
    ``host, port``
        Where the daemon listens.
    ``default_top_k``
        ``k`` used by ``/topk`` requests that do not pass their own.
    ``time_budget_seconds, max_pushes_per_query``
        Admission control for the exact rung of the degradation ladder,
        which slices the rows of the served graph version, computed at
        most once per connected component.  ``max_pushes_per_query``
        caps the frontier absorptions of each row computation: past it
        the computation fails the rung for every read waiting on it, and
        nothing is kept.  On a connected graph that is the push count one
        single-source query costs, because the seeds are the same.
        ``time_budget_seconds`` bounds each read's wait for its rows: a
        read whose rows are not ready in time falls through (``None`` =
        no wall-clock budget), and rows that complete later stay on the
        version.
    ``degraded_epsilon_factor``
        The last rung's looser ε, ``epsilon × degraded_epsilon_factor``.
        The cached rung before it has no knob: any dominating all-pairs
        entry of the service's operator cache serves the row.
    """

    host: str = "127.0.0.1"
    port: int = 8571
    default_top_k: int = 10
    time_budget_seconds: Optional[float] = None
    max_pushes_per_query: Optional[int] = None
    degraded_epsilon_factor: float = 10.0

    #: ``repro.cli serve`` flags consumed by :meth:`from_cli_args`.
    CLI_FLAG_FIELDS: ClassVar[Mapping[str, str]] = {
        "host": "host",
        "port": "port",
        "serve_top_k": "default_top_k",
        "time_budget": "time_budget_seconds",
        "max_pushes_per_query": "max_pushes_per_query",
        "degraded_epsilon_factor": "degraded_epsilon_factor",
    }

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        _require(isinstance(self.host, str) and bool(self.host),
                 f"host must be a non-empty string, got {self.host!r}")
        coerce(self, "port", _as_int("port", self.port))
        _require(0 <= self.port <= 65535,
                 f"port must be in [0, 65535], got {self.port!r}")
        coerce(self, "default_top_k",
               _as_int("default_top_k", self.default_top_k))
        _require(self.default_top_k >= 1,
                 f"default_top_k must be a positive integer, "
                 f"got {self.default_top_k!r}")
        if self.time_budget_seconds is not None:
            coerce(self, "time_budget_seconds",
                   _as_float("time_budget_seconds", self.time_budget_seconds))
            _require(self.time_budget_seconds > 0.0,
                     f"time_budget_seconds must be positive or None, "
                     f"got {self.time_budget_seconds!r}")
        if self.max_pushes_per_query is not None:
            coerce(self, "max_pushes_per_query",
                   _as_int("max_pushes_per_query", self.max_pushes_per_query))
            _require(self.max_pushes_per_query >= 1,
                     f"max_pushes_per_query must be a positive integer or "
                     f"None, got {self.max_pushes_per_query!r}")
        coerce(self, "degraded_epsilon_factor",
               _as_float("degraded_epsilon_factor",
                         self.degraded_epsilon_factor))
        _require(self.degraded_epsilon_factor > 1.0,
                 f"degraded_epsilon_factor must exceed 1.0 (the fallback "
                 f"must loosen ε), got {self.degraded_epsilon_factor!r}")


@dataclass(frozen=True)
class DynamicConfig(FrozenConfig):
    """Configuration of the :mod:`repro.dynamic` incremental-maintenance layer.

    ``max_batch_edges``
        Admission cap on the number of deltas in one
        :class:`repro.graphs.delta.UpdateBatch`; oversized batches are
        rejected before any repair work starts.
    ``repair_max_pushes``
        Safety cap on frontier absorptions per repair run (``None`` =
        uncapped) — the repair analogue of the engine's ``max_pushes``;
        exceeding it raises instead of spinning on a pathological delta.

    An operator with a cache stores each repaired snapshot in it, under
    the ordinary key of the graph it describes (see
    :class:`repro.dynamic.operator.DynamicOperator`).
    """

    max_batch_edges: int = 4096
    repair_max_pushes: Optional[int] = None

    #: ``repro.cli serve`` flags consumed by :meth:`from_cli_args`.
    CLI_FLAG_FIELDS: ClassVar[Mapping[str, str]] = {
        "max_batch_edges": "max_batch_edges",
        "repair_max_pushes": "repair_max_pushes",
    }

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        coerce(self, "max_batch_edges",
               _as_int("max_batch_edges", self.max_batch_edges))
        _require(self.max_batch_edges >= 1,
                 f"max_batch_edges must be a positive integer, "
                 f"got {self.max_batch_edges!r}")
        if self.repair_max_pushes is not None:
            coerce(self, "repair_max_pushes",
                   _as_int("repair_max_pushes", self.repair_max_pushes))
            _require(self.repair_max_pushes >= 1,
                     f"repair_max_pushes must be a positive integer or "
                     f"None, got {self.repair_max_pushes!r}")


@dataclass(frozen=True)
class TelemetryConfig(FrozenConfig):
    """Configuration of the :mod:`repro.telemetry` observability layer.

    ``enabled``
        Master switch, **off by default**: the instrumented layers
        resolve a ``None``/disabled handle to the shared no-op tracer,
        so the default path does no telemetry work and stays
        bit-identical to the un-instrumented code (the R3 guarantee).
    ``trace_path``
        Append-only JSONL file finished spans are written to (the
        ``repro-trace`` CLI's input).  ``None`` keeps spans in memory
        only (the bounded recorder).
    ``max_recorded_spans``
        Cap on the in-memory span recorder; past it new spans are
        counted as dropped instead of stored, so a long-lived daemon
        never grows unboundedly.
    """

    enabled: bool = False
    trace_path: Optional[str] = None
    max_recorded_spans: int = 4096

    #: CLI flags consumed by :meth:`from_cli_args`.
    CLI_FLAG_FIELDS: ClassVar[Mapping[str, str]] = {
        "trace_path": "trace_path",
        "max_recorded_spans": "max_recorded_spans",
    }

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        coerce(self, "enabled", bool(self.enabled))
        if self.trace_path is not None:
            _require(isinstance(self.trace_path, (str, os.PathLike)),
                     f"trace_path must be a path or None, "
                     f"got {self.trace_path!r}")
            coerce(self, "trace_path", os.fspath(self.trace_path))
        coerce(self, "max_recorded_spans",
               _as_int("max_recorded_spans", self.max_recorded_spans))
        _require(self.max_recorded_spans >= 1,
                 f"max_recorded_spans must be a positive integer, "
                 f"got {self.max_recorded_spans!r}")

    @classmethod
    def from_cli_args(cls, args: Any,
                      base: Optional["TelemetryConfig"] = None
                      ) -> "TelemetryConfig":
        """The base bridge, plus ``enabled`` when ``--telemetry`` or a
        ``--trace-path`` is given (a requested sink with a disabled
        tracer would record nothing)."""
        config = super().from_cli_args(args, base)
        if (getattr(args, "telemetry", False)
                or getattr(args, "trace_path", None) is not None) \
                and not config.enabled:
            return config.with_overrides(enabled=True)
        return config


@dataclass(frozen=True)
class RunSpec(FrozenConfig):
    """One end-to-end evaluation run, declaratively.

    ``repro.api.run(spec)`` loads the dataset, constructs the model from
    the registry (with ``overrides`` on top of the registry defaults and
    ``simrank`` routed to the SIGMA models), trains over ``repeats``
    splits under ``train`` and returns a ``RunResult``.  The CLI parses
    straight into a ``RunSpec``; experiments build them in loops.
    """

    model: str = "sigma"
    dataset: str = "texas"
    overrides: Dict[str, object] = field(default_factory=dict)
    train: Optional["TrainConfig"] = None
    simrank: Optional[SimRankConfig] = None
    seed: int = 0
    repeats: Optional[int] = None
    scale_factor: float = 1.0

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        _require(isinstance(self.model, str) and bool(self.model),
                 f"model must be a non-empty string, got {self.model!r}")
        coerce(self, "model", self.model.lower())
        _require(isinstance(self.dataset, str) and bool(self.dataset),
                 f"dataset must be a non-empty string, got {self.dataset!r}")
        _require(isinstance(self.overrides, Mapping),
                 f"overrides must be a mapping, got {type(self.overrides).__name__}")
        coerce(self, "overrides", dict(self.overrides))
        if self.train is None:
            from repro.training.config import TrainConfig

            coerce(self, "train", TrainConfig())
        _require(self.simrank is None or isinstance(self.simrank, SimRankConfig),
                 f"simrank must be a SimRankConfig or None, got {self.simrank!r}")
        if self.simrank is not None or "simrank" in self.overrides:
            _require(self.model in SIMRANK_MODELS,
                     f"a SimRankConfig only applies to {SIMRANK_MODELS}, "
                     f"not {self.model!r}")
        _require(self.simrank is None or "simrank" not in self.overrides,
                 "pass the SimRankConfig either as spec.simrank or inside "
                 "overrides, not both")
        coerce(self, "seed", _as_int("seed", self.seed))
        if self.repeats is not None:
            coerce(self, "repeats", _as_int("repeats", self.repeats))
            _require(self.repeats >= 1,
                     f"repeats must be a positive integer or None, "
                     f"got {self.repeats!r}")
        coerce(self, "scale_factor", _as_float("scale_factor", self.scale_factor))
        _require(self.scale_factor > 0.0,
                 f"scale_factor must be positive, got {self.scale_factor}")
        # Late (lazy-import) check so config stays a leaf module: the
        # model name must exist in the registry.
        from repro.models.registry import list_models

        _require(self.model in list_models(),
                 f"unknown model {self.model!r}; available: "
                 f"{', '.join(list_models())}")

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        overrides = dict(self.overrides)
        if isinstance(overrides.get("simrank"), SimRankConfig):
            # __post_init__ permits the config inside overrides (instead
            # of spec.simrank); keep that shape serialisable too.
            overrides["simrank"] = overrides["simrank"].to_dict()
        return {
            "model": self.model,
            "dataset": self.dataset,
            "overrides": overrides,
            "train": self.train.to_dict(),
            "simrank": None if self.simrank is None else self.simrank.to_dict(),
            "seed": self.seed,
            "repeats": self.repeats,
            "scale_factor": self.scale_factor,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunSpec":
        from repro.training.config import TrainConfig

        payload = cls._checked_payload(data)
        if payload.get("train") is not None and not hasattr(payload["train"], "max_epochs"):
            payload["train"] = TrainConfig.from_dict(payload["train"])
        if payload.get("simrank") is not None and not isinstance(
                payload["simrank"], SimRankConfig):
            payload["simrank"] = SimRankConfig.from_dict(payload["simrank"])
        overrides = payload.get("overrides")
        if (isinstance(overrides, Mapping)
                and isinstance(overrides.get("simrank"), Mapping)):
            payload["overrides"] = {
                **overrides,
                "simrank": SimRankConfig.from_dict(overrides["simrank"]),
            }
        return cls(**payload)


def grid_product(axes: Mapping[str, Sequence[object]]) -> Tuple[Dict[str, object], ...]:
    """Cartesian product of grid axes as a tuple of cell-override dicts.

    The first axis varies slowest (outermost loop), matching the nested
    ``for`` loops the legacy experiment modules used, so a ported grid
    enumerates its cells in the historical order::

        grid_product({"model": ("a", "b"), "dataset": ("x", "y")})
        # ({'model': 'a', 'dataset': 'x'}, {'model': 'a', 'dataset': 'y'},
        #  {'model': 'b', 'dataset': 'x'}, {'model': 'b', 'dataset': 'y'})
    """
    _require(isinstance(axes, Mapping),
             f"grid_product expects a mapping of axes, got {type(axes).__name__}")
    names = list(axes)
    values = [list(axes[name]) for name in names]
    return tuple(dict(zip(names, combo)) for combo in itertools.product(*values))


@dataclass(frozen=True)
class ExperimentCell:
    """One expanded cell of an :class:`ExperimentSpec` grid.

    ``overrides`` is the raw grid entry that produced the cell, ``spec``
    the fully resolved :class:`RunSpec` and ``params`` the merged extra
    parameters (spec-level defaults plus cell overrides) consumed by the
    experiment's cell runner.
    """

    index: int
    overrides: Dict[str, object]
    spec: RunSpec
    params: Dict[str, object]


#: RunSpec fields a grid entry may set directly (everything else goes
#: through the ``overrides.`` / ``train.`` / ``simrank.`` prefixes or must
#: be a declared extra parameter).
CELL_SPEC_FIELDS: Tuple[str, ...] = (
    "model", "dataset", "seed", "repeats", "scale_factor")


@dataclass(frozen=True)
class ExperimentSpec(FrozenConfig):
    """Declarative description of one experiment: a grid of runs + a reduction.

    An experiment is a *grid of cells over a base* :class:`RunSpec`: every
    grid entry is a mapping whose keys address either a RunSpec field
    (``model``, ``dataset``, ``seed``, ``repeats``, ``scale_factor``), a
    model hyper-parameter (``overrides.<name>``), a training field
    (``train.<name>``), a SimRank operator field (``simrank.<name>``) or a
    *declared* extra parameter (a key of :attr:`params` — anything else is
    a :class:`repro.errors.ConfigError`, so a knob can never be silently
    dropped).  :meth:`cells` expands the grid into validated
    :class:`ExperimentCell` objects.  The default grid ``({},)`` is a
    single base cell; an explicitly *empty* grid runs zero cells (an
    empty axis in :func:`grid_product` sweeps nothing, exactly like the
    empty legacy ``for`` loop it replaces — it never falls back to an
    un-requested base run).

    ``params`` are extra knobs handed to the experiment's *cell runner*
    (e.g. the number of sampled pairs of Table II); they participate in
    the :class:`repro.experiments.store.ArtifactStore` cell key.
    ``reduction`` knobs are consumed only by the reduction function (e.g.
    Fig. 2's histogram bin count) and deliberately stay *out* of the cell
    key so experiments sharing cell work (Fig. 2 reuses Table II's cells)
    hit each other's artefacts.

    Smoke scaling is a spec transform, not a per-module keyword:
    ``spec.with_base(scale_factor=0.25)`` scales every cell and
    ``spec.with_train(QUICK_EXPERIMENT_CONFIG)`` swaps the training
    protocol, because cells inherit both from ``base``.
    """

    name: str
    base: RunSpec
    title: str = ""
    grid: Tuple[Dict[str, object], ...] = field(default_factory=lambda: ({},))
    params: Dict[str, object] = field(default_factory=dict)
    reduction: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        _require(isinstance(self.name, str) and bool(self.name),
                 f"experiment name must be a non-empty string, got {self.name!r}")
        coerce(self, "name", self.name.lower())
        _require(isinstance(self.title, str),
                 f"title must be a string, got {self.title!r}")
        _require(isinstance(self.base, RunSpec),
                 f"base must be a RunSpec, got {type(self.base).__name__}")
        _require(not isinstance(self.grid, (str, bytes))
                 and isinstance(self.grid, Sequence),
                 f"grid must be a sequence of mappings, got {self.grid!r}")
        entries = []
        for entry in self.grid:
            _require(isinstance(entry, Mapping),
                     f"every grid entry must be a mapping, got {entry!r}")
            _require(all(isinstance(key, str) for key in entry),
                     f"grid entry keys must be strings, got {entry!r}")
            entries.append(dict(entry))
        coerce(self, "grid", tuple(entries))
        for label in ("params", "reduction"):
            value = getattr(self, label)
            _require(isinstance(value, Mapping)
                     and all(isinstance(key, str) for key in value),
                     f"{label} must be a mapping with string keys, got {value!r}")
            coerce(self, label, dict(value))
        self.cells()  # expand eagerly: a malformed grid fails at construction

    # ------------------------------------------------------------------ #
    # Grid expansion
    # ------------------------------------------------------------------ #
    def _expand(self, index: int, entry: Mapping[str, object]) -> ExperimentCell:
        direct: Dict[str, object] = {}
        overrides = dict(self.base.overrides)
        simrank = self.base.simrank
        train = self.base.train
        params = dict(self.params)
        for key, value in entry.items():
            if key in CELL_SPEC_FIELDS:
                direct[key] = value
            elif key.startswith("overrides."):
                overrides[key[len("overrides."):]] = value
            elif key.startswith("train."):
                train = train.with_overrides(**{key[len("train."):]: value})
            elif key.startswith("simrank."):
                _require(simrank is not None,
                         f"grid entry sets {key!r} but the base RunSpec has "
                         f"no SimRankConfig")
                simrank = simrank.with_overrides(**{key[len("simrank."):]: value})
            elif key in params:
                params[key] = value
            else:
                raise ConfigError(
                    f"unknown cell key {key!r} in experiment {self.name!r}: "
                    f"not a RunSpec field, not an 'overrides.'/'train.'/"
                    f"'simrank.' path, and not a declared parameter "
                    f"({', '.join(sorted(self.params)) or 'none declared'})")
        # A base SimRankConfig applies only to the cells that run a SIGMA
        # model: a grid mixing SIGMA with baselines (fig5's sigma/glognn
        # sweep) inherits the operator config on the SIGMA cells and none
        # on the baselines, exactly as the pre-spec modules behaved.  An
        # explicit ``simrank.`` key on a baseline cell stays an error.
        model = str(direct.get("model", self.base.model)).lower()
        if (simrank is not None and model not in SIMRANK_MODELS
                and not any(key.startswith("simrank.") for key in entry)):
            simrank = None
        spec = self.base.with_overrides(overrides=overrides, simrank=simrank,
                                        train=train, **direct)
        return ExperimentCell(index=index, overrides=dict(entry), spec=spec,
                              params=params)

    def cells(self) -> List[ExperimentCell]:
        """Expand the grid into validated cells (empty grid = zero cells)."""
        return [self._expand(index, entry)
                for index, entry in enumerate(self.grid)]

    @property
    def num_cells(self) -> int:
        return len(self.grid)

    # ------------------------------------------------------------------ #
    # Transforms / serialisation
    # ------------------------------------------------------------------ #
    def with_base(self, **changes: object) -> "ExperimentSpec":
        """A copy whose base :class:`RunSpec` has ``changes`` applied.

        This is the shared scaling/seeding story: cells inherit the base,
        so ``with_base(scale_factor=0.25)`` scales the whole experiment.
        """
        return replace(self, base=self.base.with_overrides(**changes))

    def with_train(self, train: "TrainConfig") -> "ExperimentSpec":
        """A copy with the training protocol of every cell replaced."""
        return self.with_base(train=train)

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "title": self.title,
            "base": self.base.to_dict(),
            "grid": [dict(entry) for entry in self.grid],
            "params": dict(self.params),
            "reduction": dict(self.reduction),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentSpec":
        payload = cls._checked_payload(data)
        if payload.get("base") is not None and not isinstance(payload["base"], RunSpec):
            payload["base"] = RunSpec.from_dict(payload["base"])
        if payload.get("grid") is not None:
            payload["grid"] = tuple(dict(entry) for entry in payload["grid"])
        return cls(**payload)


__all__ = [
    "DEFAULT_DECAY",
    "SIMRANK_METHODS",
    "SIMRANK_DTYPES",
    "SIMRANK_MODELS",
    "CACHE_KEY_FIELDS",
    "CELL_SPEC_FIELDS",
    "FrozenConfig",
    "SimRankConfig",
    "DynamicConfig",
    "TelemetryConfig",
    "SIGMA_DEFAULT_SIMRANK",
    "ServeConfig",
    "RunSpec",
    "ExperimentCell",
    "ExperimentSpec",
    "grid_product",
]
