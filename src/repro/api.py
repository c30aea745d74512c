"""Public facade of the repro package.

This module is the supported surface for building on the system (see the
"Public API" section of ROADMAP.md): three functions and the config
objects they consume.  Everything else in the package is internal and
free to be refactored between releases.

* :func:`precompute` — compute (or load from cache) the SimRank
  aggregation operator described by a :class:`repro.config.SimRankConfig`.
* :func:`build_model` — construct any registered model, either from a
  name plus overrides or from a :class:`repro.config.RunSpec`.
* :func:`run` — execute a :class:`RunSpec` end to end (load dataset,
  build, train over the splits) and return a :class:`RunResult`.
* :func:`run_experiment` — run a registered declarative experiment (an
  :class:`repro.config.ExperimentSpec` grid of ``RunSpec`` cells plus a
  reduction) through the sweep engine, which runs the cells in order
  and resumes finished ones from a
  :class:`repro.experiments.store.ArtifactStore`.
* :func:`topk` / :func:`score` — single-source / single-pair SimRank
  queries (row ``u`` of the operator, O(query) LocalPush work instead of
  the all-pairs precompute).  They always compute the row; for a row of
  a cached operator, slice :func:`precompute`'s answer.  The long-lived
  serving layer on top lives in :mod:`repro.serve` and is configured by
  :class:`repro.config.ServeConfig`.
* :func:`apply_updates` — apply an edge-update stream to a graph and
  return a live :class:`repro.dynamic.operator.DynamicOperator`, repaired
  incrementally under a :class:`repro.config.DynamicConfig` instead of
  recomputed from scratch.

Example
-------
>>> from repro.api import run
>>> from repro.config import RunSpec, SimRankConfig
>>> spec = RunSpec(model="sigma", dataset="texas", repeats=1,
...                simrank=SimRankConfig(top_k=8))
>>> result = run(spec)          # doctest: +SKIP
>>> 0.0 <= result.summary.mean_accuracy <= 1.0   # doctest: +SKIP
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.config import (SIMRANK_MODELS, ExperimentSpec, RunSpec,
                          SimRankConfig, TelemetryConfig)
from repro.errors import ConfigError
from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    import scipy.sparse as sp

    from repro.config import DynamicConfig
    from repro.dynamic.operator import CacheLike, DynamicOperator
    from repro.graphs.delta import Updates
    from repro.models.base import NodeClassifier
    from repro.training.evaluation import EvaluationSummary


def precompute(graph: Graph,
               config: Optional[SimRankConfig] = None) -> "SimRankOperator":
    """Precompute the SimRank aggregation operator for ``graph``.

    With ``config=None`` the library defaults apply (auto method
    selection, ε = 0.1, no pruning).  A ``cache_dir`` in the config makes
    repeated calls hit the persistent operator cache.
    """
    from repro.simrank.topk import simrank_operator

    return simrank_operator(graph, config=config)


def build_model(name: Optional[str], graph: Graph, *,
                spec: Optional[RunSpec] = None,
                simrank: Optional[SimRankConfig] = None,
                rng: object = None, **overrides: object) -> "NodeClassifier":
    """Construct a registered model on ``graph``.

    Either pass ``name`` (plus optional ``simrank`` config and
    hyper-parameter ``overrides``), or pass a ``spec`` whose model name,
    overrides and SimRank config are used — with ``name``/``overrides``
    arguments layered on top.  The SimRank config is routed to the SIGMA
    models as their ``simrank=`` parameter; supplying one for any other
    model is an error.
    """
    if spec is not None:
        name = name or spec.model
        overrides = {**spec.overrides, **overrides}
        simrank = simrank if simrank is not None else spec.simrank
    if name is None:
        raise ConfigError("build_model needs a model name or a spec")
    if simrank is not None:
        if name.lower() not in SIMRANK_MODELS:
            raise ConfigError(
                f"a SimRankConfig only applies to {SIMRANK_MODELS}, "
                f"not {name!r}")
        overrides = {**overrides, "simrank": simrank}
    from repro.models.registry import create_model

    return create_model(name, graph, rng=rng, **overrides)


@dataclass
class RunResult:
    """Outcome of :func:`run`: the spec that ran plus its summary."""

    spec: RunSpec
    summary: "EvaluationSummary"

    def as_row(self) -> Dict[str, object]:
        """The summary row (accuracy/timing) — what the CLI prints."""
        return self.summary.as_row()

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable record: the spec and the result row."""
        return {"spec": self.spec.to_dict(), **self.as_row()}


def run(spec: RunSpec) -> RunResult:
    """Execute ``spec`` end to end and return its :class:`RunResult`.

    Loads ``spec.dataset`` (scaled by ``spec.scale_factor``), trains
    ``spec.model`` over ``spec.repeats`` splits (the paper's 5/10
    protocol when ``None``) under ``spec.train``, seeding everything from
    ``spec.seed``.
    """
    from repro.datasets.registry import load_dataset
    from repro.training.evaluation import repeated_evaluation

    dataset = load_dataset(spec.dataset, seed=spec.seed,
                           scale_factor=spec.scale_factor)
    overrides = dict(spec.overrides)
    if spec.simrank is not None:
        overrides["simrank"] = spec.simrank
    summary = repeated_evaluation(spec.model, dataset,
                                  num_repeats=spec.repeats,
                                  config=spec.train, seed=spec.seed,
                                  **overrides)
    return RunResult(spec=spec, summary=summary)


def _query_row(graph: Graph, source: int, config: Optional[SimRankConfig],
               k: Optional[int]) -> "sp.csr_matrix":
    """Row ``source`` of the SimRank operator described by ``config``.

    Always computed with LocalPush (the only method with a single-source
    variant): ``absorb_residual=True`` and the paper's ``ε/10`` floor
    prune, then :func:`repro.graphs.sparse.top_k_row` — the same
    pipeline as the all-pairs operator, so the row is bit-identical to
    the corresponding all-pairs row under the guarantee documented on
    :func:`repro.simrank.engine.multi_source_localpush`.  The config's
    ``cache_dir`` plays no part: the row is computed on ``graph`` at the
    config's ε every time.
    """
    from repro.graphs.sparse import top_k_row
    from repro.simrank.engine import _validate_sources, single_source_localpush

    source = int(_validate_sources(graph, [source])[0])
    cfg = config if config is not None else SimRankConfig()
    if cfg.method == "exact":
        raise ConfigError(
            "single-source queries always run LocalPush; "
            "method='exact' has no row variant")
    result = single_source_localpush(
        graph, source, decay=cfg.decay, epsilon=cfg.epsilon, prune=True,
        absorb_residual=True, dtype=cfg.dtype)
    return top_k_row(result.estimate, source, k, normalize=cfg.row_normalize)


def topk(graph: Graph, source: int, k: int,
         config: Optional[SimRankConfig] = None) -> "List[Tuple[int, float]]":
    """The ``k`` most SimRank-similar nodes to ``source`` (self included).

    Returns ``[(node, score), ...]`` sorted by descending score, ties
    broken toward the smaller node id — the order induced by
    :func:`repro.graphs.sparse.top_k_per_row`.  ``S(u, u) = 1`` so
    ``source`` itself leads the list.  With ``config=None`` the library
    defaults apply (``ε = 0.1``).  ``k`` must be a positive integer
    (:func:`repro.simrank.engine._validate_k`: ``np.int64(5)`` and
    ``5.0`` are 5), else :class:`repro.errors.ConfigError`.
    """
    import numpy as np

    from repro.simrank.engine import _validate_k

    row = _query_row(graph, source, config, _validate_k(k))
    order = np.lexsort((row.indices, -row.data))
    return [(int(row.indices[i]), float(row.data[i])) for i in order]


def score(graph: Graph, u: int, v: int,
          config: Optional[SimRankConfig] = None) -> float:
    """The single-pair SimRank score ``Ŝ(u, v)``, ``|Ŝ − S| < ε``.

    Computed from the single-source row of ``u`` with the identical
    pipeline as :func:`topk`, so ``score(g, u, v)`` equals the entry for
    ``v`` in ``topk(g, u, n)`` exactly — ``0.0`` when ``v`` was floor-
    pruned or is unreachable from ``u``.
    """
    from repro.simrank.engine import _validate_sources

    _validate_sources(graph, [u, v])
    row = _query_row(graph, u, config, None)
    return float(row[0, int(v)])


def apply_updates(graph: Graph, updates: "Updates", *,
                  config: Optional[SimRankConfig] = None,
                  dynamic: Optional["DynamicConfig"] = None,
                  cache: "CacheLike" = None) -> "DynamicOperator":
    """Apply an edge-update stream to ``graph`` and return a live operator.

    ``updates`` is anything :meth:`repro.graphs.delta.UpdateBatch.coerce`
    accepts — a single :class:`~repro.graphs.delta.GraphDelta`, an
    iterable of them, or an ``UpdateBatch``.  The returned
    :class:`~repro.dynamic.operator.DynamicOperator` holds the repaired
    state on ``graph.apply_delta(updates)`` under the error contract of
    ``config`` (library defaults when ``None``) and keeps accepting
    further updates through its :meth:`~repro.dynamic.operator.DynamicOperator.apply`.

    With a cache (``cache=`` or ``config.cache_dir``), every repaired
    snapshot is stored under the key of the graph it describes.  If the
    updated graph already has an entry under the maintained contract
    (checked without loading it or counting a cache event), this
    replays it with zero push work: it returns
    ``DynamicOperator(graph.apply_delta(updates), …)`` warm-started from
    that entry (``build_cache_hit``, ``repair_pushes == 0``,
    ``updates_applied == 0``).  That serves an identical earlier call, a
    reordering of its deltas that reaches the same graph, and any stream
    ending at a graph a daemon repaired to.  Otherwise it builds on
    ``graph`` (warm-starting from its cached entry, see the
    :mod:`repro.dynamic` docstring), repairs, and returns with the
    updated graph's entry on disk (unless the write failed, which
    :meth:`~repro.dynamic.operator.DynamicOperator.flush` reports).
    """
    from repro.dynamic.operator import (DynamicOperator, _resolve_cache,
                                        maintained_fields)
    from repro.graphs.delta import UpdateBatch
    from repro.graphs.fingerprint import graph_fingerprint

    cfg = config if config is not None else SimRankConfig()
    batch = UpdateBatch.coerce(updates)
    cache_store = _resolve_cache(cache, cfg)
    updated: Optional[Graph] = None
    if cache_store is not None:
        updated = graph.apply_delta(batch)
        fingerprint = graph_fingerprint(updated)
        key = cache_store.key_for_fields(
            updated, maintained_fields(cfg, updated.num_nodes),
            fingerprint=fingerprint)
        if cache_store.path_for(key, fingerprint).exists():
            return DynamicOperator(updated, simrank=cfg, dynamic=dynamic,
                                   cache=cache_store)
    operator = DynamicOperator(graph, simrank=cfg, dynamic=dynamic,
                               cache=cache_store)
    operator.apply(batch, updated)
    operator.flush()
    return operator


def run_experiment(name: str, *args: object, **kwargs: object) -> object:
    """Run a registered declarative experiment and return its result.

    Thin facade over :func:`repro.experiments.run_experiment` (imported
    lazily — the experiment modules build on this module).  ``*args`` and
    unknown keywords go to the experiment's spec builder; the engine
    options (``scale_factor``, ``train``, ``store``, ``resume``,
    ``force``, ``spec``, ``print_result``, ``telemetry``) apply uniformly
    to every experiment.
    """
    from repro.experiments import run_experiment as _run_experiment

    return _run_experiment(name, *args, **kwargs)


def list_experiments() -> list:
    """All registered experiment definitions (lazy facade)."""
    from repro.experiments import list_experiments as _list_experiments

    return _list_experiments()


__all__ = ["precompute", "build_model", "run", "run_experiment",
           "list_experiments", "topk", "score", "apply_updates",
           "RunResult", "RunSpec", "SimRankConfig", "ExperimentSpec",
           "TelemetryConfig"]
