"""Command-line interface for training a single model on a benchmark.

The CLI is a thin shell over the public API: flags are parsed straight
into a :class:`repro.config.RunSpec` (:func:`build_runspec`) — with the
SimRank flags collected by :meth:`repro.config.SimRankConfig.from_cli_args`
— and executed by :func:`repro.api.run`.

The ``experiment`` subcommand exposes the declarative experiment
registry (one :class:`repro.config.ExperimentSpec` per paper artefact):
``python -m repro.cli experiment --list`` /
``python -m repro.cli experiment fig6 --scale-factor 0.25`` delegate to
:mod:`repro.experiments.runner` (also installed as ``repro-experiment``).

The ``serve`` subcommand starts the long-lived query daemon
(:mod:`repro.serve`): ``python -m repro.cli serve texas --port 8571``
loads a registry dataset and answers ``/topk``, ``/score``, ``/metrics``
and ``/healthz`` over HTTP, configured by
:class:`repro.config.ServeConfig` flags (see ``serve --help``).

Training-loop defaults (``--lr``, ``--weight-decay``, ``--epochs``,
``--patience``) are sourced from :class:`repro.training.config.TrainConfig`
so the numbers live in exactly one place.

Examples
--------
``python -m repro.cli --model sigma --dataset chameleon``
``python -m repro.cli --model glognn --dataset pokec --scale-factor 0.25 --repeats 2``
``python -m repro.cli experiment fig6 --scale-factor 0.25 --store artifacts/``
"""

from __future__ import annotations

import argparse
import json
from typing import Optional

from repro.api import run
from repro.config import (
    SIGMA_DEFAULT_SIMRANK,
    SIMRANK_DTYPES,
    SIMRANK_METHODS,
    SIMRANK_MODELS,
    RunSpec,
    SimRankConfig,
)
from repro.datasets.registry import get_spec, list_datasets
from repro.errors import ConfigError, DatasetError, TrainingError
from repro.models.registry import list_models, model_parameters
from repro.training.config import TrainConfig

#: Single source of the training-loop defaults shown in ``--help``.
_TRAIN_DEFAULTS = TrainConfig()


def positive_int(text: str) -> int:
    """argparse type of a count every model needs to be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Train a heterophilous GNN (SIGMA or a baseline) on a "
                    "benchmark. Use the 'experiment' subcommand "
                    "(python -m repro.cli experiment --list) to regenerate "
                    "a registered paper artefact instead.")
    parser.add_argument("--model", default="sigma", choices=list_models(),
                        help="model name (default: sigma)")
    parser.add_argument("--dataset", default="texas",
                        help=f"benchmark name; one of {', '.join(list_datasets())}")
    parser.add_argument("--repeats", type=int, default=None,
                        help="number of repeated splits (default: the paper's 5/10)")
    parser.add_argument("--scale-factor", type=float, default=1.0,
                        help="node-count multiplier for quicker runs")
    parser.add_argument("--epochs", type=int, default=_TRAIN_DEFAULTS.max_epochs,
                        help="maximum epochs")
    parser.add_argument("--patience", type=int, default=_TRAIN_DEFAULTS.patience,
                        help="early-stopping patience")
    parser.add_argument("--lr", type=float, default=_TRAIN_DEFAULTS.learning_rate,
                        help="learning rate")
    parser.add_argument("--weight-decay", type=float,
                        default=_TRAIN_DEFAULTS.weight_decay, help="weight decay")
    parser.add_argument("--hidden", type=positive_int, default=None,
                        help="hidden width override")
    parser.add_argument("--delta", type=float, default=None,
                        help="feature factor δ (SIGMA / GloGNN)")
    parser.add_argument("--top-k", type=positive_int, default=None,
                        help="top-k pruning of the SimRank/PPR operator")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="LocalPush error threshold ε")
    parser.add_argument("--decay", type=float, default=None,
                        help="SimRank decay factor c (SIGMA models only)")
    parser.add_argument("--simrank-method", default=None,
                        choices=SIMRANK_METHODS,
                        help="SimRank computation method for SIGMA's "
                             "precompute (default: auto — exactness on "
                             "small graphs, LocalPush above)")
    parser.add_argument("--simrank-dtype", default=None,
                        choices=SIMRANK_DTYPES,
                        help="working precision of the SimRank operator "
                             "(SIGMA models only; float32 halves operator "
                             "memory under the adjusted error bound "
                             "documented on repro.simrank.kernels."
                             "float32_error_bound)")
    parser.add_argument("--simrank-cache-dir", default=None,
                        help="directory of a persistent SimRank operator "
                             "cache; repeated runs on the same graph and "
                             "hyper-parameters skip precompute (SIGMA "
                             "models only)")
    parser.add_argument("--simrank-cache-max-bytes", type=int, default=None,
                        help="byte cap on the operator cache directory; "
                             "stores beyond it evict least-recently-used "
                             "entries (SIGMA models only)")
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument("--json", action="store_true", help="print the summary as JSON")
    return parser


def _simrank_flags_used(args: argparse.Namespace) -> list[str]:
    """The SIGMA-only flags present on this command line."""
    sigma_only = ("decay", "simrank_method", "simrank_dtype",
                  "simrank_cache_dir", "simrank_cache_max_bytes")
    return [name for name in sigma_only if getattr(args, name) is not None]


def build_runspec(args: argparse.Namespace) -> RunSpec:
    """Translate parsed CLI flags into the :class:`RunSpec` that runs.

    For the SIGMA models every SimRank flag folds into one
    :class:`SimRankConfig` (flags left unset inherit the model default,
    :data:`SIGMA_DEFAULT_SIMRANK`); for the baselines ``--top-k`` /
    ``--epsilon`` stay plain model overrides.  :func:`main` rejects the
    SIGMA-only flags, and any override the model's constructor does not
    take, before this point.  ``min_epochs`` is capped at ``--epochs``,
    so a short run runs as asked.
    """
    train = TrainConfig(learning_rate=args.lr, weight_decay=args.weight_decay,
                        max_epochs=args.epochs, patience=args.patience,
                        min_epochs=min(_TRAIN_DEFAULTS.min_epochs, args.epochs),
                        track_test_history=False)
    overrides = {}
    for name in ("hidden", "delta"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    simrank: Optional[SimRankConfig] = None
    if args.model in SIMRANK_MODELS:
        simrank = SimRankConfig.from_cli_args(args, base=SIGMA_DEFAULT_SIMRANK)
    else:
        for name in ("top_k", "epsilon"):
            value = getattr(args, name)
            if value is not None:
                overrides[name] = value
    return RunSpec(model=args.model, dataset=args.dataset,
                   overrides=overrides, train=train, simrank=simrank,
                   seed=args.seed, repeats=args.repeats,
                   scale_factor=args.scale_factor)


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        import sys

        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "experiment":
        from repro.experiments.runner import main as experiment_main

        return experiment_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.daemon import main as serve_main

        return serve_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        get_spec(args.dataset)  # accepts aliases and any case
    except DatasetError as exc:
        parser.error(str(exc))
    if args.model not in SIMRANK_MODELS:
        rejected = _simrank_flags_used(args)
        if rejected:
            flags = ", ".join("--" + name.replace("_", "-") for name in rejected)
            parser.error(f"{flags}: only supported by SIGMA models, "
                         f"not {args.model!r}")
    try:
        spec = build_runspec(args)
    except (ConfigError, TrainingError) as exc:
        parser.error(str(exc))
    accepted = model_parameters(args.model)
    unsupported = [name for name in spec.overrides if name not in accepted]
    if unsupported:
        flags = ", ".join("--" + name.replace("_", "-") for name in unsupported)
        parser.error(f"{flags}: not a parameter of model {args.model!r}")

    result = run(spec)
    row = result.as_row()
    if args.json:
        print(json.dumps(row, indent=2))
    else:
        print(f"model={row['model']} dataset={row['dataset']}")
        print(f"accuracy: {row['accuracy_mean']} ± {row['accuracy_std']} %")
        print(f"learning time: {row['learning_time']} s "
              f"(precompute {row['precompute_time']} s, "
              f"aggregation {row['aggregation_time']} s)")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
