"""Model registry: build any model in the benchmark by name.

The registry centralises per-model default hyper-parameters so experiments
(Table V, VII, VIII, XI …) construct every baseline the same way.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, FrozenSet, List

from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.models.acmgcn import ACMGCN
from repro.models.appnp import APPNP
from repro.models.base import NodeClassifier
from repro.models.gat import GAT
from repro.models.gcn import GCN
from repro.models.gcnii import GCNII
from repro.models.glognn import GloGNN
from repro.models.gprgnn import GPRGNN
from repro.models.h2gcn import H2GCN
from repro.models.linkx import LINKX
from repro.models.mixhop import MixHop
from repro.models.mlp import MLPClassifier
from repro.models.pprgo import PPRGo
from repro.models.sgc import SGC
from repro.models.sigma import SIGMA
from repro.models.sigma_iterative import SIGMAIterative
from repro.utils.rng import RngLike

ModelFactory = Callable[..., NodeClassifier]

_REGISTRY: Dict[str, ModelFactory] = {
    "mlp": MLPClassifier,
    "gcn": GCN,
    "sgc": SGC,
    "gat": GAT,
    "appnp": APPNP,
    "mixhop": MixHop,
    "gcnii": GCNII,
    "gprgnn": GPRGNN,
    "h2gcn": H2GCN,
    "acmgcn": ACMGCN,
    "linkx": LINKX,
    "glognn": GloGNN,
    "pprgo": PPRGo,
    "sigma": SIGMA,
    "sigma_iterative": SIGMAIterative,
}

# Default hyper-parameters used by the experiment harness; individual
# experiments override what they sweep (δ, α, k, ε, layer counts, ...).
#
# Entries hold *paper-table overrides only*: a key may appear here only
# when its value differs from the model's ``__init__`` default, so every
# number lives in exactly one place (the signature — or, for the SIGMA
# operator settings, ``repro.config.SIGMA_DEFAULT_SIMRANK``).
# ``tests/test_models_registry.py`` asserts no silently diverging
# duplicates.
_DEFAULTS: Dict[str, Dict[str, object]] = {
    "mlp": {},
    "gcn": {},
    "sgc": {},
    "gat": {},
    "appnp": {},
    "mixhop": {"hidden": 32},  # Table VI: narrower because of the 3 powers
    "gcnii": {},
    "gprgnn": {},
    "h2gcn": {},
    "acmgcn": {},
    "linkx": {},
    "glognn": {},
    "pprgo": {},
    # The SIGMA operator defaults (ε = 0.1, k = 32) live in
    # repro.config.SIGMA_DEFAULT_SIMRANK, consumed by the model __init__.
    "sigma": {},
    "sigma_iterative": {},
}


def list_models() -> List[str]:
    """All registered model names."""
    return list(_REGISTRY)


def default_hyperparameters(name: str) -> Dict[str, object]:
    """A copy of the registry defaults for ``name``."""
    if name not in _DEFAULTS:
        raise ModelError(f"unknown model {name!r}; available: {', '.join(_REGISTRY)}")
    return dict(_DEFAULTS[name])


def model_parameters(name: str) -> FrozenSet[str]:
    """The hyper-parameter names model ``name``'s constructor accepts."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ModelError(f"unknown model {name!r}; available: {', '.join(_REGISTRY)}")
    parameters = inspect.signature(_REGISTRY[key]).parameters
    return frozenset(parameters) - {"graph", "rng"}


def create_model(name: str, graph: Graph, *, rng: RngLike = None,
                 **overrides: object) -> NodeClassifier:
    """Instantiate model ``name`` on ``graph`` with defaults plus ``overrides``."""
    key = name.lower()
    if key not in _REGISTRY:
        raise ModelError(f"unknown model {name!r}; available: {', '.join(_REGISTRY)}")
    hyperparameters = default_hyperparameters(key)
    hyperparameters.update(overrides)
    return _REGISTRY[key](graph, rng=rng, **hyperparameters)


__all__ = ["create_model", "list_models", "default_hyperparameters",
           "model_parameters"]
