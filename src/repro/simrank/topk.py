"""Top-k pruning and construction of the SIGMA aggregation operator.

The paper stores, for every node, only its ``k`` largest approximate
SimRank scores, reducing both memory (``O(k·n)``) and the per-epoch
aggregation cost (``O(k·n·f)``, Table III).  :func:`simrank_operator`
bundles the full precomputation pipeline used by the SIGMA model:

``graph → (exact | series | localpush) SimRank → top-k prune → CSR operator``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np
import scipy.sparse as sp

from repro.config import SimRankConfig
from repro.graphs.graph import Graph
from repro.graphs.sparse import sparse_row_normalize, top_k_per_row
from repro.simrank.cache import get_operator_cache, graph_fingerprint
from repro.simrank.exact import exact_simrank, linearized_simrank
from repro.simrank.localpush import localpush_simrank
from repro.utils.timer import Timer

Method = Literal["exact", "series", "localpush", "auto"]


def topk_simrank(matrix: sp.spmatrix | np.ndarray, k: int,
                 *, keep_diagonal: bool = True) -> sp.csr_matrix:
    """Keep the ``k`` largest SimRank scores per row.

    The diagonal (self-similarity) entry is preserved by default because the
    SIGMA update (Eq. (6)) mixes the aggregated embedding with the node's
    own embedding and losing the self entry would silently drop that term
    from ``S·H``.
    """
    if sp.issparse(matrix):
        sparse = sp.csr_matrix(matrix)
    else:
        sparse = sp.csr_matrix(np.asarray(matrix))
    return top_k_per_row(sparse, k, keep_diagonal=keep_diagonal)


@dataclass
class SimRankOperator:
    """The precomputed aggregation operator ``S`` plus provenance metadata."""

    matrix: sp.csr_matrix
    method: str
    decay: float
    epsilon: Optional[float]
    top_k: Optional[int]
    precompute_seconds: float
    #: True when the operator was served from a persistent cache instead of
    #: being recomputed; ``precompute_seconds`` then measures the load.
    cache_hit: bool = False
    #: Whether the rows were normalised to sum to one after pruning.
    row_normalize: bool = False
    #: Set on cross-ε/k cache reuse hits: the (tighter) ε′ and (larger) k′
    #: of the stored entry that was re-pruned to serve this request.
    reuse_source_epsilon: Optional[float] = None
    reuse_source_top_k: Optional[int] = None

    @property
    def nnz(self) -> int:
        return int(self.matrix.nnz)

    @property
    def average_entries_per_node(self) -> float:
        n = self.matrix.shape[0]
        return self.nnz / n if n else 0.0


def simrank_operator(graph: Graph,
                     config: Optional[SimRankConfig] = None) -> SimRankOperator:
    """Precompute the SimRank aggregation operator for a graph.

    ``config`` is a :class:`repro.config.SimRankConfig`::

        simrank_operator(graph, SimRankConfig(method="localpush",
                                              epsilon=0.1, top_k=32,
                                              cache_dir="~/.simrank-cache"))

    See :class:`repro.config.SimRankConfig` for the meaning of every
    field (method selection, ε, top-k pruning, the LocalPush worker
    count, and the persistent operator cache with its LRU byte cap).
    With ``config=None`` the library defaults apply.
    """
    config = config if config is not None else SimRankConfig()
    resolved = config.resolved_method(graph.num_nodes)
    key_fields = config.cache_key_fields(graph.num_nodes)

    cache_store = (None if config.cache_dir is None else
                   get_operator_cache(config.cache_dir,
                                      max_bytes=config.cache_max_bytes))

    key: Optional[str] = None
    fingerprint: Optional[str] = None
    timer = Timer()
    timer.start()
    if cache_store is not None:
        fingerprint = graph_fingerprint(graph)
        key = cache_store.key_for_fields(graph, key_fields,
                                         fingerprint=fingerprint)
        cached = cache_store.lookup(graph, fingerprint=fingerprint,
                                    **key_fields)
        if cached is not None:
            cached.precompute_seconds = timer.stop()
            return cached

    if resolved == "exact":
        dense = exact_simrank(graph, decay=config.decay)
        matrix = sp.csr_matrix(dense)
    elif resolved == "series":
        dense = linearized_simrank(graph, decay=config.decay,
                                   tolerance=config.epsilon / 10.0)
        dense[dense < config.epsilon / 10.0] = 0.0
        matrix = sp.csr_matrix(dense)
    else:
        # For the aggregation operator we keep sub-threshold residual mass
        # (a strict accuracy improvement) and let top-k do the pruning,
        # once, on the finished estimate below.
        result = localpush_simrank(graph, decay=config.decay,
                                   epsilon=config.epsilon,
                                   prune=config.top_k is None,
                                   absorb_residual=True,
                                   num_workers=config.workers,
                                   dtype=config.dtype)
        matrix = result.matrix
    if config.dtype == "float32" and matrix.dtype != np.float32:
        # The LocalPush core computes natively in float32; the dense
        # references have no reduced-precision path, so their operators
        # are computed exactly and rounded once at the end (a strictly
        # smaller error than carrying float32 through the iteration).
        matrix = matrix.astype(np.float32)

    if config.top_k is not None:
        matrix = topk_simrank(matrix, config.top_k)
    if config.row_normalize:
        matrix = sparse_row_normalize(matrix)
    matrix.sort_indices()

    operator = SimRankOperator(
        matrix=matrix,
        method=resolved,
        decay=config.decay,
        epsilon=key_fields["epsilon"],
        top_k=config.top_k,
        precompute_seconds=timer.stop(),
        row_normalize=config.row_normalize,
    )
    if cache_store is not None and key is not None:
        cache_store.store(key, operator, fingerprint=fingerprint)
    return operator


__all__ = ["topk_simrank", "simrank_operator", "SimRankOperator"]
