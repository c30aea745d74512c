"""Seeded input generators: the read mix and the update stream.

Every generator here is a pure function of the seed and of the graph it
draws against, so one ``--seed`` names one set of inputs and the program
under test receives only what these functions produce.  Each random
stream draws from its own ``numpy`` generator keyed by ``[seed, stream
id, ...]``, so adding a reader or a batch never shifts another stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graphs.delta import GraphDelta, UpdateBatch
from repro.graphs.graph import Graph

#: Zipf exponent of source popularity over the seeded node permutation.
ZIPF_EXPONENT = 1.1
#: Share of reads that are ``/topk`` (the rest are ``/score``).
TOPK_SHARE = 0.8
#: ``k`` of every ``/topk`` read.
READ_K = 10
#: Edits per ``/update`` batch.
EDITS_PER_BATCH = 4
#: Update kinds and their draw probabilities.
EDIT_KINDS = ("insert", "delete", "reweight")
EDIT_WEIGHTS = (0.4, 0.3, 0.3)

# Stream ids: the first key after the seed of every generator below.
_ORDER, _SOURCES, _MIX, _SAMPLE, _UPDATES = range(5)


@dataclass(frozen=True)
class Read:
    """One read request: ``topk`` of ``u``, or the ``score`` of ``(u, v)``."""

    kind: str
    u: int
    v: Optional[int] = None

    def path(self) -> str:
        """The HTTP request path the daemon answers."""
        if self.kind == "topk":
            return f"/topk?u={self.u}&k={READ_K}"
        return f"/score?u={self.u}&v={self.v}"


def popularity_order(seed: int, num_nodes: int) -> np.ndarray:
    """The seeded node permutation: entry ``r`` has Zipf rank ``r + 1``."""
    return np.random.default_rng([seed, _ORDER]).permutation(num_nodes)


def zipf_sources(seed: int, num_nodes: int, count: int,
                 stream: int = 0) -> np.ndarray:
    """``count`` query sources, Zipf(:data:`ZIPF_EXPONENT`)-popular."""
    ranks = np.arange(1, num_nodes + 1, dtype=np.float64)
    cdf = np.cumsum(ranks ** -ZIPF_EXPONENT)
    cdf /= cdf[-1]
    draws = np.random.default_rng([seed, _SOURCES, stream]).random(count)
    picks = np.minimum(np.searchsorted(cdf, draws, side="right"),
                       num_nodes - 1)
    return popularity_order(seed, num_nodes)[picks]


def read_mix(seed: int, num_nodes: int, count: int,
             stream: int = 0) -> List[Read]:
    """The first ``count`` reads of reader ``stream``.

    Sources follow :func:`zipf_sources`; :data:`TOPK_SHARE` of the reads
    are ``/topk``, the rest ``/score`` against a uniform partner node.
    """
    sources = zipf_sources(seed, num_nodes, count, stream)
    rng = np.random.default_rng([seed, _MIX, stream])
    is_topk = rng.random(count) < TOPK_SHARE
    partners = rng.integers(0, num_nodes, size=count)
    return [Read("topk", int(u)) if topk else Read("score", int(u), int(v))
            for u, topk, v in zip(sources, is_topk, partners)]


def checked_sources(seed: int, num_nodes: int, sample: int = 8,
                    pool: int = 32) -> Tuple[int, ...]:
    """A seeded sample of ``sample`` sources among the ``pool`` most popular."""
    pool = min(pool, num_nodes)
    picks = np.random.default_rng([seed, _SAMPLE]).choice(
        pool, size=min(sample, pool), replace=False)
    order = popularity_order(seed, num_nodes)
    return tuple(sorted(int(order[i]) for i in picks))


class _EdgeSet:
    """The undirected edge set a stream has reached, with O(1) sampling."""

    def __init__(self, graph: Graph) -> None:
        upper = sp.triu(graph.adjacency, k=1).tocoo()
        self.edges: List[Tuple[int, int]] = list(
            zip(upper.row.tolist(), upper.col.tolist()))
        self.weight: Dict[Tuple[int, int], float] = dict(
            zip(self.edges, upper.data.tolist()))
        self._slot = {edge: i for i, edge in enumerate(self.edges)}
        self.degree = np.diff(graph.adjacency.indptr).tolist()

    def add(self, edge: Tuple[int, int], weight: float) -> None:
        self._slot[edge] = len(self.edges)
        self.edges.append(edge)
        self.weight[edge] = weight
        self.degree[edge[0]] += 1
        self.degree[edge[1]] += 1

    def remove(self, edge: Tuple[int, int]) -> None:
        slot = self._slot.pop(edge)
        last = self.edges.pop()
        if last != edge:
            self.edges[slot] = last
            self._slot[last] = slot
        del self.weight[edge]
        self.degree[edge[0]] -= 1
        self.degree[edge[1]] -= 1


def update_stream(seed: int, graph: Graph,
                  num_batches: int) -> List[UpdateBatch]:
    """``num_batches`` batches of :data:`EDITS_PER_BATCH` valid edits.

    Each batch is drawn against the graph as it will be after every
    earlier batch, so applying the stream in order never raises: inserts
    name absent pairs, deletes and reweights present edges.  A batch
    touches each pair at most once, a delete never isolates a node, and
    a reweight always changes the weight.
    """
    rng = np.random.default_rng([seed, _UPDATES])
    edges = _EdgeSet(graph)
    n = graph.num_nodes
    batches: List[UpdateBatch] = []
    for _ in range(num_batches):
        touched: set = set()
        deltas: List[GraphDelta] = []
        while len(deltas) < EDITS_PER_BATCH:
            kind = EDIT_KINDS[int(rng.choice(len(EDIT_KINDS), p=EDIT_WEIGHTS))]
            if kind == "insert":
                u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
                edge = (u, v)
                if edge in edges.weight or edge in touched:
                    continue
                deltas.append(GraphDelta("insert", u, v))
                edges.add(edge, 1.0)
            else:
                edge = edges.edges[int(rng.integers(len(edges.edges)))]
                if edge in touched:
                    continue
                if kind == "delete":
                    if min(edges.degree[edge[0]], edges.degree[edge[1]]) < 2:
                        continue
                    deltas.append(GraphDelta("delete", *edge))
                    edges.remove(edge)
                else:
                    weight = round(float(rng.uniform(0.5, 2.0)), 3)
                    if weight == edges.weight[edge]:
                        continue
                    deltas.append(GraphDelta("reweight", *edge, weight=weight))
                    edges.weight[edge] = weight
            touched.add(edge)
        batches.append(UpdateBatch(tuple(deltas)))
    return batches


__all__ = ["Read", "READ_K", "EDITS_PER_BATCH", "popularity_order",
           "zipf_sources", "read_mix", "checked_sources", "update_stream"]
