"""Validated edge-update deltas for evolving graphs.

The dynamic subsystem (:mod:`repro.dynamic`) repairs a LocalPush
operator instead of recomputing it when the underlying graph mutates.
This module defines the update language that drives it:

:class:`GraphDelta`
    One undirected edge update — ``insert``, ``delete`` or ``reweight``
    — validated at construction and canonicalised to ``u < v`` so two
    spellings of the same edge hash identically.
:class:`UpdateBatch`
    An ordered sequence of deltas, plus the dict round-trip the daemon's
    ``/update`` endpoint speaks.  A batch is never hashed: a repaired
    operator is cached under the fingerprint of the graph the batch
    produces (:meth:`repro.simrank.cache.OperatorCache.store_delta`).

Deltas are *strict*: an insert of an existing edge, a delete or
reweight of a missing one, a self-loop, or a non-positive weight is an
error (:class:`repro.errors.GraphError`) rather than a silent no-op —
the repair algebra assumes the delta describes exactly what changed.
The node set is fixed: updates address existing node ids only (bounds
are checked against the graph at application time by
:meth:`repro.graphs.graph.Graph.apply_delta`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import GraphError
from repro.utils.validation import is_integral

#: Update kinds accepted by :class:`GraphDelta`.
DELTA_KINDS = ("insert", "delete", "reweight")


@dataclass(frozen=True)
class GraphDelta:
    """One undirected edge update.

    ``insert`` adds a new edge with ``weight`` (default ``1.0``),
    ``delete`` removes an existing edge (``weight`` must be omitted),
    ``reweight`` changes an existing edge's weight.  Endpoints must be
    integral numbers (``0.9``, ``True`` and ``"5"`` are rejected, never
    truncated or parsed) and are canonicalised to ``u < v`` on
    construction — the graphs are undirected, so ``(3, 1)`` and
    ``(1, 3)`` name the same edge and must hash the same way.
    """

    kind: str
    u: int
    v: int
    weight: Optional[float] = None

    def __post_init__(self) -> None:
        coerce = object.__setattr__
        if self.kind not in DELTA_KINDS:
            raise GraphError(
                f"delta kind must be one of {DELTA_KINDS}, got {self.kind!r}")
        if not (is_integral(self.u) and is_integral(self.v)):
            raise GraphError(
                f"delta endpoints must be integers, got "
                f"({self.u!r}, {self.v!r})")
        u, v = int(self.u), int(self.v)
        if u < 0 or v < 0:
            raise GraphError(f"delta endpoints must be >= 0, got ({u}, {v})")
        if u == v:
            raise GraphError(f"self-loop delta on node {u} is not allowed")
        coerce(self, "u", min(u, v))
        coerce(self, "v", max(u, v))
        if self.kind == "delete":
            if self.weight is not None:
                raise GraphError(
                    f"delete delta must not carry a weight, got {self.weight!r}")
            return
        weight = 1.0 if self.weight is None else self.weight
        try:
            weight = float(weight)
        except (TypeError, ValueError):
            raise GraphError(
                f"delta weight must be a number, got {self.weight!r}") from None
        if not math.isfinite(weight) or weight <= 0.0:
            raise GraphError(
                f"delta weight must be finite and positive, got {weight}")
        coerce(self, "weight", weight)

    def to_dict(self) -> dict:
        """JSON-serialisable form (``weight`` omitted for deletes)."""
        record: dict = {"kind": self.kind, "u": self.u, "v": self.v}
        if self.weight is not None:
            record["weight"] = self.weight
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "GraphDelta":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        if not isinstance(record, Mapping):
            raise GraphError(f"delta record must be a mapping, got {record!r}")
        unknown = set(record) - {"kind", "u", "v", "weight"}
        if unknown:
            raise GraphError(f"unknown delta field(s) {sorted(unknown)}")
        missing = {"kind", "u", "v"} - set(record)
        if missing:
            raise GraphError(f"delta record missing field(s) {sorted(missing)}")
        return cls(kind=record["kind"], u=record["u"], v=record["v"],  # type: ignore[arg-type]
                   weight=record.get("weight"))  # type: ignore[arg-type]


#: Anything :meth:`UpdateBatch.coerce` accepts as an update stream.
Updates = Union["UpdateBatch", GraphDelta, Iterable[GraphDelta]]


@dataclass(frozen=True)
class UpdateBatch:
    """An ordered sequence of :class:`GraphDelta`, applied left to right.

    A batch may touch the same edge more than once (e.g. insert then
    reweight); the sequential semantics make that well-defined.
    """

    deltas: Tuple[GraphDelta, ...] = ()

    def __post_init__(self) -> None:
        deltas = tuple(self.deltas)
        for delta in deltas:
            if not isinstance(delta, GraphDelta):
                raise GraphError(
                    f"UpdateBatch entries must be GraphDelta, got {delta!r}")
        object.__setattr__(self, "deltas", deltas)

    @classmethod
    def coerce(cls, updates: Updates) -> "UpdateBatch":
        """Normalise a delta, a batch or an iterable of deltas to a batch."""
        if isinstance(updates, UpdateBatch):
            return updates
        if isinstance(updates, GraphDelta):
            return cls((updates,))
        try:
            return cls(tuple(updates))
        except TypeError:
            raise GraphError(
                f"updates must be an UpdateBatch, a GraphDelta or an "
                f"iterable of GraphDelta, got {updates!r}") from None

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self) -> Iterator[GraphDelta]:
        return iter(self.deltas)

    def touched_nodes(self) -> Tuple[int, ...]:
        """Sorted, de-duplicated endpoints of every delta in the batch."""
        return tuple(sorted({node for delta in self.deltas
                             for node in (delta.u, delta.v)}))

    def to_dict(self) -> dict:
        """JSON-serialisable form, the daemon's ``/update`` body shape."""
        return {"deltas": [delta.to_dict() for delta in self.deltas]}

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "UpdateBatch":
        """Inverse of :meth:`to_dict`; unknown fields are rejected."""
        if not isinstance(record, Mapping):
            raise GraphError(f"batch record must be a mapping, got {record!r}")
        unknown = set(record) - {"deltas"}
        if unknown:
            raise GraphError(f"unknown batch field(s) {sorted(unknown)}")
        deltas = record.get("deltas")
        if not isinstance(deltas, (list, tuple)):
            raise GraphError(
                f"batch record needs a 'deltas' list, got {deltas!r}")
        return cls(tuple(GraphDelta.from_dict(entry) for entry in deltas))


__all__ = ["GraphDelta", "UpdateBatch", "Updates", "DELTA_KINDS"]
