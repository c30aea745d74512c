"""Persistent, content-addressed cache for precomputed SimRank operators.

LocalPush precompute dominates end-to-end cost of the scalability
experiments (Fig. 5, Table III), yet the operator is a pure function of
``(graph, method, c, ε, k, row_normalize, dtype)``.  This module stores
each computed :class:`repro.simrank.topk.SimRankOperator` on disk under a
content-addressed key so repeated experiment runs skip precompute
entirely.

Cache layout
------------
A cache directory is flat and holds one ``.npz`` file per operator and
nothing else::

    <cache-dir>/
        simrank-<fingerprint>-<key>.npz   # CSR arrays (data/indices/indptr/
                                          # shape) + a JSON metadata record

Each entry holds the members ``np.savez_compressed`` writes, deflated
at zlib level 1: on a repaired 2000-node snapshot (70k nonzeros) a
store takes about a quarter of the default level's time and writes
about 13% more bytes.  ``np.load`` reads either form, so entries
written at the default level still load.

``<fingerprint>`` is the *graph fingerprint* (a SHA-256 over the
adjacency CSR arrays — content-addressed, so renames and re-generations
of the same graph hit).  ``<key>`` is the SHA-256 (truncated to 32 hex
chars) of a canonical JSON payload containing the cache format version,
the fingerprint and the resolved operator parameters.  The parameter
fields are derived in exactly one place —
:meth:`repro.config.SimRankConfig.cache_key_fields` — and hashed here by
:meth:`OperatorCache.key_for_fields`.  Each file is its entry's whole
record: the embedded metadata is what the reuse scan matches, and the
file's modification time is its LRU stamp.

Eviction policy (LRU under a byte cap)
--------------------------------------
Every store and every exact or reuse hit stamps the entry's mtime with
the current time in nanoseconds (``os.utime``): the kernel's own write
stamps come from a coarse clock, on which two quick stores can tie.
Construct the cache with ``max_bytes`` (or pass
``cache_max_bytes=``/``--simrank-cache-max-bytes`` through the operator
pipeline) to cap the total size of stored entries.  Only then does a
store walk the directory: it stats every ``simrank-*.npz`` file and
deletes the oldest stamps first (ties by file name; counted as
``lru_eviction`` events) until the cap is met again.  The just-stored
entry is always retained, even if it alone exceeds the cap.  Without a
cap a store touches no file but its own.

Cross-ε / cross-k reuse
-----------------------
A LocalPush operator computed at a *tighter* threshold ``ε′ ≤ ε`` is a
strictly better approximation than one computed at ``ε``, and a top-k
pruned operator with ``k′ ≥ k`` is a superset of the ``k`` one.  On an
exact-key miss, :meth:`OperatorCache.lookup` therefore reads the
metadata of the graph's entries (``simrank-<fingerprint>-*.npz``) for
one with the same method and decay whose ``(ε′, k′)`` dominates the
request, loads it, and *re-prunes* it down to
the requested contract (``top_k_per_row`` for a smaller ``k``, the
``ε/10`` floor for a looser full-matrix request, re-normalisation when
rows were normalised — per-row scaling preserves score ranking, so
re-pruning a normalised operator selects the same support).  The reverse
direction never happens: a looser entry cannot serve a tighter request.
Reuse hits are counted separately (``reuse_hit``) from exact key hits
(``exact_hit``); :meth:`OperatorCache.stats` reports ``hits`` as their
sum.

Repaired snapshots
------------------
Dynamic repairs (:mod:`repro.dynamic`) store each repaired snapshot
through :meth:`OperatorCache.store_delta` under the ordinary key of the
graph it describes, so exact lookups, the reuse scan and row serving
find it like a fresh entry, and a graph an update stream revisits keeps
one entry.

Invalidation and corruption
---------------------------
* **Versioned invalidation** — :data:`CACHE_FORMAT_VERSION` participates in
  the key *and* is checked against the stored metadata on load; bumping it
  orphans every existing entry, and a stale or mismatched file is evicted
  (deleted) rather than trusted.  An orphaned file is never read, but it
  still counts toward a byte cap (its old stamp makes it the first LRU
  victim) and :meth:`OperatorCache.clear` deletes it.
* **Parameter verification** — the stored metadata must match the request
  exactly, guarding against key collisions and hand-edited files.
* **Corruption** — any load failure (truncated zip, missing arrays,
  malformed JSON) counts as a miss: the broken file is evicted and the
  operator is recomputed and re-stored.

Writes are atomic (a per-write unique temp file + ``os.replace``,
:func:`repro.utils.atomic.atomic_write`) so a crashed run never leaves a
half-written entry behind and concurrent writers never collide.  One
lock per cache instance serialises the capped store's directory walk
and :meth:`OperatorCache.clear`, so threads sharing a cache (the
daemon's snapshot writer beside its queries, say) never evict, or
count, the same victim twice; the event counter is atomic under its
registry's own lock, so they lose no counts either.

Counters
--------
Every cache event is counted once, on the
``repro_cache_events_total{event}`` counter of a
:class:`repro.telemetry.metrics.MetricsRegistry` the cache creates for
itself (:attr:`OperatorCache.registry`), so the count exists whether
telemetry is on or off.  The events are ``exact_hit``, ``reuse_hit``,
``miss``, ``store``, ``eviction`` (a corrupt, stale or mismatched file
deleted on load), ``lru_eviction`` (the byte-cap policy), ``row_hit``
and ``row_miss`` (single-source row serving by
:meth:`OperatorCache.lookup_row`, kept apart from the operator-level
events).  :meth:`OperatorCache.stats` is the one read: it returns the
nine counts by name, with ``hits`` computed as
``exact_hits + reuse_hits``.  The serving layer's ``/metrics`` ``cache``
section reads :meth:`~OperatorCache.stats` and its Prometheus scrape
renders :attr:`~OperatorCache.registry`, so the two always agree.
Consumers of one directory share one instance
(:func:`get_operator_cache`) and therefore one counter.
"""

from __future__ import annotations

import json
import os
import threading
import time
import zipfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.config import CACHE_KEY_FIELDS
from repro.graphs.fingerprint import graph_fingerprint, payload_digest
from repro.graphs.graph import Graph
from repro.telemetry.metrics import MetricsRegistry
from repro.utils.atomic import atomic_write

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simrank.topk import SimRankOperator

#: Bump to orphan every previously written cache entry (e.g. when the
#: on-disk layout or the operator semantics change).  Version 2: metadata
#: gained the graph fingerprint (needed by the reuse index) and the
#: unified engine core fixed the shard partition across all executors.
#: Version 3: the engine-family ``backend`` label left the key and the
#: metadata (every LocalPush operator now comes from the one engine
#: core), so a version-2 entry no longer describes its key and is
#: evicted as stale.  Version 4: an entry is named by its graph
#: fingerprint and key (``simrank-<fingerprint>-<key>.npz``) and the
#: sidecar index is gone; a version-3 file (``simrank-<key>.npz``) never
#: matches a version-4 name, so it is never read.
CACHE_FORMAT_VERSION = 4

_FILE_PREFIX = "simrank-"

#: :meth:`OperatorCache.stats` name → ``repro_cache_events_total`` event
#: label; ``hits`` is derived (``exact_hits + reuse_hits``).
CACHE_EVENTS = {
    "exact_hits": "exact_hit",
    "reuse_hits": "reuse_hit",
    "misses": "miss",
    "stores": "store",
    "evictions": "eviction",
    "lru_evictions": "lru_eviction",
    "row_hits": "row_hit",
    "row_misses": "row_miss",
}

#: Per-directory singleton registry so every consumer of the same cache
#: directory shares one instance — and therefore one event counter.
_CACHE_REGISTRY: Dict[Path, "OperatorCache"] = {}
_CACHE_REGISTRY_LOCK = threading.Lock()


def get_operator_cache(directory: str | os.PathLike,
                       max_bytes: Optional[int] = None) -> "OperatorCache":
    """Return the shared :class:`OperatorCache` for ``directory``.

    Memoised per resolved path: repeated calls (e.g. one per experiment
    grid cell) reuse the same instance and keep accumulating its counters.
    A non-``None`` ``max_bytes`` updates the shared instance's cap.
    """
    path = Path(directory).expanduser().resolve()
    with _CACHE_REGISTRY_LOCK:
        cache = _CACHE_REGISTRY.get(path)
        if cache is None:
            cache = OperatorCache(path, max_bytes=max_bytes)
            _CACHE_REGISTRY[path] = cache
        elif max_bytes is not None:
            cache.max_bytes = max_bytes
    return cache


def _stamp(path: Path) -> None:
    """Mark the entry at ``path`` most recently used (its mtime).

    An explicit nanosecond reading: the kernel's write and touch-now
    stamps come from a coarse clock, on which two quick stores can tie.
    An entry evicted in the meantime is left gone.
    """
    now = time.time_ns()
    try:
        os.utime(path, ns=(now, now))
    except FileNotFoundError:
        pass


class OperatorCache:
    """On-disk operator cache with LRU eviction and cross-ε/k reuse.

    Prefer :func:`get_operator_cache` over direct construction so the
    event counter is shared per directory (see the module docstring's
    *Counters*; read it with :meth:`stats`).
    """

    def __init__(self, directory: str | os.PathLike, *,
                 max_bytes: Optional[int] = None) -> None:
        self.directory = Path(directory).expanduser()
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes  # validated by the property setter
        self.registry = MetricsRegistry()
        self._event_counter = self.registry.counter(
            "repro_cache_events_total",
            "Operator cache events (hit/miss/store/eviction) by type.")
        # Every event starts as a zero series, so a scrape lists all of
        # them from the first request on.
        for event in CACHE_EVENTS.values():
            self._event_counter.inc(0.0, event=event)
        #: Serialises the capped store's directory walk and :meth:`clear`.
        self._lock = threading.Lock()

    def _count(self, event: str) -> None:
        self._event_counter.inc(1.0, event=event)

    def stats(self) -> Dict[str, int]:
        """The nine event counts, read from one snapshot of the counter.

        ``hits`` (= ``exact_hits + reuse_hits``), ``exact_hits``,
        ``reuse_hits``, ``misses``, ``stores``, ``evictions``,
        ``lru_evictions``, ``row_hits``, ``row_misses``.
        """
        by_event = {dict(key)["event"]: value
                    for key, value in self._event_counter.series().items()}
        counts = {name: int(by_event[event])
                  for name, event in CACHE_EVENTS.items()}
        return {"hits": counts["exact_hits"] + counts["reuse_hits"],
                **counts}

    @property
    def max_bytes(self) -> Optional[int]:
        """Byte cap for stored entries (``None`` = unbounded).

        Validated on every assignment — late updates (the
        :func:`get_operator_cache` registry and the
        ``cache_max_bytes=`` pipeline parameter reach existing
        instances) must not smuggle in a cap that would evict the whole
        directory on the next store.
        """
        return self._max_bytes

    @max_bytes.setter
    def max_bytes(self, value: Optional[int]) -> None:
        if value is not None and value <= 0:
            raise ValueError(f"max_bytes must be positive, got {value}")
        self._max_bytes = value

    # ------------------------------------------------------------------ #
    def key_for_fields(self, graph: Graph, fields: Dict[str, object], *,
                       fingerprint: Optional[str] = None) -> str:
        """Content-addressed key for one operator configuration.

        ``fields`` is the mapping produced by
        :meth:`repro.config.SimRankConfig.cache_key_fields` — the single
        derivation of the key tuple.  The cache only *hashes*: it never
        decides what enters the key.  A field set that drifts from
        :data:`repro.config.CACHE_KEY_FIELDS` is rejected so the two
        modules cannot silently disagree.  ``fingerprint``, when the
        caller already holds ``graph``'s, saves hashing it again.
        """
        if set(fields) != set(CACHE_KEY_FIELDS):
            raise ValueError(
                f"cache key fields must be exactly {sorted(CACHE_KEY_FIELDS)}, "
                f"got {sorted(fields)}")
        hashed = dict(fields)
        if hashed.get("dtype") is None:
            # float64 (the reference precision) is encoded as
            # ``dtype: None`` by ``cache_key_fields`` and *omitted* from
            # the hashed payload.
            del hashed["dtype"]
        return payload_digest({
            "version": CACHE_FORMAT_VERSION,
            "graph": fingerprint or graph_fingerprint(graph),
            **hashed,
        })

    def store_delta(self, graph: Graph, fields: Dict[str, object],
                    operator: "SimRankOperator") -> Path:
        """Persist a repaired operator under the key of ``graph``.

        ``graph`` is the updated graph the repaired ``operator``
        describes, and ``fields`` its cache-key fields.  The graph is
        fingerprinted once, for the key and the entry metadata alike, so
        the entry serves exact lookups, the reuse scan and row serving
        on that graph: a repaired operator satisfies the same
        ``(1−c)·ε`` contract as a fresh one.
        """
        fingerprint = graph_fingerprint(graph)
        key = self.key_for_fields(graph, fields, fingerprint=fingerprint)
        return self.store(key, operator, fingerprint=fingerprint)

    def path_for(self, key: str, fingerprint: str) -> Path:
        """Where the entry ``key`` of the graph ``fingerprint`` lives."""
        return self.directory / f"{_FILE_PREFIX}{fingerprint}-{key}.npz"

    def __len__(self) -> int:
        return sum(1 for path in self.directory.glob(f"{_FILE_PREFIX}*.npz"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        with self._lock:
            for path in self.directory.glob(f"{_FILE_PREFIX}*.npz"):
                path.unlink()
                removed += 1
        return removed

    def _enforce_budget(self, cap: int, protect: Path) -> None:
        """Evict the oldest-stamped entries until ``cap`` bytes are met.

        One ``os.scandir`` walk, under the instance lock (see
        :meth:`store`); ``protect``, the entry just stored, stays.
        """
        total = 0
        victims: List[Tuple[int, str, int]] = []
        with os.scandir(self.directory) as scan:
            for item in scan:
                if not (item.name.startswith(_FILE_PREFIX)
                        and item.name.endswith(".npz")):
                    continue
                try:
                    status = item.stat()
                except FileNotFoundError:
                    continue  # deleted since the listing
                total += status.st_size
                if item.name != protect.name:
                    victims.append(
                        (status.st_mtime_ns, item.name, status.st_size))
        victims.sort()
        for _, name, size in victims:
            if total <= cap:
                break
            (self.directory / name).unlink(missing_ok=True)
            total -= size
            self._count("lru_eviction")

    # ------------------------------------------------------------------ #
    # Load / store
    # ------------------------------------------------------------------ #
    def _load(self, path: Path, *, expect: Optional[dict] = None
              ) -> Optional["SimRankOperator"]:
        """Deserialize the entry at ``path`` without touching counters.

        Corrupt, stale-format or mismatched files are evicted (deleted and
        counted as an ``eviction``); the caller decides hit/miss accounting.
        """
        from repro.simrank.topk import SimRankOperator

        if not path.exists():
            return None
        try:
            # Our own handle: np.load leaks the file it opens itself when
            # the zip parse of a truncated entry fails.
            with open(path, "rb") as handle, \
                    np.load(handle, allow_pickle=False) as payload:
                meta = json.loads(str(payload["meta"]))
                if meta.get("version") != CACHE_FORMAT_VERSION:
                    raise ValueError(
                        f"cache format version {meta.get('version')} != "
                        f"{CACHE_FORMAT_VERSION}")
                for field, expected in (expect or {}).items():
                    if meta.get(field) != expected:
                        raise ValueError(
                            f"metadata mismatch for {field!r}: "
                            f"{meta.get(field)!r} != {expected!r}")
                shape = tuple(int(side) for side in payload["shape"])
                matrix = sp.csr_matrix(
                    (payload["data"], payload["indices"], payload["indptr"]),
                    shape=shape)
                matrix.check_format(full_check=True)
        except Exception:
            # Truncated, corrupted, stale-format or mismatched entry: evict
            # so the caller recomputes and overwrites with a fresh file.
            self._count("eviction")
            path.unlink(missing_ok=True)
            return None
        return SimRankOperator(
            matrix=matrix,
            method=str(meta["method"]),
            decay=float(meta["decay"]),
            epsilon=None if meta["epsilon"] is None else float(meta["epsilon"]),
            top_k=None if meta["top_k"] is None else int(meta["top_k"]),
            precompute_seconds=0.0,
            cache_hit=True,
            row_normalize=bool(meta.get("row_normalize", False)),
        )

    # ------------------------------------------------------------------ #
    # Cross-ε / cross-k reuse
    # ------------------------------------------------------------------ #
    @staticmethod
    def _can_serve(entry: dict, *, fingerprint: str, method: str,
                   decay: float, epsilon: float, top_k: Optional[int],
                   row_normalize: bool, dtype: Optional[str] = None) -> bool:
        """Whether a stored entry dominates the requested contract.

        Domination is directional by construction: a tighter ``ε′ ≤ ε``
        and a larger ``k′ ≥ k`` can be re-pruned down to the request; the
        reverse never qualifies.  The normalisation flag must match the
        request (the keyed contract — raw and normalised operators never
        substitute for each other); re-pruning a normalised entry to a
        smaller ``k`` is sound because per-row scaling preserves score
        ranking.  A normalised *full-matrix* entry cannot be
        floor-re-pruned (its raw magnitudes are gone), so it only serves
        a request at the same ``ε``.
        """
        if entry.get("fingerprint") != fingerprint:
            return False
        if entry.get("method") != "localpush" or method != "localpush":
            return False
        if entry.get("decay") != decay:
            return False
        if bool(entry.get("row_normalize", False)) != row_normalize:
            return False
        # Precision is part of the contract: a float32 entry never
        # serves a float64 request or vice versa (``None`` ≡ float64).
        if entry.get("dtype") != dtype:
            return False
        candidate_epsilon = entry.get("epsilon")
        if candidate_epsilon is None or candidate_epsilon > epsilon:
            return False
        candidate_k = entry.get("top_k")
        if top_k is None:
            if candidate_k is not None:
                return False
            return not row_normalize or candidate_epsilon == epsilon
        return candidate_k is None or candidate_k >= top_k

    def _reprune(self, candidate: "SimRankOperator", *, epsilon: float,
                 top_k: Optional[int], row_normalize: bool) -> sp.csr_matrix:
        """Re-prune a dominating entry down to the requested contract."""
        from repro.graphs.sparse import (floor_prune, sparse_row_normalize,
                                         top_k_per_row)

        matrix = candidate.matrix
        if top_k is not None:
            if candidate.top_k is None or candidate.top_k > top_k:
                matrix = top_k_per_row(matrix, top_k, keep_diagonal=True)
                if row_normalize:
                    # Per-row scaling preserved the ranking, so the pruned
                    # support is exact; restore the rows-sum-to-one
                    # contract over it.
                    matrix = sparse_row_normalize(matrix)
        elif (not row_normalize and candidate.epsilon is not None
              and candidate.epsilon < epsilon):
            matrix = floor_prune(matrix, epsilon / 10.0)
        matrix.sort_indices()
        return matrix

    def _closest_dominating(self, fingerprint: str, *, method: str,
                            decay: float, epsilon: float,
                            top_k: Optional[int], row_normalize: bool,
                            dtype: Optional[str]
                            ) -> Optional[Tuple["SimRankOperator", float]]:
        """Load the closest stored entry that dominates the request.

        Reads the embedded metadata of the graph's entries
        (``simrank-<fingerprint>-*.npz``), filters it with
        :meth:`_can_serve` and tries the entries closest first: largest
        ``ε′`` (least over-computation), then smallest sufficient ``k′``
        (least to load and re-prune), then most recently used.  An
        unreadable file is skipped (the exact-load path evicts it), as is
        an entry :meth:`_load` evicts.  Returns the loaded entry and its
        ``ε′``, or ``None``; counting the hit or miss is the caller's.
        """
        candidates: List[Tuple[Path, dict, int]] = []
        for path in self.directory.glob(f"{_FILE_PREFIX}{fingerprint}-*.npz"):
            try:
                # Our own handle, as in _load.
                with open(path, "rb") as handle, \
                        np.load(handle, allow_pickle=False) as payload:
                    entry = json.loads(str(payload["meta"]))
                    stamp = os.fstat(handle.fileno()).st_mtime_ns
                serves = self._can_serve(
                    entry, fingerprint=fingerprint, method=method,
                    decay=decay, epsilon=epsilon, top_k=top_k,
                    row_normalize=row_normalize, dtype=dtype)
            except Exception:
                continue  # unreadable; the exact-load path will evict it
            if serves:
                candidates.append((path, entry, stamp))
        candidates.sort(key=lambda item: (
            -float(item[1]["epsilon"]),
            float("inf") if item[1]["top_k"] is None else item[1]["top_k"],
            -item[2], item[0].name))
        for path, entry, _ in candidates:
            candidate = self._load(path)
            if candidate is not None:
                _stamp(path)
                return candidate, float(entry["epsilon"])
        return None

    def lookup(self, graph: Graph, *, method: str, decay: float,
               epsilon: Optional[float], top_k: Optional[int],
               row_normalize: bool, dtype: Optional[str] = None,
               fingerprint: Optional[str] = None
               ) -> Optional["SimRankOperator"]:
        """Serve a request from the cache, by exact key or by reuse.

        The exact key is tried first (an ``exact_hit``).  On a miss, if
        the request is a LocalPush operator, the closest entry computed
        at a tighter ``ε′ ≤ ε`` with ``k′ ≥ k`` on the same graph/decay
        (:meth:`_closest_dominating`) is re-pruned to the requested
        contract and served as a ``reuse_hit``.  Anything else is a miss.
        """
        from repro.simrank.topk import SimRankOperator

        fields: Dict[str, object] = {
            "method": method, "decay": decay, "epsilon": epsilon,
            "top_k": top_k, "row_normalize": row_normalize, "dtype": dtype}
        fingerprint = fingerprint or graph_fingerprint(graph)
        path = self.path_for(
            self.key_for_fields(graph, fields, fingerprint=fingerprint),
            fingerprint)
        # float64 entries carry no dtype marker in their metadata, so
        # float64 requests skip the check.
        expect = {name: value for name, value in fields.items()
                  if name != "dtype" or value is not None}
        exact = self._load(path, expect=expect)
        if exact is not None:
            self._count("exact_hit")
            _stamp(path)
            return exact

        if method == "localpush" and epsilon is not None:
            served = self._closest_dominating(
                fingerprint, method=method, decay=decay, epsilon=epsilon,
                top_k=top_k, row_normalize=row_normalize, dtype=dtype)
            if served is not None:
                candidate = served[0]
                matrix = self._reprune(candidate, epsilon=epsilon,
                                       top_k=top_k,
                                       row_normalize=row_normalize)
                self._count("reuse_hit")
                return SimRankOperator(
                    matrix=matrix,
                    method=method,
                    decay=decay,
                    epsilon=epsilon,
                    top_k=top_k,
                    precompute_seconds=0.0,
                    cache_hit=True,
                    row_normalize=row_normalize,
                    reuse_source_epsilon=candidate.epsilon,
                    reuse_source_top_k=candidate.top_k,
                )

        self._count("miss")
        return None

    def lookup_row(self, graph: Graph, source: int, *, decay: float,
                   epsilon: float, top_k: Optional[int],
                   row_normalize: bool, dtype: Optional[str] = None,
                   fingerprint: Optional[str] = None
                   ) -> Optional[Tuple[sp.csr_matrix, float]]:
        """Serve one row of a LocalPush operator from any dominating entry.

        A cached all-pairs entry answers any single-source request
        without recompute: the closest entry that dominates the request
        (:meth:`_closest_dominating`, the relation :meth:`lookup` uses)
        is loaded, and its row ``source`` is sliced out and re-pruned to
        the requested contract with the exact :meth:`_reprune` semantics
        (``top_k_per_row(..., keep_diagonal=True)`` / ``ε/10`` floor /
        re-normalisation), applied to the single row.  ``source`` is
        checked like every single-source query's node id
        (:func:`repro.simrank.engine._validate_sources`).

        Returns ``(row, entry_epsilon)`` — the ``1×n`` CSR row and the
        ``ε′`` the stored entry was computed at (the error bound the
        answer actually satisfies) — or ``None`` on a miss.  Counted as a
        ``row_hit``/``row_miss``, never as an operator-level event.
        """
        import dataclasses

        from repro.simrank.engine import _validate_sources

        row = int(_validate_sources(graph, [source])[0])
        n = graph.num_nodes
        served = self._closest_dominating(
            fingerprint or graph_fingerprint(graph), method="localpush",
            decay=decay, epsilon=epsilon, top_k=top_k,
            row_normalize=row_normalize, dtype=dtype)
        if served is None:
            self._count("row_miss")
            return None
        candidate, entry_epsilon = served
        # Embed the sliced row back at its original index so the shared
        # re-prune semantics (keep_diagonal targets column ``row``) apply
        # unchanged; every re-prune step is row-independent, so this
        # equals slicing a fully re-pruned operator at O(row) cost
        # instead of O(nnz).
        sliced = sp.csr_matrix(candidate.matrix).getrow(row)
        indptr = np.zeros(n + 1, dtype=sliced.indptr.dtype)
        indptr[row + 1:] = sliced.nnz
        embedded = sp.csr_matrix(
            (sliced.data, sliced.indices, indptr), shape=(n, n))
        matrix = self._reprune(
            dataclasses.replace(candidate, matrix=embedded),
            epsilon=epsilon, top_k=top_k, row_normalize=row_normalize)
        self._count("row_hit")
        return matrix.getrow(row), entry_epsilon

    # ------------------------------------------------------------------ #
    def store(self, key: str, operator: "SimRankOperator", *,
              fingerprint: str) -> Path:
        """Atomically persist ``operator`` as entry ``key`` of a graph.

        ``fingerprint`` (the graph fingerprint) names the file and is
        recorded in its metadata, so the reuse scan finds and matches
        it.  The entry is stamped most recently used; under a byte cap
        the store then evicts least-recently-used other entries.
        """
        matrix = sp.csr_matrix(operator.matrix)
        # Key-field encoding: float64 (the reference precision) is
        # recorded as None.
        dtype = "float32" if matrix.dtype == np.float32 else None
        meta = json.dumps({
            "version": CACHE_FORMAT_VERSION,
            "fingerprint": fingerprint,
            "method": operator.method,
            "decay": operator.decay,
            "epsilon": operator.epsilon,
            "top_k": operator.top_k,
            "row_normalize": operator.row_normalize,
            "dtype": dtype,
            "precompute_seconds": operator.precompute_seconds,
        })
        members = {
            "data": matrix.data,
            "indices": matrix.indices,
            "indptr": matrix.indptr,
            "shape": np.asarray(matrix.shape, dtype=np.int64),
            "meta": np.asarray(meta),
        }
        path = self.path_for(key, fingerprint)
        # np.savez_compressed's layout at zlib level 1 (it deflates at the
        # default level 6, about 4× the time for 12% fewer bytes).
        with atomic_write(path, "wb") as handle, \
                zipfile.ZipFile(handle, "w", zipfile.ZIP_DEFLATED,
                                compresslevel=1) as archive:
            for name, array in members.items():
                with archive.open(f"{name}.npy", "w",
                                  force_zip64=True) as member:
                    np.lib.format.write_array(member, array,
                                              allow_pickle=False)
        _stamp(path)
        self._count("store")
        cap = self.max_bytes
        if cap is not None:
            # Locked, so two threads never evict (and count) one victim.
            with self._lock:
                self._enforce_budget(cap, protect=path)
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = ", ".join(f"{name}={value}"
                           for name, value in self.stats().items())
        return (f"OperatorCache({str(self.directory)!r}, {counts}, "
                f"max_bytes={self.max_bytes})")


__all__ = ["OperatorCache", "get_operator_cache", "graph_fingerprint",
           "CACHE_FORMAT_VERSION"]
