"""Persistent, content-addressed cache for precomputed SimRank operators.

LocalPush precompute dominates end-to-end cost of the scalability
experiments (Fig. 5, Table III), yet the operator is a pure function of
``(graph, method, c, ε, k, row_normalize, dtype)``.  This module stores
each computed :class:`repro.simrank.topk.SimRankOperator` on disk under a
content-addressed key so repeated experiment runs skip precompute
entirely.

Cache layout
------------
A cache directory holds one ``.npz`` file per operator plus a sidecar
index::

    <cache-dir>/
        simrank-<key>.npz            # CSR arrays (data/indices/indptr/shape)
                                     # + a JSON metadata record
        simrank-cache-index.json     # per-entry parameters, sizes and
                                     # LRU clock (rebuildable from the
                                     # .npz metadata at any time)

``<key>`` is the SHA-256 (truncated to 32 hex chars) of a canonical JSON
payload containing the cache format version, the *graph fingerprint* (a
SHA-256 over the adjacency CSR arrays — content-addressed, so renames and
re-generations of the same graph hit) and the resolved operator
parameters.  The parameter fields are derived in exactly one place —
:meth:`repro.config.SimRankConfig.cache_key_fields` — and hashed here by
:meth:`OperatorCache.key_for_fields`.  The worker count is
deliberately excluded from the key: the engine core is bit-deterministic
across pool sizes, so operators computed with any of them are
interchangeable.

Eviction policy (LRU under a byte cap)
--------------------------------------
Construct the cache with ``max_bytes`` (or pass
``cache_max_bytes=``/``--simrank-cache-max-bytes`` through the operator
pipeline) to cap the total size of stored entries.  Every store and every
hit advances a logical LRU clock persisted in the sidecar index; when a
store pushes the directory over the cap, least-recently-used entries are
deleted (counted as ``lru_eviction`` events) until the cap is met
again.  The just-stored entry is always retained, even if it alone
exceeds the cap.

Cross-ε / cross-k reuse
-----------------------
A LocalPush operator computed at a *tighter* threshold ``ε′ ≤ ε`` is a
strictly better approximation than one computed at ``ε``, and a top-k
pruned operator with ``k′ ≥ k`` is a superset of the ``k`` one.  On an
exact-key miss, :meth:`OperatorCache.lookup` therefore scans the index
for an entry with the same graph fingerprint, method and decay whose
``(ε′, k′)`` dominates the request, loads it, and *re-prunes* it down to
the requested contract (``top_k_per_row`` for a smaller ``k``, the
``ε/10`` floor for a looser full-matrix request, re-normalisation when
rows were normalised — per-row scaling preserves score ranking, so
re-pruning a normalised operator selects the same support).  The reverse
direction never happens: a looser entry cannot serve a tighter request.
Reuse hits are counted separately (``reuse_hit``) from exact key hits
(``exact_hit``); :meth:`OperatorCache.stats` reports ``hits`` as their
sum.

Delta-chained entries
---------------------
Dynamic repairs (:mod:`repro.dynamic`) store their repaired snapshots
under a key derived from the *base* graph fingerprint plus the update
batch's content hash (:meth:`OperatorCache.delta_key_for`), so a warm
base entry plus a small delta is addressable without the updated CSR.
Chained entries carry the *updated* graph's fingerprint in their
metadata and therefore also participate in the ordinary reuse scan and
row serving for requests on the updated graph — a repaired operator
satisfies the same ``(1−c)·ε`` contract as a freshly computed one.

Invalidation and corruption
---------------------------
* **Versioned invalidation** — :data:`CACHE_FORMAT_VERSION` participates in
  the key *and* is checked against the stored metadata on load; bumping it
  orphans every existing entry, and a stale or mismatched file is evicted
  (deleted) rather than trusted.
* **Parameter verification** — the stored metadata must match the request
  exactly, guarding against key collisions and hand-edited files.
* **Corruption** — any load failure (truncated zip, missing arrays,
  malformed JSON) counts as a miss: the broken file is evicted and the
  operator is recomputed and re-stored.

Writes are atomic (a per-write unique temp file + ``os.replace``,
:func:`repro.utils.atomic.atomic_write`) so a crashed run never leaves a
half-written entry behind and concurrent writers never collide.  One
lock per cache instance serialises the sidecar index's read-modify-write,
so threads sharing a cache (a threaded experiment sweep, the daemon's
background repair beside its queries) lose no index entries; the event
counter is atomic under its registry's own lock, so they lose no counts
either.

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
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.config import CACHE_KEY_FIELDS
from repro.errors import SimRankError
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
#: evicted as stale.
CACHE_FORMAT_VERSION = 3

_FILE_PREFIX = "simrank-"
_INDEX_NAME = "simrank-cache-index.json"

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


def _floor_prune(matrix: sp.csr_matrix, floor: float) -> sp.csr_matrix:
    """Drop entries below ``floor``, never the diagonal (paper's prune)."""
    from repro.graphs.sparse import csr_row_indices

    rows = csr_row_indices(matrix)
    keep = (matrix.data >= floor) | (rows == matrix.indices)
    matrix.data[~keep] = 0.0
    matrix.eliminate_zeros()
    return matrix


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
        #: Guards the sidecar index's read-modify-write.
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
    def key_for_fields(self, graph: Graph, fields: Dict[str, object]) -> str:
        """Content-addressed key for one operator configuration.

        ``fields`` is the mapping produced by
        :meth:`repro.config.SimRankConfig.cache_key_fields` — the single
        derivation of the key tuple.  The cache only *hashes*: it never
        decides what enters the key.  A field set that drifts from
        :data:`repro.config.CACHE_KEY_FIELDS` is rejected so the two
        modules cannot silently disagree.
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
            "graph": graph_fingerprint(graph),
            **hashed,
        })

    def key_for(self, graph: Graph, *, method: str, decay: float,
                epsilon: Optional[float], top_k: Optional[int],
                row_normalize: bool, dtype: Optional[str] = None) -> str:
        """Keyword-argument form of :meth:`key_for_fields` (same key).

        ``dtype`` uses the key-field encoding: ``None`` for float64 (the
        reference precision, omitted from the hash), the dtype name
        otherwise.
        """
        return self.key_for_fields(graph, {
            "method": method,
            "decay": decay,
            "epsilon": epsilon,
            "top_k": top_k,
            "row_normalize": row_normalize,
            "dtype": dtype,
        })

    def delta_key_for(self, base_fingerprint: str, delta_hash: str,
                      fields: Dict[str, object]) -> str:
        """Content-addressed key for a delta-chained (repaired) entry.

        Dynamic repairs (:mod:`repro.dynamic`) key their snapshots off
        the *base* graph fingerprint plus the update batch's content
        hash (:meth:`repro.graphs.delta.UpdateBatch.content_hash`)
        instead of the updated graph's fingerprint, so a process that
        holds the base graph and the delta can address the repaired
        operator without materialising the updated CSR first.  The
        parameter fields are the same
        :meth:`repro.config.SimRankConfig.cache_key_fields` mapping the
        plain key uses — rejected on drift, hashed through the shared
        :func:`repro.graphs.fingerprint.payload_digest` path.
        """
        if set(fields) != set(CACHE_KEY_FIELDS):
            raise ValueError(
                f"cache key fields must be exactly {sorted(CACHE_KEY_FIELDS)}, "
                f"got {sorted(fields)}")
        hashed = dict(fields)
        if hashed.get("dtype") is None:
            del hashed["dtype"]
        return payload_digest({
            "version": CACHE_FORMAT_VERSION,
            "base": base_fingerprint,
            "delta": delta_hash,
            **hashed,
        })

    def lookup_delta(self, base_fingerprint: str, delta_hash: str,
                     fields: Dict[str, object]
                     ) -> Optional["SimRankOperator"]:
        """Load the repaired operator chained off ``base + delta``.

        Metadata is verified against ``fields`` exactly as for plain
        exact-key hits; a hit counts as an ``exact_hit`` and bumps the
        LRU clock, a miss (or a corrupt/stale file, evicted) counts as a
        miss.
        """
        key = self.delta_key_for(base_fingerprint, delta_hash, fields)
        expect = {name: value for name, value in fields.items()
                  if name != "dtype" or value is not None}
        return self.load(key, expect=expect)

    def store_delta(self, base_fingerprint: str, delta_hash: str,
                    fields: Dict[str, object],
                    operator: "SimRankOperator", *,
                    fingerprint: Optional[str] = None) -> Path:
        """Persist a repaired operator under its delta-chained key.

        ``fingerprint`` is the *updated* graph's fingerprint — recorded
        in the entry metadata, so besides the chain addressing the entry
        also joins the ordinary reuse scan (and row serving) for any
        later request on the updated graph: a repaired operator
        satisfies the same ``(1−c)·ε`` contract as a fresh one.
        """
        key = self.delta_key_for(base_fingerprint, delta_hash, fields)
        return self.store(key, operator, fingerprint=fingerprint)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{_FILE_PREFIX}{key}.npz"

    def __len__(self) -> int:
        return sum(1 for path in self.directory.glob(f"{_FILE_PREFIX}*.npz"))

    def clear(self) -> int:
        """Delete every cache entry; returns the number removed."""
        removed = 0
        with self._lock:
            for path in self.directory.glob(f"{_FILE_PREFIX}*.npz"):
                path.unlink()
                removed += 1
            self._index_path.unlink(missing_ok=True)
        return removed

    # ------------------------------------------------------------------ #
    # Sidecar index (LRU clock + reuse parameters)
    # ------------------------------------------------------------------ #
    @property
    def _index_path(self) -> Path:
        return self.directory / _INDEX_NAME

    def _load_index(self) -> dict:
        try:
            index = json.loads(self._index_path.read_text())
            if (not isinstance(index, dict)
                    or not isinstance(index.get("entries"), dict)):
                raise ValueError("malformed index")
        except Exception:
            index = {"version": CACHE_FORMAT_VERSION, "clock": 0, "entries": {}}
        return index

    def _save_index(self, index: dict) -> None:
        with atomic_write(self._index_path) as handle:
            handle.write(json.dumps(index, sort_keys=True))

    def _key_of_path(self, path: Path) -> str:
        return path.name[len(_FILE_PREFIX):-len(".npz")]

    def _sync_index(self, index: dict) -> dict:
        """Reconcile the index with the directory contents.

        Entries whose file disappeared are dropped; files the index does
        not know (written by an older revision or another process) are
        adopted by reading their embedded metadata, so LRU accounting and
        the reuse scan always see the whole directory.
        """
        entries = index["entries"]
        on_disk = {self._key_of_path(path): path
                   for path in self.directory.glob(f"{_FILE_PREFIX}*.npz")}
        for key in [key for key in entries if key not in on_disk]:
            del entries[key]
        for key, path in on_disk.items():
            if key in entries:
                continue
            try:
                with np.load(path, allow_pickle=False) as payload:
                    meta = json.loads(str(payload["meta"]))
            except Exception:
                continue  # unreadable; the exact-load path will evict it
            entries[key] = {
                "fingerprint": meta.get("fingerprint"),
                "method": meta.get("method"),
                "decay": meta.get("decay"),
                "epsilon": meta.get("epsilon"),
                "top_k": meta.get("top_k"),
                "row_normalize": bool(meta.get("row_normalize", False)),
                "dtype": meta.get("dtype"),
                "bytes": path.stat().st_size,
                "last_used": 0,
            }
        return index

    def _touch(self, index: dict, key: str) -> None:
        index["clock"] = int(index.get("clock", 0)) + 1
        if key in index["entries"]:
            index["entries"][key]["last_used"] = index["clock"]

    def _touch_key(self, key: str, *, sync: bool = False) -> None:
        """Advance the LRU clock to ``key`` in one locked index update.

        ``sync`` first reconciles the index with the directory, so an
        entry adopted by a reuse scan is recorded with its new clock.
        """
        with self._lock:
            index = self._load_index()
            if sync:
                index = self._sync_index(index)
            self._touch(index, key)
            self._save_index(index)

    def _drop_entry(self, key: str) -> None:
        with self._lock:
            index = self._load_index()
            if key in index["entries"]:
                del index["entries"][key]
                self._save_index(index)

    def _enforce_budget(self, index: dict, protect: str) -> None:
        """Evict LRU entries until the byte cap is met (``protect`` stays).

        Runs inside :meth:`store`'s locked index update.
        """
        if self.max_bytes is None:
            return
        entries = index["entries"]
        total = sum(int(entry.get("bytes", 0)) for entry in entries.values())
        while total > self.max_bytes:
            victims = [key for key in entries if key != protect]
            if not victims:
                break
            victim = min(victims,
                         key=lambda key: int(entries[key].get("last_used", 0)))
            total -= int(entries[victim].get("bytes", 0))
            self.path_for(victim).unlink(missing_ok=True)
            del entries[victim]
            self._count("lru_eviction")

    # ------------------------------------------------------------------ #
    # Load / store
    # ------------------------------------------------------------------ #
    def _load(self, key: str, *, expect: Optional[dict] = None
              ) -> Optional["SimRankOperator"]:
        """Deserialize the entry under ``key`` without touching counters.

        Corrupt, stale-format or mismatched files are evicted (deleted and
        counted as an ``eviction``); the caller decides hit/miss accounting.
        """
        from repro.simrank.topk import SimRankOperator

        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as payload:
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
            self._drop_entry(key)
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

    def load(self, key: str, *, expect: Optional[dict] = None
             ) -> Optional["SimRankOperator"]:
        """Load the operator stored under ``key``, or ``None`` on a miss.

        ``expect`` maps metadata field names to required values (the
        resolved request parameters); a mismatch — as well as a version
        mismatch or any deserialisation failure — evicts the file and
        counts as a miss.  Exact-key hits bump the LRU clock.
        """
        operator = self._load(key, expect=expect)
        if operator is None:
            self._count("miss")
            return None
        self._count("exact_hit")
        self._touch_key(key)
        return operator

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
        from repro.graphs.sparse import sparse_row_normalize, top_k_per_row

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
            matrix = _floor_prune(matrix, epsilon / 10.0)
        matrix.sort_indices()
        return matrix

    def lookup(self, graph: Graph, *, method: str, decay: float,
               epsilon: Optional[float], top_k: Optional[int],
               row_normalize: bool, dtype: Optional[str] = None,
               fingerprint: Optional[str] = None
               ) -> Optional["SimRankOperator"]:
        """Serve a request from the cache, by exact key or by reuse.

        The exact key is tried first (an ``exact_hit``).  On a miss, if
        the request is a LocalPush operator, the index is scanned for an
        entry computed at a tighter ``ε′ ≤ ε`` with ``k′ ≥ k`` on the
        same graph/decay; the closest dominating entry (largest ``ε′``,
        then smallest sufficient ``k′``) is re-pruned to the requested
        contract and served as a ``reuse_hit``.  Anything else is a miss.
        """
        key = self.key_for(graph, method=method, decay=decay, epsilon=epsilon,
                           top_k=top_k, row_normalize=row_normalize,
                           dtype=dtype)
        expect: Dict[str, object] = {
            "method": method, "decay": decay, "epsilon": epsilon,
            "top_k": top_k, "row_normalize": row_normalize}
        if dtype is not None:
            # float64 entries carry no dtype marker in their metadata,
            # so float64 requests skip the check.
            expect["dtype"] = dtype
        exact = self._load(key, expect=expect)
        if exact is not None:
            self._count("exact_hit")
            self._touch_key(key)
            return exact

        if method == "localpush" and epsilon is not None:
            index = self._sync_index(self._load_index())
            fingerprint = fingerprint or graph_fingerprint(graph)
            candidates = [
                (candidate_key, entry)
                for candidate_key, entry in index["entries"].items()
                if self._can_serve(entry, fingerprint=fingerprint,
                                   method=method, decay=decay,
                                   epsilon=epsilon, top_k=top_k,
                                   row_normalize=row_normalize,
                                   dtype=dtype)
            ]
            # Closest dominating entry first: largest ε′ (least
            # over-computation), then smallest sufficient k′ (least to
            # load and re-prune), then most recently used.
            candidates.sort(key=lambda item: (
                -float(item[1]["epsilon"]),
                float("inf") if item[1]["top_k"] is None else item[1]["top_k"],
                -int(item[1].get("last_used", 0))))
            for candidate_key, entry in candidates:
                candidate = self._load(candidate_key)
                if candidate is None:
                    continue  # corrupt on disk; evicted, try the next
                matrix = self._reprune(candidate, epsilon=epsilon,
                                       top_k=top_k,
                                       row_normalize=row_normalize)
                self._count("reuse_hit")
                self._touch_key(candidate_key, sync=True)
                from repro.simrank.topk import SimRankOperator

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
        without recompute: the index is scanned with the same dominance
        relation as :meth:`lookup` (same graph fingerprint, decay and
        normalisation flag; ``ε′ ≤ ε``; ``k′ ≥ k``), row ``source`` of
        the closest dominating entry is sliced out and re-pruned to the
        requested contract with the exact :meth:`_reprune` semantics
        (``top_k_per_row(..., keep_diagonal=True)`` / ``ε/10`` floor /
        re-normalisation), applied to the single row.

        Returns ``(row, entry_epsilon)`` — the ``1×n`` CSR row and the
        ``ε′`` the stored entry was computed at (the error bound the
        answer actually satisfies) — or ``None`` on a miss.  Counted as a
        ``row_hit``/``row_miss``, never as an operator-level event.
        """
        import dataclasses

        n = graph.num_nodes
        if not 0 <= int(source) < n:
            raise SimRankError(
                f"source node {source} out of range for a graph "
                f"with {n} nodes")
        index = self._sync_index(self._load_index())
        fingerprint = fingerprint or graph_fingerprint(graph)
        candidates = [
            (candidate_key, entry)
            for candidate_key, entry in index["entries"].items()
            if self._can_serve(entry, fingerprint=fingerprint,
                               method="localpush", decay=decay,
                               epsilon=epsilon, top_k=top_k,
                               row_normalize=row_normalize, dtype=dtype)
        ]
        candidates.sort(key=lambda item: (
            -float(item[1]["epsilon"]),
            float("inf") if item[1]["top_k"] is None else item[1]["top_k"],
            -int(item[1].get("last_used", 0))))
        for candidate_key, entry in candidates:
            candidate = self._load(candidate_key)
            if candidate is None:
                continue  # corrupt on disk; evicted, try the next
            # Embed the sliced row back at its original index so the
            # shared re-prune semantics (keep_diagonal targets column
            # ``source``) apply unchanged; every re-prune step is
            # row-independent, so this equals slicing a fully re-pruned
            # operator at O(row) cost instead of O(nnz).
            sliced = sp.csr_matrix(candidate.matrix).getrow(int(source))
            indptr = np.zeros(n + 1, dtype=sliced.indptr.dtype)
            indptr[int(source) + 1:] = sliced.nnz
            embedded = sp.csr_matrix(
                (sliced.data, sliced.indices, indptr), shape=(n, n))
            matrix = self._reprune(
                dataclasses.replace(candidate, matrix=embedded),
                epsilon=epsilon, top_k=top_k, row_normalize=row_normalize)
            self._count("row_hit")
            self._touch_key(candidate_key, sync=True)
            return matrix.getrow(int(source)), float(entry["epsilon"])
        self._count("row_miss")
        return None

    # ------------------------------------------------------------------ #
    def store(self, key: str, operator: "SimRankOperator", *,
              fingerprint: Optional[str] = None) -> Path:
        """Atomically persist ``operator`` under ``key``.

        ``fingerprint`` (the graph fingerprint) is recorded in the entry
        metadata so the reuse scan can match it; without it the entry
        still serves exact-key hits but never reuse.  Storing may trigger
        LRU eviction of other entries when a byte cap is configured.
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
        path = self.path_for(key)
        with atomic_write(path, "wb") as handle:
            np.savez_compressed(
                handle,
                data=matrix.data,
                indices=matrix.indices,
                indptr=matrix.indptr,
                shape=np.asarray(matrix.shape, dtype=np.int64),
                meta=np.asarray(meta),
            )
            size = handle.tell()
        self._count("store")

        with self._lock:
            index = self._sync_index(self._load_index())
            index["entries"][key] = {
                "fingerprint": fingerprint,
                "method": operator.method,
                "decay": operator.decay,
                "epsilon": operator.epsilon,
                "top_k": operator.top_k,
                "row_normalize": operator.row_normalize,
                "dtype": dtype,
                "bytes": size,
                "last_used": 0,
            }
            self._touch(index, key)
            self._enforce_budget(index, protect=key)
            self._save_index(index)
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        counts = ", ".join(f"{name}={value}"
                           for name, value in self.stats().items())
        return (f"OperatorCache({str(self.directory)!r}, {counts}, "
                f"max_bytes={self.max_bytes})")


__all__ = ["OperatorCache", "get_operator_cache", "graph_fingerprint",
           "CACHE_FORMAT_VERSION"]
