"""Resumable on-disk store for experiment cell results and artefacts.

The sweep engine (:mod:`repro.experiments.engine`) executes an
:class:`repro.config.ExperimentSpec` cell by cell; each completed cell is
a pure function of its resolved :class:`repro.config.RunSpec`, its extra
parameters and the cell-runner implementation.  This module persists the
per-cell records under a content-addressed key — the same
cache-and-resume discipline :mod:`repro.simrank.cache` applies to
operators — so a killed two-hour sweep re-invoked with ``--resume``
executes only the unfinished cells.

Store layout
------------
A store directory holds one JSON file per completed cell, a sidecar
manifest, and one append-only artefact file per experiment::

    <store-dir>/
        cell-<key>.json               # {"version", "runner", "spec",
                                      #  "params", "seconds", "record"}
        experiment-store-index.json   # manifest: per-entry experiment,
                                      #  runner, sizes (rebuildable from
                                      #  the cell files at any time)
        experiment-<name>.json        # append-only list of run records,
                                      #  each embedding the resolved spec

``<key>`` is the SHA-256 (truncated to 32 hex chars) of a canonical JSON
payload: the store format version, the cell runner's qualified name, the
cell's resolved ``RunSpec`` and its parameters.  The experiment *name* is
deliberately excluded — two experiments whose cells coincide share each
other's results (Fig. 2 re-reduces Table II's cells without recomputing
them).  Reduction-only knobs (``ExperimentSpec.reduction``) never enter
the key for the same reason.

Invalidation mirrors the operator cache: the version participates in the
key and is re-checked on load, the stored spec/params must match the
request exactly, and any unreadable or mismatched file is evicted
(deleted, counted in ``evictions``) and recomputed rather than trusted.
Writes are atomic (a per-write unique temp file + ``os.replace``,
:func:`repro.utils.atomic.atomic_write`).

Artefacts
---------
:meth:`ArtifactStore.append_artifact` generalises the
``benchmarks/bench_localpush.py`` record pattern: every executed sweep
appends one versioned record — resolved spec embedded, per-cell rows,
timings and cache accounting — to ``experiment-<name>.json``, so the
paper artefacts accumulate with full provenance.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.config import ExperimentCell
from repro.errors import ArtifactError
from repro.graphs.fingerprint import payload_digest
from repro.utils.atomic import atomic_write

#: Bump to orphan every previously written cell record (e.g. when the
#: record schema or a cell runner's semantics change).
STORE_FORMAT_VERSION = 1

_CELL_PREFIX = "cell-"
_ARTIFACT_PREFIX = "experiment-"
_INDEX_NAME = "experiment-store-index.json"

#: Per-directory singleton registry so every consumer of the same store
#: directory shares one instance — and therefore one set of hit/miss
#: counters, which the resume tests assert on.
_STORE_REGISTRY: Dict[Path, "ArtifactStore"] = {}


def get_artifact_store(directory: str | os.PathLike) -> "ArtifactStore":
    """Return the shared :class:`ArtifactStore` for ``directory``.

    Memoised per resolved path (the :func:`repro.simrank.cache.
    get_operator_cache` pattern): repeated sweeps against the same
    directory reuse the instance and keep accumulating its counters.
    """
    path = Path(directory).expanduser().resolve()
    store = _STORE_REGISTRY.get(path)
    if store is None:
        store = ArtifactStore(path)
        _STORE_REGISTRY[path] = store
    return store


@contextlib.contextmanager
def _file_lock(path: Path) -> Iterator[None]:
    """Advisory exclusive lock serialising read-modify-write of ``path``.

    Two sweeps sharing a store directory (a pattern the cell manifest
    explicitly supports) must not interleave artifact appends — the loser
    of an unsynchronised read/replace race would silently drop the other
    run's record.  No-op where ``fcntl`` is unavailable.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    lock_path = path.with_name(path.name + ".lock")
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)


def runner_name(cell_runner: object) -> str:
    """The stable identifier of a cell runner entering the cell key."""
    module = getattr(cell_runner, "__module__", "")
    qualname = getattr(cell_runner, "__qualname__", repr(cell_runner))
    return f"{module}.{qualname}"


class ArtifactStore:
    """On-disk store of completed experiment cells plus run artefacts.

    Prefer :func:`get_artifact_store` over direct construction so counter
    state is shared per directory.

    Counters
    --------
    ``hits`` (cells served from disk), ``misses`` (cells that had to be
    computed), ``stores`` (cell records written), ``evictions``
    (corrupt/stale/mismatched files deleted).
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory).expanduser()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ArtifactError(
                f"cannot create artifact store directory "
                f"{str(self.directory)!r}: {error}") from None
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #
    def key_for(self, cell: ExperimentCell, cell_runner: object) -> str:
        """Content-addressed key of one cell's work.

        Hashes the store format version, the runner identity and the
        cell's resolved ``(RunSpec, params)``; the experiment name and
        the reduction knobs stay out (see the module docstring).
        """
        return payload_digest({
            "version": STORE_FORMAT_VERSION,
            "runner": runner_name(cell_runner),
            "spec": cell.spec.to_dict(),
            "params": cell.params,
        })

    def cell_path(self, key: str) -> Path:
        return self.directory / f"{_CELL_PREFIX}{key}.json"

    def artifact_path(self, experiment: str) -> Path:
        return self.directory / f"{_ARTIFACT_PREFIX}{experiment}.json"

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob(f"{_CELL_PREFIX}*.json"))

    def clear(self) -> int:
        """Delete every cell record; returns the number removed."""
        removed = 0
        for path in self.directory.glob(f"{_CELL_PREFIX}*.json"):
            path.unlink()
            removed += 1
        self._index_path.unlink(missing_ok=True)
        return removed

    # ------------------------------------------------------------------ #
    # Sidecar manifest
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
            index = {"version": STORE_FORMAT_VERSION, "entries": {}}
        return index

    def _save_index(self, index: dict) -> None:
        with atomic_write(self._index_path) as handle:
            handle.write(json.dumps(index, sort_keys=True))

    def _sync_index(self, index: dict) -> dict:
        """Reconcile the manifest with the directory contents.

        Entries whose file disappeared are dropped; unknown files (from
        an older revision or another process) are adopted from their
        embedded metadata, so the manifest always lists the directory.
        """
        entries = index["entries"]
        on_disk = {path.name[len(_CELL_PREFIX):-len(".json")]: path
                   for path in self.directory.glob(f"{_CELL_PREFIX}*.json")}
        for key in [key for key in entries if key not in on_disk]:
            del entries[key]
        for key, path in on_disk.items():
            if key in entries:
                continue
            try:
                payload = json.loads(path.read_text())
                entries[key] = {
                    "experiment": payload.get("experiment"),
                    "runner": payload.get("runner"),
                    "seconds": payload.get("seconds"),
                    "bytes": path.stat().st_size,
                }
            except Exception:
                continue  # unreadable; the load path will evict it
        return index

    # ------------------------------------------------------------------ #
    # Cell records
    # ------------------------------------------------------------------ #
    def load_cell(self, key: str, cell: ExperimentCell,
                  cell_runner: object) -> Optional[dict]:
        """The stored record for ``cell``, or ``None`` on a miss.

        The stored version, runner identity, spec and params must match
        the request exactly (key-collision and hand-edit guard, like the
        operator cache's parameter verification); any mismatch or
        deserialisation failure evicts the file and counts as a miss.
        """
        path = self.cell_path(key)
        if not path.exists():
            self.misses += 1
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("version") != STORE_FORMAT_VERSION:
                raise ValueError("stale store format")
            if payload.get("runner") != runner_name(cell_runner):
                raise ValueError("runner mismatch")
            expected = json.loads(json.dumps(
                {"spec": cell.spec.to_dict(), "params": cell.params},
                default=str))
            if {"spec": payload.get("spec"),
                    "params": payload.get("params")} != expected:
                raise ValueError("cell parameter mismatch")
            record = payload["record"]
            if not isinstance(record, dict):
                raise ValueError("malformed record")
        except Exception:
            self.evictions += 1
            path.unlink(missing_ok=True)
            index = self._load_index()
            if key in index["entries"]:
                del index["entries"][key]
                self._save_index(index)
            self.misses += 1
            return None
        self.hits += 1
        return record

    def store_cell(self, key: str, cell: ExperimentCell, cell_runner: object,
                   record: dict, *, experiment: str, seconds: float = 0.0,
                   trace: Optional[dict] = None) -> Path:
        """Atomically persist one completed cell's record.

        ``trace`` is the cell's versioned span tree when the sweep ran
        under an enabled telemetry handle; it rides along in the payload
        (the key is untouched — tracing never invalidates stored cells)
        and is omitted entirely for untraced runs, so their payloads are
        byte-identical to the pre-telemetry format.
        """
        payload = {
            "version": STORE_FORMAT_VERSION,
            "experiment": experiment,
            "runner": runner_name(cell_runner),
            "spec": cell.spec.to_dict(),
            "params": cell.params,
            "seconds": seconds,
            "record": record,
        }
        if trace is not None:
            payload["trace"] = trace
        path = self.cell_path(key)
        with atomic_write(path) as handle:
            handle.write(json.dumps(payload, sort_keys=True, default=str))
        self.stores += 1
        index = self._sync_index(self._load_index())
        index["entries"][key] = {
            "experiment": experiment,
            "runner": runner_name(cell_runner),
            "seconds": seconds,
            "bytes": path.stat().st_size,
        }
        self._save_index(index)
        return path

    # ------------------------------------------------------------------ #
    # Run artefacts (the generalized bench_localpush record pattern)
    # ------------------------------------------------------------------ #
    def append_artifact(self, experiment: str, record: dict) -> Path:
        """Append one versioned run record to ``experiment-<name>.json``.

        The file holds a JSON list of records; a malformed existing file
        is preserved under ``.corrupt`` (never silently overwritten) and
        a fresh list is started.
        """
        path = self.artifact_path(experiment)
        with _file_lock(path):
            records: List[dict] = []
            if path.exists():
                try:
                    existing = json.loads(path.read_text())
                    if not isinstance(existing, list):
                        raise ValueError("artifact file must hold a list")
                    records = existing
                except Exception:
                    path.replace(path.with_suffix(path.suffix + ".corrupt"))
            records.append({"artifact_version": STORE_FORMAT_VERSION, **record})
            with atomic_write(path) as handle:
                handle.write(json.dumps(records, indent=2, sort_keys=True,
                                        default=str))
        return path

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ArtifactStore({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"evictions={self.evictions})")


__all__ = ["ArtifactStore", "get_artifact_store", "runner_name",
           "STORE_FORMAT_VERSION"]
