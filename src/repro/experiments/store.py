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
A store directory holds one JSON file per completed cell and one
append-only artefact file per experiment, and no side index: a cell's
file name is its key, so the directory itself is the index::

    <store-dir>/
        cell-<key>.json          # {"version", "experiment", "runner",
                                 #  "spec", "params", "seconds", "record"}
        experiment-<name>.json   # append-only list of run records,
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
(deleted) and recomputed rather than trusted.
Writes are atomic (a per-write unique temp file + ``os.replace``,
:func:`repro.utils.atomic.atomic_write`).

Artefacts
---------
:meth:`ArtifactStore.append_artifact` generalises the
``benchmarks/bench_localpush.py`` record pattern: every executed sweep
appends one versioned record — resolved spec embedded, per-cell rows,
timings and the ``cells_executed``/``cells_resumed`` counts — to
``experiment-<name>.json``, so the paper artefacts accumulate with full
provenance.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Iterator, List, Optional

from repro.config import ExperimentCell
from repro.errors import ArtifactError
from repro.graphs.fingerprint import payload_digest
from repro.utils.atomic import atomic_write

#: Bump to orphan every previously written cell record (e.g. when the
#: record schema or a cell runner's semantics change).
STORE_FORMAT_VERSION = 1

_CELL_PREFIX = "cell-"
_ARTIFACT_PREFIX = "experiment-"


@contextlib.contextmanager
def _file_lock(path: Path) -> Iterator[None]:
    """Advisory exclusive lock serialising read-modify-write of ``path``.

    Two sweeps sharing a store directory (content-addressed cell files
    make that safe) must not interleave artifact appends — the loser
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

    The store keeps no counts of its own: a sweep's resumed and executed
    cells are :attr:`repro.experiments.engine.ExperimentRun.cells_resumed`
    and ``cells_executed``, recorded in every run artefact.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory).expanduser()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise ArtifactError(
                f"cannot create artifact store directory "
                f"{str(self.directory)!r}: {error}") from None

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
        return removed

    # ------------------------------------------------------------------ #
    # Cell records
    # ------------------------------------------------------------------ #
    def load_cell(self, key: str, cell: ExperimentCell,
                  cell_runner: object) -> Optional[dict]:
        """The stored record for ``cell``, or ``None`` on a miss.

        The stored version, runner identity, spec and params must match
        the request exactly (key-collision and hand-edit guard, like the
        operator cache's parameter verification); any mismatch or
        deserialisation failure evicts the file and reports a miss.
        """
        path = self.cell_path(key)
        if not path.exists():
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
            path.unlink(missing_ok=True)
            return None
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


__all__ = ["ArtifactStore", "runner_name", "STORE_FORMAT_VERSION"]
