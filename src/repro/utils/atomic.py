"""Atomic file replacement shared by the on-disk stores.

Every write goes to its own uniquely named sibling temp file, which then
``os.replace``-s the target.  Readers see either the old file or the
complete new one, a crash never leaves a half-written target, and
concurrent writers — threads of one process included — never share a
temp file, so none can rename away or delete another's.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path
from typing import IO, Any, Iterator


@contextlib.contextmanager
def atomic_write(path: Path, mode: str = "w") -> Iterator[IO[Any]]:
    """Open a fresh temp file beside ``path``; on success it becomes ``path``.

    ``mode`` is ``"w"`` (text) or ``"wb"``.  The temp name is
    ``<name>.tmp<32 hex digits>``, unique per call and never matching the
    ``*.npz``/``*.json`` globs the stores scan.  If the block raises, the
    temp file is removed and ``path`` is left untouched.
    """
    temp_path = path.with_name(f"{path.name}.tmp{os.urandom(16).hex()}")
    try:
        with open(temp_path, mode) as handle:
            yield handle
        os.replace(temp_path, path)
    finally:
        temp_path.unlink(missing_ok=True)


__all__ = ["atomic_write"]
