"""Content hashing: the single digest path for graphs and key payloads.

Every content-addressed key in the project — operator-cache entries
(repaired dynamic snapshots included) and experiment-store cells —
bottoms out in the two helpers here:

:func:`graph_fingerprint`
    SHA-256 over a graph's canonical CSR arrays.  Content-addressed:
    two graphs with identical topology and weights share a fingerprint
    regardless of name, features or labels.
:func:`payload_digest`
    SHA-256 (truncated to :data:`DIGEST_LENGTH` hex chars) of a
    canonical-JSON encoding of a key payload (``sort_keys=True``,
    ``default=str``).

Keeping both in one module is deliberate: the operator cache and the
artifact store must not each grow their own canonicalisation rules (key
drift between them is exactly the failure mode lint rule R1 guards the
*field* derivation against — this module guards the *hash* derivation
the same way).
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

import numpy as np

from repro.graphs.graph import Graph

#: Hex chars kept from the SHA-256 digest of a key payload.  128 bits —
#: collision-safe for cache-sized populations while keeping file names
#: readable.  Graph fingerprints keep the full 64-char digest.
DIGEST_LENGTH = 32


def graph_fingerprint(graph: Graph) -> str:
    """Content hash of a graph's adjacency structure (SHA-256 hex digest).

    Hashes the canonical CSR arrays (``Graph`` sorts indices on
    construction), so two graphs with identical topology and weights share
    a fingerprint regardless of name, features or labels — none of which
    influence the SimRank operator.
    """
    adjacency = graph.adjacency
    digest = hashlib.sha256()
    digest.update(np.int64(adjacency.shape[0]).tobytes())
    digest.update(adjacency.indptr.astype(np.int64, copy=False).tobytes())
    digest.update(adjacency.indices.astype(np.int64, copy=False).tobytes())
    digest.update(adjacency.data.astype(np.float64, copy=False).tobytes())
    return digest.hexdigest()


def payload_digest(payload: Mapping[str, object]) -> str:
    """Canonical digest of a JSON-serialisable key payload.

    The payload is encoded as canonical JSON (``sort_keys=True``; values
    without a native JSON form fall back to ``str``, matching the
    experiment store's historical encoding) and hashed with SHA-256,
    truncated to :data:`DIGEST_LENGTH` hex characters.  Callers are
    responsible for including a format-version field in ``payload`` so
    bumping the version orphans stale entries.
    """
    encoded = json.dumps(dict(payload), sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:DIGEST_LENGTH]


__all__ = ["graph_fingerprint", "payload_digest", "DIGEST_LENGTH"]
