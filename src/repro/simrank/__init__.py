"""SimRank substrate: exact, linearized and LocalPush-approximate SimRank.

Three computations are provided:

* :func:`exact_simrank` — the classic Jeh–Widom fixed point of Eq. (2) in the
  paper, computed by power iteration with a diagonal reset.  This is the
  ground truth for small graphs (Table II, Fig. 2).
* :func:`linearized_simrank` — the series
  ``S' = Σ_ℓ c^ℓ (W^ℓ)ᵀ W^ℓ`` of pairwise-random-walk meeting
  probabilities, exactly the quantity of Theorem III.2.  This is the fixed
  point that LocalPush approximates and the operator SIGMA aggregates with.
* :func:`localpush_simrank` — Algorithm 1 (LocalPush) of the paper: a
  residual-push approximation with max-norm guarantee ``ε`` and
  ``O(d²/ε)``-style cost, returning a sparse matrix.

:func:`simrank_operator` combines approximation and top-k pruning into the
sparse aggregation operator used by the SIGMA model.  It takes a single
typed config object::

    from repro.config import SimRankConfig
    operator = simrank_operator(graph, SimRankConfig(
        method="localpush", epsilon=0.1, top_k=32, workers=4,
        cache_dir="~/.cache/simrank"))

Configuration: SimRankConfig
----------------------------
:class:`repro.config.SimRankConfig` carries three field groups:

* the **mathematical contract** — ``method`` (``"exact"``, ``"series"``,
  ``"localpush"`` or ``"auto"``, which picks exactness up to
  ``exact_size_limit`` nodes and LocalPush above), ``decay``,
  ``epsilon``, ``top_k``, ``row_normalize`` and ``dtype``; these
  determine the operator entries and therefore enter the cache key;
* the **execution plan** — ``workers`` alone, resolved by
  :func:`repro.simrank.localpush.resolve_workers`:

  =========== ============================================================
  workers      shard pushes run …
  =========== ============================================================
  None         inline below 4096 nodes; from 4096 nodes on a thread pool
               of ``min(4, cpu count)`` threads
  1            inline in the calling thread, at any size
  k ≥ 2        on a pool of ``k`` threads at any size (scipy's sparse
               matmul releases the GIL), merged in shard order
  =========== ============================================================

  Every push round runs the one fused CSR kernel of
  :mod:`repro.simrank.kernels`;

* the **cache location** — ``cache_dir`` and ``cache_max_bytes``.

The shard partition is a function of the frontier alone and partial
updates merge in shard order, so **every worker count returns a
bit-identical matrix** — pinned by
``tests/test_simrank_engine.py`` and ``tests/test_simrank_kernels.py``.
Accordingly the execution plan stays out of the operator-cache key; the
key fields are derived in exactly one place,
:meth:`repro.config.SimRankConfig.cache_key_fields`.  The auto threshold
lives in :data:`repro.simrank.localpush.AUTO_SHARDED_MIN_NODES`; unit
tests pin it.  All plans satisfy the same ``‖Ŝ − S‖_max < ε``
guarantee (Lemma III.5) — in float64.  The opt-in ``dtype="float32"``
mode trades that guarantee for half the memory: accumulated rounding can
exceed ε itself, so the bound loosens to
:func:`repro.simrank.kernels.float32_error_bound`, which adds a
per-round rounding term ``O(u·rounds/(1−c))`` (``u = 2⁻²⁴``); because
the entries differ from float64's, ``dtype`` *does* enter the cache
key.

Top-k runs once, after the loop
-------------------------------
The engine returns the whole finished estimate.  ``simrank_operator``
then keeps each row's ``k`` largest scores with
:func:`repro.graphs.sparse.top_k_per_row` (diagonal kept), and a single
served row — :func:`repro.api.topk`, the serving ladder — goes through
:func:`repro.graphs.sparse.top_k_row`, the same selection on one row.
Pruning inside the loop would not lower the run's peak memory: the
residual, not the estimate, sets it.

Operator cache: layout, eviction, reuse
---------------------------------------
:mod:`repro.simrank.cache` persists computed operators in a flat cache
directory, one ``simrank-<fingerprint>-<key>.npz`` file per operator (CSR
arrays plus a JSON metadata record) and no other file: the metadata is
the reuse record and the file's mtime its LRU stamp.  ``<fingerprint>``
is the graph fingerprint and ``<key>`` hashes ``(format version, graph
fingerprint, method, c, ε, k, row_normalize, dtype)``; the worker count
is excluded because results are bit-identical across it.  Stale format
versions, metadata mismatches and corrupted files are evicted and
recomputed.  Two policies sit on top:

* **LRU eviction** — give the cache a byte cap
  (``cache_max_bytes=``/``--simrank-cache-max-bytes``) and stores beyond
  it evict the least-recently-used entries;
* **cross-ε/k reuse** — an entry computed at tighter ``ε′ ≤ ε`` with
  ``k′ ≥ k`` serves the looser request after re-pruning (never the
  reverse), counted separately from exact hits.

See the module docstring of :mod:`repro.simrank.cache` for both
arguments.  Enable the cache by setting ``cache_dir`` (and optionally
``cache_max_bytes``) on the :class:`repro.config.SimRankConfig` passed
to ``simrank_operator`` / ``SIGMA(simrank=...)`` / a ``RunSpec``, or via
the CLI flag ``--simrank-cache-dir``.
"""

from repro.simrank.cache import (
    CACHE_FORMAT_VERSION,
    OperatorCache,
    get_operator_cache,
    graph_fingerprint,
)
from repro.simrank.engine import localpush_engine
from repro.simrank.exact import exact_simrank, linearized_simrank
from repro.simrank.localpush import (
    AUTO_SHARDED_MIN_NODES,
    LocalPushResult,
    localpush_simrank,
    resolve_workers,
)
from repro.simrank.topk import simrank_operator, topk_simrank
from repro.simrank.pairwise_walk import (
    homophily_probability,
    pairwise_meeting_probability,
    pairwise_walk_series,
)
from repro.simrank.analysis import SimRankClassStats, simrank_class_statistics

__all__ = [
    "exact_simrank",
    "linearized_simrank",
    "localpush_simrank",
    "localpush_engine",
    "LocalPushResult",
    "resolve_workers",
    "AUTO_SHARDED_MIN_NODES",
    "topk_simrank",
    "simrank_operator",
    "OperatorCache",
    "get_operator_cache",
    "graph_fingerprint",
    "CACHE_FORMAT_VERSION",
    "pairwise_meeting_probability",
    "pairwise_walk_series",
    "homophily_probability",
    "SimRankClassStats",
    "simrank_class_statistics",
]
