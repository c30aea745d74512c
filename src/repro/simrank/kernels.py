"""Push-round kernel: how one LocalPush round's CSR arithmetic is executed.

:mod:`repro.simrank.engine` owns *what* a round computes (frontier →
``c·Wᵀ F W`` → residual/estimate update) and *where* the shard matmuls
run (inline or on its worker pool).  This module owns *how* the
surrounding CSR arithmetic is carried out, in :class:`FusedRoundState`:

* the frontier is compressed out of the residual with one boolean mask
  and a searchsorted row pointer (no ``np.repeat``, no COO round-trip),
  and the shard matrices are zero-copy clipped-row-pointer views of it;
* the shard partials merge in **one** concatenate + single
  duplicate-summing pass (a selector-matrix product — see below)
  instead of chained additions;
* the streaming-estimate absorb is batched and pruned at the
  ``coalesce_every`` cadence instead of every round;
* the raw CSR arrays are worked on with preallocated, round-reused
  workspaces.

The test suite keeps the historical CSR-object arithmetic — per-shard
COO constructions, chained ``csr_plus_csr`` partial merges and a
per-round streaming absorb — as a reference oracle, and pins this
kernel bitwise against it (``tests/test_simrank_kernels.py``).

The one-pass partial merge
--------------------------
Chained ``((p₀ + p₁) + p₂) + …`` additions walk the accumulated pushed
mass once per shard — ``O(shards²)`` stored entries touched per round,
and the measured hot spot of multi-shard rounds.  The kernel instead
stacks the partials (``vstack`` — the concatenate) and left-multiplies
by a *selector* matrix ``J`` with a single ``1.0`` entry per ``(row,
shard)`` pair, so ``J @ vstack(partials)`` sums, for every output entry,
the matching entries of all shards in one C pass of scipy's sparse
matmul.  This is bitwise the chained association: the matmul
accumulates each output entry sequentially in shard order starting from
``+0.0``, and ``+0.0 + a == a`` and ``1.0 · a == a`` exactly, so the
per-entry float operations are identical to the chained adds (shard
partials are products of non-negative walk weights and positive
frontier mass, so no ``-0.0`` corner exists; a partial entry that
underflows to ``+0.0`` is dropped by the subsequent ``csr_plus_csr``
zero filter on either path, leaving identical stored patterns).

The residual update itself stays scipy's canonical ``csr_plus_csr`` (a
single C merge): a prototype that held the residual as flat
``row·n + col`` key/value arrays and merged in numpy was measured
1.5–2× *slower* than the C add at every size — the win comes from
removing redundant passes (the chained folds, the per-shard COO
round-trips, the per-round absorbs), not from reimplementing the merge.

Bit-identity with the reference arithmetic
------------------------------------------
* both canonicalise the round update (``pushed.sort_indices()``) before
  the residual add, so the residual's storage order is row-major
  column-sorted every round and both extract frontiers in the identical
  entry order;
* the zero-copy shard slices hold bitwise the same ``(indptr, indices,
  data)`` arrays a per-shard COO round-trip builds (the frontier
  inherits the residual's canonical order; frontier keys are unique, so
  the COO build sorts and folds nothing), and the shard matmuls are
  shared;
* the one-pass partial merge reproduces the chained association exactly
  (previous section), and the residual/estimate additions are the same
  ``csr_plus_csr`` calls with the same operand order;
* the only cadence difference — folding and pruning the streaming
  estimate every ``coalesce_every`` rounds instead of every round —
  cannot change the final matrix: the absorb fold keeps the round-order
  left-to-right association, and every streamed drop is *provably
  outside the final top-k* (its value plus the ``‖R‖_max/(1−c)`` slack
  is strictly below the row's k-th largest, which never decreases), so
  the post-loop ``top_k_per_row(..., keep_diagonal=True)`` selects the
  same entries with the same fully-accumulated values either way.

The kernel-equivalence suite pins all of this per worker count,
including single-source rows and streamed top-k runs.

Phase spans
-----------
The round state times itself on the tracer it is handed
(``localpush_engine(tracer=...)``): each phase interval is one
``localpush.<phase>`` span with attributes ``phase`` and ``round``.
``frontier`` is the above-threshold extraction, residual clearing and
shard assembly, ``push`` the shard matmuls, ``merge`` the partial merge
plus the residual update, and ``prune`` the coalescing and streaming
absorb/prune.  Every round opens with one frontier extraction, which
advances the state's own round count.  The default :data:`NULL_TRACER`
records nothing, and spans never touch the arithmetic, so traced and
untraced runs are bit-identical.

float32 mode and its adjusted bound
-----------------------------------
``dtype="float32"`` runs the whole round loop — walk matrix, residual,
estimate — in single precision.  The push *threshold* ``(1−c)·ε`` needs
no adjustment: float32 values embed exactly into float64, so the
comparison against the float64 threshold is exact.  The *error bound*
does: Lemma III.5's ``‖Ŝ − S‖_max < ε`` holds in exact arithmetic, and
single precision adds rounding error on top.  Each stored value is
accumulated over at most ``ceil(log((1−c)·ε) / log(c))`` rounds (the
residual max decays at least geometrically by ``c`` per round), each
round compounding a bounded number of rounding steps (the ``Wᵀ F W``
dot products plus one absorb/merge add) on mass bounded by the
geometric total ``1/(1−c)``.  :func:`float32_error_bound` packages this
as

    ``ε₃₂ = ε + F32_BOUND_SAFETY · u · rounds(ε, c) / (1 − c)``

with ``u = 2⁻²⁴`` (round-to-nearest unit roundoff) and a safety constant
absorbing the per-round dot-product accumulation; the hypothesis sweep
and the recorded benchmark sweep validate the bound against the exact
``linearized_simrank`` oracle.  float32 operators are keyed separately
in the operator cache (see ``SimRankConfig.cache_key_fields``).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.telemetry.summary import PHASE_PREFIX
from repro.telemetry.tracing import NULL_TRACER, Span, Tracer

#: dtype names accepted by the engine.
DTYPES = ("float64", "float32")

#: float32 round-to-nearest unit roundoff (2⁻²⁴).
F32_UNIT_ROUNDOFF = 2.0 ** -24

#: Safety factor of :func:`float32_error_bound`, absorbing the per-round
#: dot-product accumulation (degree-length products inside ``Wᵀ F W``)
#: with ample margin; validated empirically by the hypothesis sweep and
#: the recorded benchmark sweep.
F32_BOUND_SAFETY = 64.0

#: Per-round phase names (see *Phase spans* above).
PHASES = ("frontier", "push", "merge", "prune")

#: Span name of each phase.
_PHASE_SPANS = {phase: f"{PHASE_PREFIX}.{phase}" for phase in PHASES}


class RoundRunner(Protocol):
    """The shard-push surface the round states drive (see ``engine.py``).

    Returns each shard's partial update ``c·Wᵀ F_i W`` in shard order.
    """

    def push_round_matrices(self, matrices: Sequence[sp.csr_matrix]
                            ) -> List[sp.csr_matrix]:
        ...


def working_dtype(dtype: str) -> np.dtype:
    """The numpy dtype for a config-level dtype name."""
    if dtype not in DTYPES:
        raise SimRankError(f"unknown LocalPush dtype {dtype!r}; "
                           f"expected one of {DTYPES}")
    return np.dtype(np.float32 if dtype == "float32" else np.float64)


def localpush_max_rounds(epsilon: float, decay: float) -> int:
    """Upper bound on the number of frontier rounds before termination.

    After each round every residual entry is a sum of push masses from
    one more application of ``c·Wᵀ · W`` whose total mass factor is at
    most ``c``, so ``‖R‖_max`` decays at least geometrically: it drops
    below the ``(1−c)·ε`` push threshold within
    ``ceil(log((1−c)·ε) / log(c))`` rounds.
    """
    threshold = (1.0 - decay) * epsilon
    if threshold >= 1.0:
        return 0
    return max(1, math.ceil(math.log(threshold) / math.log(decay)))


def float32_error_bound(epsilon: float, decay: float) -> float:
    """The adjusted max-norm error bound of the float32 mode.

    ``ε₃₂ = ε + F32_BOUND_SAFETY · u · rounds(ε, c) / (1 − c)`` — the
    exact-arithmetic truncation bound ``ε`` (Lemma III.5, unchanged: the
    float32 threshold comparison is exact) plus a rounding term: every
    stored value is accumulated over at most
    :func:`localpush_max_rounds` rounds of unit-roundoff-``u``
    operations on total mass bounded by the geometric series
    ``1/(1−c)``.  See the module docstring for the derivation and the
    safety constant.
    """
    rounds = localpush_max_rounds(epsilon, decay)
    return epsilon + F32_BOUND_SAFETY * F32_UNIT_ROUNDOFF * rounds / (1.0 - decay)


# --------------------------------------------------------------------- #
# Shared frontier container + deterministic shard bounds
# --------------------------------------------------------------------- #
class Frontier:
    """One round's above-threshold entries, in residual storage order.

    ``matrix`` is the frontier as one canonical CSR matrix sharing the
    ``cols``/``data`` arrays.  ``rows`` is computed on first access from
    the frontier row pointer (the zero-copy shard push never needs it;
    the absorb paths do).
    """

    __slots__ = ("cols", "data", "matrix", "_rows", "_indptr")

    def __init__(self, cols: np.ndarray, data: np.ndarray, *,
                 indptr: np.ndarray, matrix: sp.csr_matrix) -> None:
        self.cols = cols
        self.data = data
        self.matrix = matrix
        self._rows: Optional[np.ndarray] = None
        self._indptr = indptr

    @property
    def rows(self) -> np.ndarray:
        if self._rows is None:
            counts = np.diff(self._indptr)
            self._rows = np.repeat(
                np.arange(counts.size, dtype=np.int64), counts)
        return self._rows

    @property
    def count(self) -> int:
        return int(self.data.size)


def shard_bounds(count: int, shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, end)`` entry ranges of the shard partition.

    Reproduces ``np.array_split(np.arange(count), shards)`` exactly (the
    first ``count % shards`` shards get one extra entry), so the
    partition — and with it the bit-identity guarantee — is a pure
    function of the frontier size, never of the worker count.
    """
    base, extra = divmod(count, shards)
    bounds: List[Tuple[int, int]] = []
    start = 0
    for index in range(shards):
        end = start + base + (1 if index < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


# --------------------------------------------------------------------- #
# Round-reused scratch buffers
# --------------------------------------------------------------------- #
class _Workspace:
    """Named, capacity-grown scratch buffers reused across rounds."""

    def __init__(self) -> None:
        self._buffers: Dict[str, np.ndarray] = {}

    def scratch(self, name: str, size: int, dtype: np.dtype) -> np.ndarray:
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size or buffer.dtype != dtype:
            buffer = np.empty(max(size, 16), dtype=dtype)
            self._buffers[name] = buffer
        return buffer[:size]

    def bool_buffer(self, name: str, size: int) -> np.ndarray:
        return self.scratch(name, size, np.dtype(bool))


# --------------------------------------------------------------------- #
# Streaming top-k prune (correction-bound guarded; see module docstring
# of repro.simrank for the full argument)
# --------------------------------------------------------------------- #
def streaming_prune(estimate: sp.csr_matrix, k: int,
                    slack: float) -> sp.csr_matrix:
    """Drop estimate entries that provably cannot reach the final top-k.

    An entry is removed only when ``value + slack`` is strictly below the
    row's current k-th largest value; the diagonal is never dropped (it
    is preserved by the final ``top_k_per_row(..., keep_diagonal=True)``
    semantics and must survive streaming too).  Mutates ``estimate`` in
    place (the caller holds the only reference to the freshly summed
    matrix).
    """
    if estimate.nnz == 0:
        return estimate
    indptr, indices, data = estimate.indptr, estimate.indices, estimate.data
    # Early rounds can never drop anything: value + slack >= slack, and no
    # row's k-th largest can exceed the global maximum entry.
    if slack >= float(data.max()):
        return estimate
    # Only rows holding more than k entries can possibly shed one.
    candidates = np.flatnonzero(np.diff(indptr) > k)
    if candidates.size == 0:
        return estimate
    changed = False
    for row in candidates:
        start, end = indptr[row], indptr[row + 1]
        size = end - start
        row_data = data[start:end]
        kth = np.partition(row_data, size - k)[size - k]
        drop = (row_data + slack) < kth
        if not drop.any():
            continue
        drop &= indices[start:end] != row
        if not drop.any():
            continue
        row_data[drop] = 0.0
        changed = True
    if changed:
        estimate.eliminate_zeros()
    return estimate


# --------------------------------------------------------------------- #
# The round state: the per-run kernel object driven by the engine loop
# --------------------------------------------------------------------- #
class FusedRoundState:
    """Raw-CSR round arithmetic with reused workspaces and one-pass merges.

    Owns the run's residual and (streaming) estimate and restructures
    the three measured hot spots of the reference CSR-object arithmetic:
    repeat-free frontier compression with zero-copy shard slices, the
    one-pass selector-product partial merge, and the batched streaming
    absorb.  Bit-identical to that reference per dtype — see the module
    docstring for the argument and ``tests/test_simrank_kernels.py``
    for the pins.

    ``signed=True`` switches the frontier threshold to entry
    *magnitude* (``|R| > threshold``).  The fresh-run loop never needs
    it — seeding with the identity keeps the residual non-negative —
    but a dynamic repair warm-starts from a residual that carries
    negative mass for deleted edges (:mod:`repro.dynamic`), and its
    convergence argument bounds ``‖R‖_max = max |R_uv|``.

    ``tracer`` receives the phase spans (module docstring).
    """

    def __init__(self, residual: sp.csr_matrix, *, n: int, dtype: np.dtype,
                 index_dtype: np.dtype, tracer: Tracer = NULL_TRACER,
                 signed: bool = False) -> None:
        self._residual = residual
        self._n = n
        self._dtype = dtype
        self._tracer = tracer
        self._round = -1  # advanced by each round's frontier extraction
        self._signed = bool(signed)
        self._estimate = sp.csr_matrix((n, n), dtype=dtype)
        self._index_dtype = index_dtype
        self._workspace = _Workspace()
        #: Selector matrices of the one-pass partial merge, per shard
        #: count (rounds repeat shard counts, so these are reused too).
        self._selectors: Dict[int, sp.csr_matrix] = {}
        #: Streaming absorbs batched between flushes (frontier matrices
        #: in round order).
        self._pending: List[sp.csr_matrix] = []
        self._flush_every = 1

    def _span(self, phase: str) -> Span:
        return self._tracer.span(_PHASE_SPANS[phase], phase=phase,
                                 round=self._round)

    def set_flush_cadence(self, coalesce_every: int) -> None:
        """Batch streaming absorbs for this many rounds between flushes."""
        self._flush_every = max(1, int(coalesce_every))

    def extract_frontier(self, threshold: float) -> Optional[Frontier]:
        self._round += 1
        with self._span("frontier"):
            residual = self._residual
            data = residual.data
            workspace = self._workspace
            above = workspace.bool_buffer("above", data.size)
            if self._signed:
                magnitude = workspace.scratch("magnitude", data.size,
                                              self._dtype)
                np.abs(data, out=magnitude)
                np.greater(magnitude, threshold, out=above)
            else:
                np.greater(data, threshold, out=above)
            positions = np.flatnonzero(above)
            count = int(positions.size)
            if count == 0:
                return None
            # Row pointer of the compressed selection: the number of
            # selected entries before each residual row boundary — a
            # binary search of the (sorted) selected positions, with the
            # gathers indexed instead of boolean-masked (measured ~10×
            # cheaper per pass).  No per-entry row-index expansion.
            indptr = np.searchsorted(positions, residual.indptr)
            cols = residual.indices[positions]
            frontier_data = data[positions]
            data[positions] = 0.0
            matrix = sp.csr_matrix(
                (frontier_data, cols,
                 indptr.astype(self._index_dtype, copy=False)),
                shape=(self._n, self._n), copy=False)
        return Frontier(cols, frontier_data, indptr=indptr, matrix=matrix)

    def absorb_stream(self, frontier: Frontier) -> None:
        # Queue the round's frontier matrix; the left-to-right fold (and
        # the prune) run at the coalesce cadence in stream_prune().
        self._pending.append(frontier.matrix)

    def push_round(self, runner: RoundRunner, frontier: Frontier,
                   bounds: Sequence[Tuple[int, int]]) -> None:
        with self._span("frontier"):
            matrices = self._shard_slices(frontier, bounds)
        with self._span("push"):
            partials = runner.push_round_matrices(matrices)
        with self._span("merge"):
            if len(partials) == 1:
                pushed = partials[0]
            else:
                pushed = self._fold_partials(partials)
            # Canonicalise the round update (a storage reorder; no value
            # changes).  With both operands canonical the addition takes
            # scipy's sorted fast path, so the residual's storage order
            # is row-major column-sorted every round — which the
            # zero-copy shard slices and the estimate's COO duplicate
            # fold rely on for bit-identity.
            pushed.sort_indices()
            self._residual = self._residual + pushed

    def _shard_slices(self, frontier: Frontier,
                      bounds: Sequence[Tuple[int, int]]
                      ) -> List[sp.csr_matrix]:
        """Zero-copy CSR shard views of the frontier matrix.

        The frontier inherits the residual's row-major, column-sorted
        entry order, so a contiguous entry range *is* a CSR matrix once
        the row pointer is clipped to it — bitwise the same arrays a
        per-shard COO round-trip builds, with no sort and no duplicate
        folding.
        """
        matrix = frontier.matrix
        n = self._n
        indptr = matrix.indptr.astype(np.int64, copy=False)
        slices = []
        for start, end in bounds:
            shard_indptr = np.clip(indptr - start, 0, end - start)
            slices.append(sp.csr_matrix(
                (matrix.data[start:end], matrix.indices[start:end],
                 shard_indptr.astype(self._index_dtype, copy=False)),
                shape=(n, n), copy=False))
        return slices

    def _fold_partials(self, partials: Sequence[sp.csr_matrix]
                       ) -> sp.csr_matrix:
        """All shard partials summed in one duplicate-folding C pass.

        ``selector @ vstack(partials)`` — the selector row ``r`` holds a
        unit entry at column ``i·n + r`` for every shard ``i`` in
        ascending order, so the sparse matmul accumulates each output
        entry sequentially in shard order: bitwise the chained
        ``((p₀ + p₁) + p₂)`` association (see the module docstring), at
        a cost of one walk over the partial mass instead of one per
        shard.
        """
        stacked = sp.vstack(partials, format="csr")
        pushed = self._selector(len(partials),
                                stacked.indices.dtype) @ stacked
        return pushed.tocsr()

    def _selector(self, shards: int,
                  index_dtype: np.dtype) -> sp.csr_matrix:
        selector = self._selectors.get(shards)
        if selector is None or selector.indices.dtype != index_dtype \
                or selector.data.dtype != self._dtype:
            n = self._n
            indices = (np.arange(shards, dtype=np.int64)[None, :] * n
                       + np.arange(n, dtype=np.int64)[:, None]).ravel()
            indptr = np.arange(0, shards * n + 1, shards, dtype=np.int64)
            selector = sp.csr_matrix(
                (np.ones(shards * n, dtype=self._dtype),
                 indices.astype(index_dtype, copy=False),
                 indptr.astype(index_dtype, copy=False)),
                shape=(n, shards * n), copy=False)
            self._selectors[shards] = selector
        return selector

    def coalesce(self) -> None:
        with self._span("prune"):
            self._residual.eliminate_zeros()

    def residual_max(self) -> float:
        return float(self._residual.data.max()) if self._residual.nnz else 0.0

    def stream_prune(self, k: int, decay: float) -> None:
        if len(self._pending) < self._flush_every:
            return
        with self._span("prune"):
            self._flush_stream(k, decay)

    def _flush_stream(self, k: int, decay: float) -> None:
        # The left-to-right fold reproduces round-by-round
        # ((e + f₁) + f₂) additions: the estimate stays the left operand
        # and each round's frontier folds in round order.
        estimate = self._estimate
        for matrix in self._pending:
            estimate = estimate + matrix
        self._pending.clear()
        slack = self.residual_max() / (1.0 - decay)
        self._estimate = streaming_prune(estimate, k, slack)

    def finish(self, streaming: bool, k: Optional[int], decay: float
               ) -> Tuple[sp.csr_matrix, Optional[sp.csr_matrix]]:
        estimate: Optional[sp.csr_matrix] = None
        if streaming:
            assert k is not None
            # Final flush: absorb any batched rounds and prune once more
            # with the terminal slack (idempotent when already flushed).
            self._flush_stream(k, decay)
            estimate = self._estimate
        return self._residual, estimate


__all__ = ["DTYPES", "PHASES", "F32_UNIT_ROUNDOFF", "F32_BOUND_SAFETY",
           "RoundRunner", "working_dtype", "localpush_max_rounds",
           "float32_error_bound", "Frontier",
           "shard_bounds", "streaming_prune", "FusedRoundState"]
