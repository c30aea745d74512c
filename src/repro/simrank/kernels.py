"""Push-round kernel: how one LocalPush round's CSR arithmetic is executed.

:mod:`repro.simrank.engine` owns *what* a round computes (frontier →
``c·Wᵀ F W`` → residual/estimate update) and the run's accounting.  This
module owns *how* that CSR arithmetic is carried out, in
:class:`FusedRoundState`:

* the frontier is compressed out of the residual with one boolean mask
  and a searchsorted row pointer (no ``np.repeat``, no COO round-trip),
  and is itself the CSR matrix the round pushes;
* the whole frontier is pushed in one ``(Wᵀ·F)·W`` product in the
  calling thread, and the update merges into the residual with one
  ``csr_plus_csr`` add;
* the raw CSR arrays are worked on with preallocated, round-reused
  workspaces.

Two frontier loops
------------------
:class:`FusedRoundState` is the *scanning* loop: each round's frontier
is every above-threshold entry of the whole residual.  A fresh run
(the identity seed), a single-source run and a repair seeded from an
arbitrary residual (the reconstructed cache warm start of
:mod:`repro.dynamic`) take it.

:class:`IncrementRoundState` is the *increment* loop of a maintained
repair.  It starts from a converged residual ``R`` (every
``|R| ≤ (1−c)·ε``) plus a pending increment ``D`` (the repair
correction), so the first frontier lies in ``D``'s support, and every
later one in the support of the last round's push.  Each round looks up
``R`` at ``D``'s entries, takes the frontier where ``|R + D|`` exceeds
the threshold, and merges ``R + D′`` once, where ``D′`` carries
``−R`` at the frontier entries: they cancel to an exact ``+0.0``, which
the add does not store.  No round scans the whole residual, and the
loop never writes into ``R`` (a snapshot writer may be reading it).
:func:`repro.simrank.engine.resume_localpush` takes this loop exactly
when its caller hands over an ``increment``.  Its frontiers, pushes and
final residual are bitwise those of the scanning loop on ``R + D``:
``old + d`` is the value ``csr_plus_csr`` stores (``0 + d`` where ``R``
holds nothing), and ``D``'s canonical order is the residual's order
restricted to the frontier.

The residual update stays scipy's canonical ``csr_plus_csr`` (a single C
merge): a prototype that held the residual as flat ``row·n + col``
key/value arrays and merged in numpy was measured 1.5–2× *slower* than
the C add at every size.  The add also drops every zero it would store,
so the frontier entries zeroed in the residual leave it in the same
round; no separate coalescing pass is needed.

Bit-identity with the reference arithmetic
------------------------------------------
The test suite keeps the historical CSR-object arithmetic — a COO build
of each round's frontier — as a reference oracle
(``tests/_simrank_oracles.py``) and pins this kernel bitwise against it
(``tests/test_simrank_kernels.py``):

* both canonicalise the round update (``pushed.sort_indices()``) before
  the residual add, so the residual's storage order is row-major
  column-sorted every round and both extract frontiers in the identical
  entry order;
* the compressed frontier holds bitwise the same ``(indptr, indices,
  data)`` arrays a COO build makes (the frontier inherits the residual's
  canonical order and its keys are unique, so the build sorts and folds
  nothing), the push products are the same, and so are the residual
  additions and their operand order.

Phase spans
-----------
The round state times itself on the tracer it is handed
(``localpush_engine(tracer=...)``): each phase interval is one
``localpush.<phase>`` span with attributes ``phase`` and ``round``.
``frontier`` is the above-threshold extraction and residual clearing,
``push`` the ``(Wᵀ·F)·W`` product and ``merge`` the residual update.
Every round opens with one frontier extraction, which advances the
state's own round count.  The increment loop opens one more ``merge``
span than it runs rounds: its ``finish`` merges the last increment.
The default :data:`NULL_TRACER` records nothing, and spans never touch
the arithmetic, so traced and untraced runs are bit-identical.

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
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp

from repro.errors import SimRankError
from repro.graphs.sparse import csr_row_indices
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
PHASES = ("frontier", "push", "merge")

#: Span name of each phase.
_PHASE_SPANS = {phase: f"{PHASE_PREFIX}.{phase}" for phase in PHASES}


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
# Shared frontier container
# --------------------------------------------------------------------- #
class Frontier:
    """One round's above-threshold entries, in residual storage order.

    ``matrix`` is the frontier as one canonical CSR matrix sharing the
    ``cols``/``data`` arrays.  ``rows`` is computed on first access from
    the frontier row pointer (the push never needs it; the absorb paths
    do).
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
# The round state: the per-run kernel object driven by the engine loop
# --------------------------------------------------------------------- #
class FusedRoundState:
    """Raw-CSR round arithmetic with reused workspaces.

    Owns the run's residual and the walk matrices ``W`` and ``Wᵀ``
    (``walk_t``, built from ``walk`` when not given).  Each round
    extracts the frontier with a repeat-free compression and pushes it
    whole, ``c·(Wᵀ·F)·W``, in the calling thread.
    Bit-identical to the reference COO arithmetic per dtype — see the
    module docstring for the argument and
    ``tests/test_simrank_kernels.py`` for the pins.

    ``signed=True`` switches the frontier threshold to entry
    *magnitude* (``|R| > threshold``).  The fresh-run loop never needs
    it — seeding with the identity keeps the residual non-negative —
    but a dynamic repair warm-starts from a residual that carries
    negative mass for deleted edges (:mod:`repro.dynamic`), and its
    convergence argument bounds ``‖R‖_max = max |R_uv|``.

    ``tracer`` receives the phase spans (module docstring).
    """

    def __init__(self, residual: sp.csr_matrix, walk: sp.csr_matrix, *,
                 decay: float, tracer: Tracer = NULL_TRACER,
                 signed: bool = False,
                 walk_t: Optional[sp.csr_matrix] = None) -> None:
        self._residual = residual
        self._walk = walk
        self._walk_t = walk.T.tocsr() if walk_t is None else walk_t
        self._decay = decay
        self._n = walk.shape[0]
        self._tracer = tracer
        self._round = -1  # advanced by each round's frontier extraction
        self._signed = bool(signed)
        self._workspace = _Workspace()

    def _span(self, phase: str) -> Span:
        return self._tracer.span(_PHASE_SPANS[phase], phase=phase,
                                 round=self._round)

    def _frontier(self, positions: np.ndarray, indptr: np.ndarray,
                  indices: np.ndarray, values: np.ndarray) -> Frontier:
        """The entries at ``positions`` of a canonical CSR layout.

        ``indptr``/``indices`` are the layout's, ``values`` the entry
        values to take.  The row pointer of the compressed selection is
        the number of selected entries before each row boundary — a
        binary search of the (sorted) selected positions, with the
        gathers indexed instead of boolean-masked (measured ~10× cheaper
        per pass).  No per-entry row-index expansion.
        """
        frontier_indptr = np.searchsorted(positions, indptr)
        cols = indices[positions]
        data = values[positions]
        matrix = sp.csr_matrix(
            (data, cols,
             frontier_indptr.astype(self._walk.indices.dtype, copy=False)),
            shape=(self._n, self._n), copy=False)
        return Frontier(cols, data, indptr=frontier_indptr, matrix=matrix)

    def extract_frontier(self, threshold: float) -> Optional[Frontier]:
        self._round += 1
        with self._span("frontier"):
            residual = self._residual
            data = residual.data
            workspace = self._workspace
            above = workspace.bool_buffer("above", data.size)
            if self._signed:
                magnitude = workspace.scratch("magnitude", data.size,
                                              data.dtype)
                np.abs(data, out=magnitude)
                np.greater(magnitude, threshold, out=above)
            else:
                np.greater(data, threshold, out=above)
            positions = np.flatnonzero(above)
            if positions.size == 0:
                return None
            frontier = self._frontier(positions, residual.indptr,
                                      residual.indices, data)
            data[positions] = 0.0
        return frontier

    def _push(self, frontier: Frontier) -> sp.csr_matrix:
        """The round update ``c·(Wᵀ·F)·W``, rows in product order."""
        with self._span("push"):
            pushed = ((self._walk_t @ frontier.matrix) @ self._walk).tocsr()
            pushed.data *= self._decay
        return pushed

    def push_round(self, frontier: Frontier) -> None:
        """Push the whole frontier and merge the update into the residual."""
        pushed = self._push(frontier)
        with self._span("merge"):
            # Canonicalise the round update (a storage reorder; no value
            # changes).  With both operands canonical the addition takes
            # scipy's sorted fast path, so the residual's storage order
            # is row-major column-sorted every round, and each round's
            # frontier inherits it.
            pushed.sort_indices()
            self._residual = self._residual + pushed

    def finish(self) -> sp.csr_matrix:
        """The final residual, once the loop has run out of frontier."""
        return self._residual


class IncrementRoundState(FusedRoundState):
    """The increment loop of a maintained repair (module docstring).

    ``residual`` is a converged residual (every entry at most the
    run's threshold in magnitude), which this state only reads;
    ``increment`` is the pending change to it, which the state takes
    over and canonicalises in place.  The frontier threshold is always
    signed.  :meth:`finish` merges the last increment, the one that
    held no frontier.
    """

    def __init__(self, residual: sp.csr_matrix, increment: sp.csr_matrix,
                 walk: sp.csr_matrix, *, decay: float,
                 tracer: Tracer = NULL_TRACER,
                 walk_t: Optional[sp.csr_matrix] = None) -> None:
        super().__init__(residual, walk, decay=decay, tracer=tracer,
                         signed=True, walk_t=walk_t)
        # D, not yet merged; D′ (D with −R at the frontier) once a round
        # has found one.
        self._pending: Optional[sp.csr_matrix] = increment
        self._cleared: Optional[sp.csr_matrix] = None

    def extract_frontier(self, threshold: float) -> Optional[Frontier]:
        self._round += 1
        with self._span("frontier"):
            pending = self._pending
            assert pending is not None  # set by __init__ and push_round
            pending.sum_duplicates()
            if not pending.data.all():
                pending.eliminate_zeros()
            rows = csr_row_indices(pending)
            old = np.asarray(self._residual[rows, pending.indices]).ravel()
            new = old + pending.data
            positions = np.flatnonzero(np.abs(new) > threshold)
            if positions.size == 0:
                return None
            frontier = self._frontier(positions, pending.indptr,
                                      pending.indices, new)
            cleared = pending.data.copy()
            cleared[positions] = -old[positions]
            self._cleared = sp.csr_matrix(
                (cleared, pending.indices, pending.indptr),
                shape=pending.shape, copy=False)
        return frontier

    def push_round(self, frontier: Frontier) -> None:
        """Push the frontier, merge ``R + D′`` and keep the push as ``D``."""
        pushed = self._push(frontier)
        with self._span("merge"):
            pushed.sort_indices()
            self._residual = self._residual + self._cleared
        self._pending, self._cleared = pushed, None

    def finish(self) -> sp.csr_matrix:
        """Merge the last increment and return the final residual."""
        if self._pending is not None:
            with self._span("merge"):
                self._residual = self._residual + self._pending
            self._pending = None
        return self._residual


__all__ = ["DTYPES", "PHASES", "F32_UNIT_ROUNDOFF", "F32_BOUND_SAFETY",
           "working_dtype", "localpush_max_rounds", "float32_error_bound",
           "Frontier", "FusedRoundState", "IncrementRoundState"]
