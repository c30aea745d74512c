"""Incremental SimRank maintenance for evolving graphs.

This package keeps a LocalPush operator *live* under an edge-update
stream: instead of recomputing the all-pairs estimate from scratch when
the graph mutates, it repairs the maintained ``(estimate, residual)``
pair with work proportional to the size of the change.

The repair invariant
--------------------
Write ``W = A D⁻¹`` for the column-normalised walk matrix and define
the linear map

    G(X) = Σ_ℓ c^ℓ (Wᵀ)^ℓ X W^ℓ,   so   G(X) = X + c·Wᵀ G(X) W,

whose fixed-point value at the identity is the linearised SimRank
matrix: ``G(I) = S``.  The engine's frontier-round loop (extract
``F = R·1[|R| > (1−c)ε]``; ``Ŝ += F``; ``R −= F``; ``R += c·Wᵀ F W``)
preserves

    Ŝ + G(R) = S                                     (the invariant)

exactly at every step — it starts true (``Ŝ = 0, R = I``) and each
round moves ``G(F) = F + G(c·WᵀFW)`` worth of mass from the second term
to the first.  Column sub-stochasticity of ``W`` gives
``‖G(X)‖_max ≤ ‖X‖_max / (1−c)``, so stopping when every residual entry
has magnitude at most ``(1−c)·ε`` leaves ``‖Ŝ − S‖_max < ε``.

Repairing after an update
-------------------------
When the graph changes (``W → W′``, target ``S′ = G′(I)``), the
maintained pair violates the *new* invariant by a computable, delta-
sized amount.  Re-seeding the residual as

    R₀ = R + c·(W′ᵀ Ŝ W′ − Wᵀ Ŝ W)
       = R + c·(Δᵀ Ŝ W′ + Wᵀ Ŝ Δ),        Δ = W′ − W,

restores ``Ŝ + G′(R₀) = S′`` exactly.  ``Δ`` is nonzero only in the
columns of nodes whose incident edges changed (column normalisation is
per-column), so the correction costs a few sparse products restricted
to those columns — not a traversal of the graph.  Re-running the
ordinary frontier rounds on ``W′`` from ``(0, R₀)`` — in *signed* mode,
since deleted mass makes ``R₀`` carry negative entries — converges to
``|R| ≤ (1−c)·ε`` again, and the repaired ``Ŝ + ΔŜ`` satisfies the
same ``< ε`` bound as a fresh recompute.  Component merges and splits
need no special casing: the algebra is exact for any structural change.

Where a repair's frontiers lie
------------------------------
After a converged build or repair every entry satisfies
``|R| ≤ (1−c)·ε``: the round loop only stops once no entry exceeds it.
So in ``R₀ = R + C`` (``C`` the correction above) only an entry ``C``
changed can exceed the threshold, and the first frontier lies in
``C``'s support.  A round clears its frontier and adds its push ``P``;
every other entry keeps a value that was not above the threshold, so the
next frontier lies in ``P``'s support, and so on.  The engine's
increment loop (:class:`repro.simrank.kernels.IncrementRoundState`)
therefore never scans the residual: it looks ``R`` up at the pending
increment's entries (``C``, then each ``P``), takes the frontier among
them, and merges once per round.  It only reads the maintained
residual, so the snapshot writer can keep projecting it, and a failed
repair leaves it as it was.  Its frontiers, pushes and final residual
are bitwise those of scanning ``R + C``.  The reconstruction below
holds no such bound, so a warm-started operator's first repair scans.

A maintained residual is not even required: for *any* estimate ``Ŝ``
(e.g. one loaded from the operator cache) the reconstruction

    R₀ = I − Ŝ + c·W′ᵀ Ŝ W′

restores the invariant on ``W′`` from scratch — this is how a warm
cache entry for the graph (a fresh operator or a repaired snapshot
alike) warm-starts a :class:`~repro.dynamic.operator.DynamicOperator`
without a full recompute.

Entry points
------------
:class:`~repro.dynamic.operator.DynamicOperator` owns the maintained
state — with ``W`` and ``Wᵀ`` of its graph, so an update builds only
``W′`` and ``W′ᵀ`` — and the repair loop; :func:`repro.api.apply_updates`
is the one-call facade; the serving layer applies updates through
``SimRankService.apply_update`` and the daemon's ``/update`` endpoint.
Both hand the repair the updated graph they already built to validate
or key the batch, so an update applies its batch once.

An operator with a cache always stores each repaired snapshot in it,
under the ordinary key of the graph it describes
(``key_for_fields(updated graph, maintained fields)``), so any update
stream that reaches a cached graph replays it through ``apply_updates``
with zero push work, and a stream that revisits a graph rewrites that
graph's entry instead of adding one.  The entry is written off the
repair path: ``apply`` returns once the repair commits, and a
short-lived writer thread stores the newest committed state.  Latest
wins — a state superseded while it waits is never written, the write in
flight always completes — and ``DynamicOperator.flush()`` blocks until
the writer is idle, returning the last write error
(``DynamicOperator.write_error``).  ``apply_updates`` flushes before it
returns.
"""

from repro.dynamic.operator import DynamicOperator, RepairResult

__all__ = ["DynamicOperator", "RepairResult"]
