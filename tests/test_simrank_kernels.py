"""Kernel-equivalence and float32 suites for the push-round kernel.

The contract under test (``repro/simrank/kernels.py``): for a fixed
dtype, the engine's fused round arithmetic returns matrices
*bit-identical* to the historical CSR-object arithmetic
(``_simrank_oracles.ScipyRoundState``, swapped into the engine by
``scipy_rounds()``) for every worker count — the same guarantee the
worker count itself carries.  Plus the float32 mode's adjusted
error bound (:func:`repro.simrank.kernels.float32_error_bound`), checked
against the dense ``linearized_simrank`` oracle under hypothesis-driven
graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _simrank_fixtures import disconnected, erdos_renyi, sbm, star, weighted
from _simrank_oracles import scipy_rounds
from repro.errors import SimRankError
from repro.simrank.engine import localpush_engine, multi_source_localpush
from repro.simrank.exact import linearized_simrank
from repro.simrank.kernels import (
    DTYPES,
    F32_UNIT_ROUNDOFF,
    PHASES,
    float32_error_bound,
    localpush_max_rounds,
    shard_bounds,
    working_dtype,
)
from repro.telemetry import SpanRecorder, Tracer, phase_seconds


def assert_bitwise(a, b) -> None:
    """The two CSR matrices are bitwise identical (values and storage)."""
    assert a.dtype == b.dtype
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


def graphs():
    return [erdos_renyi(80, 0.08, 3), sbm(90, 5), star(12),
            weighted(40, 9), disconnected()]


# The worker counts the bit-identity contract covers: inline and pooled.
WORKERS = pytest.mark.parametrize("workers", [1, 2, 3])


class TestWorkingDtype:
    def test_working_dtype(self):
        assert working_dtype("float64") == np.float64
        assert working_dtype("float32") == np.float32
        assert tuple(DTYPES) == ("float64", "float32")
        with pytest.raises(SimRankError, match="dtype"):
            working_dtype("float16")


class TestFloat32Bound:
    def test_bound_exceeds_epsilon(self):
        assert float32_error_bound(0.1, 0.6) > 0.1

    def test_rounds_terminate_the_residual_decay(self):
        # decay^rounds must fall below the push threshold (1-c)·ε — the
        # geometric-decay argument behind the bound's round count.
        for epsilon, decay in [(0.1, 0.6), (0.01, 0.6), (0.1, 0.8)]:
            rounds = localpush_max_rounds(epsilon, decay)
            assert decay ** rounds <= (1.0 - decay) * epsilon * (1 + 1e-12)

    def test_loose_threshold_needs_no_rounds(self):
        assert localpush_max_rounds(10.0, 0.6) == 0

    def test_rounding_term_grows_as_epsilon_shrinks(self):
        loose = float32_error_bound(0.1, 0.6) - 0.1
        tight = float32_error_bound(0.001, 0.6) - 0.001
        assert 0.0 < loose < tight

    def test_unit_roundoff_is_float32(self):
        assert F32_UNIT_ROUNDOFF == 2.0 ** -24


class TestShardBounds:
    def test_matches_array_split(self):
        for count, shards in [(10, 3), (8192, 1), (8193, 2), (7, 7), (9, 4)]:
            expected = [(int(part[0]), int(part[-1]) + 1)
                        for part in np.array_split(np.arange(count), shards)]
            assert shard_bounds(count, shards) == expected


class TestKernelBitIdentity:
    """fused == the scipy oracle, bitwise, per worker count."""

    @WORKERS
    def test_full_matrix_bitwise(self, workers):
        for graph in graphs():
            with scipy_rounds():
                base = localpush_engine(graph, decay=0.6, epsilon=0.01)
            other = localpush_engine(graph, decay=0.6, epsilon=0.01,
                                     num_workers=workers)
            assert_bitwise(base.matrix, other.matrix)
            assert other.num_pushes == base.num_pushes
            assert other.num_rounds == base.num_rounds

    @WORKERS
    def test_multi_shard_rounds_bitwise(self, workers):
        graph = sbm(90, 5)
        with scipy_rounds():
            base = localpush_engine(graph, decay=0.6, epsilon=1e-3,
                                    num_shards=3)
        fused = localpush_engine(graph, decay=0.6, epsilon=1e-3,
                                 num_shards=3, num_workers=workers)
        assert_bitwise(base.matrix, fused.matrix)

    @WORKERS
    @pytest.mark.parametrize("coalesce_every", [1, 3])
    def test_coalesce_cadence_bitwise(self, coalesce_every, workers):
        """The residual coalescing cadence only changes storage."""
        for graph in graphs():
            with scipy_rounds():
                base = localpush_engine(graph, decay=0.6, epsilon=1e-3,
                                        absorb_residual=True)
            fused = localpush_engine(graph, decay=0.6, epsilon=1e-3,
                                     absorb_residual=True,
                                     coalesce_every=coalesce_every,
                                     num_workers=workers)
            assert_bitwise(base.matrix, fused.matrix)

    @WORKERS
    def test_single_source_rows_bitwise(self, workers):
        graph = sbm(90, 5)
        sources = [0, 17, 55]
        with scipy_rounds():
            base = multi_source_localpush(graph, sources, decay=0.6,
                                          epsilon=1e-3)
        fused = multi_source_localpush(graph, sources, decay=0.6,
                                       epsilon=1e-3, num_workers=workers)
        for b, f in zip(base, fused):
            assert b.source == f.source
            assert_bitwise(b.row, f.row)

    @WORKERS
    def test_float32_kernels_bitwise(self, workers):
        for graph in graphs():
            with scipy_rounds():
                base = localpush_engine(graph, decay=0.6, epsilon=0.01,
                                        dtype="float32")
            fused = localpush_engine(graph, decay=0.6, epsilon=0.01,
                                     dtype="float32", num_workers=workers)
            assert base.matrix.dtype == np.float32
            assert_bitwise(base.matrix, fused.matrix)

    def test_oracle_swap_is_scoped(self):
        """The oracle runs only inside the block; the engine's own
        arithmetic is restored after it, even when the run raises."""
        import repro.simrank.engine as engine_module
        from repro.simrank.kernels import FusedRoundState

        with pytest.raises(SimRankError):
            with scipy_rounds():
                assert engine_module.FusedRoundState is not FusedRoundState
                localpush_engine(star(6), epsilon=0.01, max_pushes=1)
        assert engine_module.FusedRoundState is FusedRoundState

    def test_phase_spans_cover_the_four_phases(self):
        recorder = SpanRecorder(max_spans=100_000)
        localpush_engine(sbm(90, 5), decay=0.6, epsilon=0.01,
                         tracer=Tracer([recorder]))
        seconds = phase_seconds(recorder.spans())
        assert set(seconds) == set(PHASES)
        assert all(value >= 0.0 for value in seconds.values())
        assert sum(seconds.values()) > 0.0


class TestFloat32Sweep:
    """Hypothesis-driven float32 runs stay within the adjusted bound."""

    @settings(max_examples=15, deadline=None)
    @given(n=st.integers(20, 60), p=st.floats(0.05, 0.2),
           seed=st.integers(0, 10_000),
           epsilon=st.sampled_from([0.05, 0.1, 0.2]),
           decay=st.sampled_from([0.4, 0.6, 0.8]))
    def test_error_within_adjusted_bound(self, n, p, seed, epsilon, decay):
        graph = erdos_renyi(n, p, seed)
        exact = linearized_simrank(graph, decay=decay, tolerance=1e-12)
        result = localpush_engine(graph, epsilon=epsilon, decay=decay,
                                  prune=False, absorb_residual=True,
                                  dtype="float32")
        dense = result.matrix.toarray().astype(np.float64)
        error = float(np.abs(dense - exact).max())
        assert error < float32_error_bound(epsilon, decay)

    @settings(max_examples=10, deadline=None)
    @given(n=st.integers(20, 50), p=st.floats(0.05, 0.2),
           seed=st.integers(0, 10_000))
    def test_fused_float32_matches_scipy_float32(self, n, p, seed):
        graph = erdos_renyi(n, p, seed)
        with scipy_rounds():
            base = localpush_engine(graph, decay=0.6, epsilon=0.05,
                                    dtype="float32")
        fused = localpush_engine(graph, decay=0.6, epsilon=0.05,
                                 dtype="float32")
        assert_bitwise(base.matrix, fused.matrix)
