"""Kernel-equivalence and float32 suites for the push-round kernel.

The contract under test (``repro/simrank/kernels.py``): for a fixed
dtype, the engine's fused round arithmetic returns matrices
*bit-identical* to the historical CSR-object arithmetic
(``_simrank_oracles.ScipyRoundState``, swapped into the engine by
``scipy_rounds()``).  Plus the float32 mode's adjusted error bound (:func:`repro.simrank.kernels.float32_error_bound`), checked
against the dense ``linearized_simrank`` oracle under hypothesis-driven
graphs.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from _simrank_fixtures import disconnected, erdos_renyi, sbm, star, weighted
from _simrank_oracles import scipy_rounds
from repro.errors import SimRankError
from repro.graphs.normalize import column_normalize
from repro.simrank.engine import (
    localpush_engine,
    multi_source_localpush,
    resume_localpush,
)
from repro.simrank.exact import linearized_simrank
from repro.simrank.kernels import (
    DTYPES,
    F32_UNIT_ROUNDOFF,
    PHASES,
    FusedRoundState,
    float32_error_bound,
    localpush_max_rounds,
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


def signed_residual(graph, seed: int) -> sp.csr_matrix:
    """A repair-style residual: the identity plus symmetric mass of both
    signs (the shape a deleted edge leaves behind)."""
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    noise = sp.random(n, n, density=0.05, random_state=rng, format="csr")
    noise.data = noise.data - 0.5
    return (sp.identity(n, format="csr") + 0.3 * (noise + noise.T)).tocsr()



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


class TestKernelBitIdentity:
    """fused == the scipy oracle, bitwise."""

    @pytest.mark.parametrize("epsilon,absorb_residual",
                             [(0.01, False), (1e-3, True)])
    def test_full_matrix_bitwise(self, epsilon, absorb_residual):
        for graph in graphs():
            with scipy_rounds():
                base = localpush_engine(graph, decay=0.6, epsilon=epsilon,
                                        absorb_residual=absorb_residual)
            other = localpush_engine(graph, decay=0.6, epsilon=epsilon,
                                     absorb_residual=absorb_residual)
            assert_bitwise(base.matrix, other.matrix)
            assert other.num_pushes == base.num_pushes
            assert other.num_rounds == base.num_rounds

    def test_single_source_rows_bitwise(self):
        graph = sbm(90, 5)
        sources = [0, 17, 55]
        with scipy_rounds():
            base = multi_source_localpush(graph, sources, decay=0.6,
                                          epsilon=1e-3)
        fused = multi_source_localpush(graph, sources, decay=0.6,
                                       epsilon=1e-3)
        for b, f in zip(base, fused):
            assert b.source == f.source
            assert_bitwise(b.row, f.row)

    def test_signed_repair_rounds_bitwise(self):
        """The magnitude-threshold rounds of a repair match the oracle."""
        for seed, graph in enumerate(graphs()):
            residual = signed_residual(graph, seed)
            with scipy_rounds():
                base = resume_localpush(graph, residual.copy(), epsilon=0.01)
            fused = resume_localpush(graph, residual.copy(), epsilon=0.01)
            assert_bitwise(base.estimate_delta, fused.estimate_delta)
            assert_bitwise(base.residual, fused.residual)
            assert fused.num_pushes == base.num_pushes
            assert fused.num_rounds == base.num_rounds

    def test_float32_kernels_bitwise(self):
        for graph in graphs():
            with scipy_rounds():
                base = localpush_engine(graph, decay=0.6, epsilon=0.01,
                                        dtype="float32")
            fused = localpush_engine(graph, decay=0.6, epsilon=0.01,
                                     dtype="float32")
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

    def test_one_push_per_round(self):
        """Each round opens one frontier, one push and one merge span; the
        last frontier extraction finds nothing and pushes nothing."""
        recorder = SpanRecorder(max_spans=100_000)
        result = localpush_engine(sbm(90, 5), decay=0.6, epsilon=1e-3,
                                  tracer=Tracer([recorder]))
        names = [span["name"] for span in recorder.spans()]
        assert result.num_rounds > 4
        assert names.count("localpush.push") == result.num_rounds
        assert names.count("localpush.merge") == result.num_rounds
        assert names.count("localpush.frontier") == result.num_rounds + 1

    @pytest.mark.parametrize("signed", [False, True])
    def test_the_residual_add_stores_no_zero(self, signed):
        """A round clears its frontier to explicit zeros and the residual
        add drops every zero it would store, so after each round the
        residual holds none: no separate coalescing pass is needed."""
        graph = sbm(90, 5)
        residual = (signed_residual(graph, 1) if signed
                    else sp.identity(graph.num_nodes, format="csr"))
        state = FusedRoundState(residual, column_normalize(graph.adjacency),
                                decay=0.6, signed=signed)
        rounds = 0
        while (frontier := state.extract_frontier(0.4 * 1e-3)) is not None:
            state.push_round(frontier)
            rounds += 1
            assert np.count_nonzero(state.finish().data == 0.0) == 0
        assert rounds > 4

    def test_phase_spans_cover_the_three_phases(self):
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
