"""Shared utilities: deterministic RNG handling, timers, validation and
atomic file writes."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.timer import Timer, TimingBreakdown
from repro.utils.validation import (
    check_fraction,
    check_positive,
    check_probability_matrix,
    check_square,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "Timer",
    "TimingBreakdown",
    "check_fraction",
    "check_positive",
    "check_probability_matrix",
    "check_square",
]
