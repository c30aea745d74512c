"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def is_integral(value: object) -> bool:
    """Whether ``value`` is an integral number, ``bool`` excluded.

    ``3``, ``3.0`` and ``np.int64(3)`` qualify; ``0.9``, ``True`` and the
    string ``"5"`` do not — nothing is truncated or parsed.
    """
    if isinstance(value, bool):
        return False
    try:
        return int(value) == value  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        return False


def check_positive(name: str, value: float, *, strict: bool = True) -> float:
    """Validate that ``value`` is positive (strictly by default)."""
    value = float(value)
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in ``[0, 1]`` (or ``(0, 1)``)."""
    value = float(value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value}")
    return value


def check_square(name: str, matrix: sp.spmatrix | np.ndarray) -> None:
    """Validate that ``matrix`` is square."""
    rows, cols = matrix.shape
    if rows != cols:
        raise ValueError(f"{name} must be square, got shape {matrix.shape}")


def check_probability_matrix(name: str, matrix: np.ndarray, *, axis: int = 1,
                             atol: float = 1e-6) -> None:
    """Validate that rows (or columns) of ``matrix`` sum to one."""
    sums = np.asarray(matrix).sum(axis=axis)
    if not np.allclose(sums, 1.0, atol=atol):
        raise ValueError(
            f"{name} rows must sum to 1 along axis {axis}; "
            f"min={sums.min():.6f} max={sums.max():.6f}"
        )


__all__ = [
    "is_integral",
    "check_positive",
    "check_fraction",
    "check_square",
    "check_probability_matrix",
]
