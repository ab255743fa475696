"""Input validation helpers shared by the numerical core and the estimators."""

import numpy as np

from .errors import BadParameters, ShapeMismatch


def as_complex_matrix(a, name="matrix"):
    """Coerce to a nonempty 2-D complex array with finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got ndim={arr.ndim}")
    if arr.size == 0:
        raise ShapeMismatch(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise BadParameters(f"{name} contains non-finite entries")
    return arr


def as_complex_vector(a, name="vector"):
    """Coerce to a nonempty 1-D complex array with finite entries."""
    arr = np.asarray(a, dtype=complex).ravel()
    if arr.size == 0:
        raise ShapeMismatch(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise BadParameters(f"{name} contains non-finite entries")
    return arr


def _is_int(value):
    """The one integer test: Python and numpy integers, booleans not."""
    return type(value) is not bool and isinstance(value, (int, np.integer))


def check_nonnegative_int(value, name):
    """Require a non-negative integer (_is_int)."""
    if not _is_int(value) or value < 0:
        raise BadParameters(f"{name} must be a non-negative integer, got {value!r}")


def _positive_int(value, name):
    """value as an int; BadParameters unless it is an integer (_is_int) >= 1."""
    if not _is_int(value) or value < 1:
        raise BadParameters(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_period(P):
    """Require a finite positive period."""
    if not (np.isfinite(P) and P > 0):
        raise BadParameters(f"period P must be finite and positive, got {P!r}")


def check_distinct(values, name="values"):
    """Require pairwise distinct complex values; returns them flat, in order.

    Sorted by (real, imag), equal values are neighbours.
    """
    arr = np.asarray(values, dtype=complex).ravel()
    srt = np.sort(arr)
    if np.any(srt[1:] == srt[:-1]):
        raise BadParameters(f"{name} must be pairwise distinct")
    return arr
