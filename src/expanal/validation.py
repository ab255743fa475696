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


def check_nonnegative_int(value, name):
    """Require a non-negative integer (numpy integers included)."""
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise BadParameters(f"{name} must be a non-negative integer, got {value!r}")


def check_distinct(values, name="values", tol=0.0):
    """Require pairwise distinct complex values (within an absolute tolerance)."""
    arr = np.asarray(values, dtype=complex).ravel()
    for i in range(len(arr)):
        d = np.abs(arr[i + 1:] - arr[i])
        if d.size and d.min() <= tol:
            raise BadParameters(f"{name} must be pairwise distinct")
    return arr
