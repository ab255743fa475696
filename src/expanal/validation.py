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
    """Require a non-negative integer (numpy integers included, booleans not)."""
    if type(value) is bool or not isinstance(value, (int, np.integer)) or value < 0:
        raise BadParameters(f"{name} must be a non-negative integer, got {value!r}")


def check_period(P):
    """Require a finite positive period."""
    if not (np.isfinite(P) and P > 0):
        raise BadParameters(f"period P must be finite and positive, got {P!r}")


def check_rcond(rcond):
    """Require a relative singular-value cutoff in (0, 1)."""
    if not 0.0 < rcond < 1.0:
        raise BadParameters(f"rcond must lie in (0, 1), got {rcond!r}")


def check_distinct(values, name="values", tol=0.0):
    """Require pairwise distinct complex values (within an absolute tolerance).

    Sorted (real, imag), the values are scanned one offset at a time; once no
    pair at some offset is within tol in the real part, no pair further apart
    can be within tol at all.
    """
    arr = np.asarray(values, dtype=complex).ravel()
    srt = np.sort(arr)
    for k in range(1, len(srt)):
        head, tail = srt[:-k], srt[k:]
        near = tail.real - head.real <= tol
        if not near.any():
            break
        if (np.abs(tail[near] - head[near]) <= tol).any():
            raise BadParameters(f"{name} must be pairwise distinct")
    return arr
