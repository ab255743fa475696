"""Dense complex linear algebra behind the recovery pipelines.

Thin, contract-checked wrappers around LAPACK (via numpy/scipy): SVD,
truncated-SVD least squares, Hermitian eigendecomposition, and generalized
eigenvalues of square pencils.
"""

import numpy as np
import scipy.linalg

from .errors import ConvergenceFailure, BadParameters, ShapeMismatch
from .validation import as_complex_matrix, as_complex_vector

DEFAULT_RCOND = 1e-13
INF_EIG_CUTOFF = 1e-12


def svd(a):
    """Economy SVD a = u @ diag(s) @ v.conj().T, singular values descending.

    Returns (u, s, v) where the columns of u and v are orthonormal.
    """
    a = as_complex_matrix(a, "a")
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
    return u, s, vh.conj().T


def lstsq(a, b, rcond=DEFAULT_RCOND):
    """Minimum-norm least squares solution of a @ x = b.

    Singular values below rcond times the largest are treated as zero.
    """
    a = as_complex_matrix(a, "a")
    b = as_complex_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"a has {a.shape[0]} rows but b has length {b.shape[0]}")
    if not 0.0 < rcond < 1.0:
        raise BadParameters(f"rcond must lie in (0, 1), got {rcond!r}")
    try:
        x, _, _, _ = np.linalg.lstsq(a, b, rcond=rcond)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"least squares solve failed: {exc}") from exc
    return x


def lstsq_with_rank(a, b, rcond=DEFAULT_RCOND):
    """Like lstsq, additionally returning the numerical rank at the cutoff."""
    a = as_complex_matrix(a, "a")
    b = as_complex_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"a has {a.shape[0]} rows but b has length {b.shape[0]}")
    if not 0.0 < rcond < 1.0:
        raise BadParameters(f"rcond must lie in (0, 1), got {rcond!r}")
    try:
        x, _, rank, _ = np.linalg.lstsq(a, b, rcond=rcond)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"least squares solve failed: {exc}") from exc
    return x, int(rank)


def eigh(a):
    """Eigendecomposition a = v @ diag(w) @ v.conj().T of a Hermitian matrix.

    Reads the lower triangle; eigenvalues ascending, columns of v orthonormal.
    """
    a = as_complex_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"matrix must be square, got {a.shape}")
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"Hermitian eigensolver did not converge: {exc}") from exc


def gen_eig(a, b, inf_cutoff=INF_EIG_CUTOFF):
    """All generalized eigenvalues of the square pencil (a, b).

    Eigenvalues whose QZ beta satisfies |beta| <= inf_cutoff * max|beta| are
    returned as complex infinity; callers filter with np.isfinite.
    """
    a = as_complex_matrix(a, "a")
    b = as_complex_matrix(b, "b")
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"pencil matrices must be square and equal-sized, got {a.shape} and {b.shape}")
    try:
        ab = scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=True)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise ConvergenceFailure(f"QZ iteration failed: {exc}") from exc
    alpha, beta = np.asarray(ab[0]), np.asarray(ab[1])
    out = np.full(alpha.shape, complex(np.inf, 0.0), dtype=complex)
    scale = np.abs(beta).max()
    if scale > 0.0:
        finite = np.abs(beta) > inf_cutoff * scale
        out[finite] = alpha[finite] / beta[finite]
    return out


def sort_complex(values):
    """Sort complex values by (real, imag) lexicographic order."""
    arr = np.asarray(values, dtype=complex).ravel()
    return arr[np.lexsort((arr.imag, arr.real))]
