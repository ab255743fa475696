"""Dense complex linear algebra behind the recovery pipelines.

Thin, contract-checked wrappers around LAPACK via numpy alone: SVD,
truncated-SVD least squares, Hermitian eigendecomposition, eigenvalues of
square pencils with a nonsingular right-hand matrix, and one least-cost
assignment (shortest augmenting paths).  The library needs no scipy: both
pole engines reduce their pencil to a standard eigenproblem, and the pairing
and the error metric share linear_assignment.
"""

import math

import numpy as np

from .errors import ConvergenceFailure, BadParameters, ShapeMismatch
from .validation import as_complex_matrix, as_complex_vector, check_rcond

DEFAULT_RCOND = 1e-13


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
    check_rcond(rcond)
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
    check_rcond(rcond)
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


def gen_eig(a, b=None):
    """All eigenvalues of the square pencil (a, b): those of solve(b, a).

    b must be nonsingular (the identity when omitted), so every eigenvalue is
    finite; an exactly singular b, or a failed solve or eigenvalue iteration,
    raises ConvergenceFailure.  The name is kept from the QZ-based version
    that also took singular pencils: it is a public export and the entry
    point the pole engines and the benchmark tracer share.
    """
    a = as_complex_matrix(a, "a")
    if b is not None:
        b = as_complex_matrix(b, "b")
    if a.shape[0] != a.shape[1] or (b is not None and b.shape != a.shape):
        raise ShapeMismatch(
            f"pencil matrices must be square and equal-sized, got {a.shape}"
            + ("" if b is None else f" and {b.shape}")
        )
    try:
        return np.linalg.eigvals(a if b is None else np.linalg.solve(b, a))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"pencil eigenvalues failed: {exc}") from exc


def linear_assignment(cost):
    """Least-total-cost assignment of the rows and columns of a real matrix.

    Every row of an m x n cost with m <= n gets a distinct column (every
    column when m > n).  Returns (rows, cols), rows ascending, so that
    cost[rows, cols].sum() is minimal.  Each row enters through one shortest
    augmenting path over the reduced costs (Jonker and Volgenant 1987, in the
    dual-update form of Crouse 2016), so the result is optimal at any size.

    The path search runs over Python lists: the callers match orders of a
    few dozen at most, where per-call numpy overhead would cost more than
    the arithmetic.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ShapeMismatch(f"cost must be 2-D, got ndim={cost.ndim}")
    if not np.isfinite(cost).all():
        raise BadParameters("cost contains non-finite entries")
    transposed = cost.shape[0] > cost.shape[1]
    if transposed:
        cost = cost.T
    m, n = cost.shape
    table = cost.tolist()
    u, v = [0.0] * m, [0.0] * n
    row_of, col_of = [-1] * n, [-1] * m
    for start in range(m):
        # Dijkstra over the columns from row `start`, on reduced costs >= 0
        dist, pred = [math.inf] * n, [0] * n
        todo, done, rows_seen = list(range(n)), [], []
        i, reach = start, 0.0
        while True:
            rows_seen.append(i)
            row, offset = table[i], reach - u[i]
            best, pick = math.inf, -1
            for slot, j in enumerate(todo):
                step = row[j] - v[j] + offset
                if step < dist[j]:
                    dist[j], pred[j] = step, i
                # among equal distances an unassigned column ends the path
                if dist[j] < best or (dist[j] == best and row_of[j] < 0):
                    best, pick = dist[j], slot
            reach = best
            j = todo[pick]
            todo[pick] = todo[-1]
            todo.pop()
            done.append(j)
            if row_of[j] < 0:
                break
            i = row_of[j]
        for r in rows_seen[1:]:
            u[r] += reach - dist[col_of[r]]
        u[start] += reach
        for k in done:
            v[k] -= reach - dist[k]
        while True:
            i = pred[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    rows, cols = np.arange(m), np.array(col_of, dtype=int)
    if transposed:
        order = np.argsort(cols)
        return cols[order], rows[order]
    return rows, cols


def sort_complex(values):
    """Sort complex values by (real, imag) lexicographic order."""
    arr = np.asarray(values, dtype=complex).ravel()
    return arr[np.lexsort((arr.imag, arr.real))]
