"""Dense complex linear algebra behind the recovery pipelines.

Thin, contract-checked wrappers around LAPACK via numpy alone: SVD,
truncated-SVD least squares, the eigenvalues of one square matrix, and one
least-cost assignment (shortest augmenting paths).
The library needs no scipy: both pole engines reduce their pencil to a
standard eigenproblem, and the pairing and the error metric share
linear_assignment.

RCOND is the one numerical-rank cutoff and _rank_errors its one rule, for the
pencil engine and cauchy_lstsq, the one solver of sum_j x_j / (k - b_j) = rhs
(the line fit's residues, the slice peel and the pairing of both methods);
_cauchy_pinv forms its pseudo-inverses, which the pole tree also carries down
its leading levels.  _out_of_range is the one check of a solution against the
float range, _lapack the one conversion of a LAPACK failure to
ConvergenceFailure, and _pow2_scale the one exact power-of-two scaling of a
stack of lines (the line fit's).
"""

import math

import numpy as np

from .errors import BadParameters, ConvergenceFailure, IllConditioned, ShapeMismatch
from .validation import as_complex_matrix, as_complex_vector

RCOND = 1e-13


def svd(a):
    """Economy SVD a = u @ diag(s) @ v.conj().T, singular values descending.

    Returns (u, s, v) where the columns of u and v are orthonormal.
    """
    a = as_complex_matrix(a, "a")
    u, s, vh = _lapack("SVD", np.linalg.svd, a, full_matrices=False)
    return u, s, vh.conj().T


def _lapack(what, call, *args, **kwargs):
    """call(*args, **kwargs), a LAPACK failure raised as ConvergenceFailure
    naming `what`: the one place the package converts LinAlgError."""
    try:
        return call(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"{what} did not converge: {exc}") from exc


def _pow2_scale(rows):
    """(rows * 2^-e, e) for a complex (r, n) stack, e[i] the exponent of the
    largest real or imaginary part of row i (a modulus can overflow): every
    scaled part lies below 1, exactly, and _ldexp scales back."""
    rows = np.ascontiguousarray(rows)
    e = np.frexp(np.abs(rows.view(float)).max(axis=1))[1]
    return _ldexp(rows, -e), e


def _ldexp(z, e):
    """Row i of a complex (r, n) stack times 2^e[i], exact in range (2^1074 is no float)."""
    return np.ldexp(np.ascontiguousarray(z).view(float), e[:, None]).view(complex)


def _rank_errors(s, what):
    """The rank rule on a (g, p) stack of descending singular values: {row:
    IllConditioned naming `what`} for the rows with s[-1] <= RCOND * s[0]."""
    ratio = s[:, -1] / np.where(s[:, 0] > 0, s[:, 0], 1.0)
    return {i: IllConditioned(f"{what} is numerically rank deficient: singular value "
                              f"ratio {ratio[i]:.3e} <= {RCOND:.0e}")
            for i in np.flatnonzero(ratio <= RCOND).tolist()}


def _non_finite_cauchy(what):
    """The error for a Cauchy system `what` with a non-finite entry."""
    return BadParameters(f"{what} has non-finite entries: poles must be finite, "
                         f"and sample points must be disjoint from the poles")


def cauchy_lstsq(b, k, rhs, what):
    """Least squares solutions x[i] of sum_j x[i, j] / (k - b[i, j]) = rhs[i]
    for a (g, p) stack of poles b, the (n,) sample points k and (g, n, *tail)
    right-hand sides: one SVD, each pseudo-inverse applied to all its tails in
    one matmul.  Returns (x, {row: error naming `what`}), x (g, p, *tail).  A
    non-finite Cauchy matrix, or a solution outside the float range, is
    refused with BadParameters, and one with fewer rows than poles or
    s[-1] <= RCOND * s[0] with IllConditioned.  A LAPACK failure is pinned on
    its row by solving the rows one at a time.
    """
    x, errors, _ = _cauchy_solve(b, k, rhs, what)
    return x, errors


def _cauchy_solve(b, k, rhs, what):
    """cauchy_lstsq, and the (g, p, n) pseudo-inverses it applied."""
    g, n = rhs.shape[:2]
    pinv, errors = _cauchy_pinv(b, k, what)
    with np.errstate(over="ignore", invalid="ignore"):
        x = pinv @ rhs.reshape(g, n, math.prod(rhs.shape[2:]))
    for i, exc in _out_of_range(x, what).items():
        errors.setdefault(i, exc)
    return x.reshape(b.shape + rhs.shape[2:]), errors, pinv


def _cauchy_pinv(b, k, what):
    """The (g, p, n) pseudo-inverses of the Cauchy matrices 1 / (k - b[i]) of
    a (g, p) stack of poles, one SVD for the stack, and {row: error naming
    `what`} for the rows cauchy_lstsq refuses before solving (the rank rule,
    a non-finite matrix, a LAPACK failure); a refused row's pseudo-inverse is
    finite and meaningless."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cauchy = 1.0 / (k[:, None] - b[:, None, :])
        finite = np.isfinite(cauchy).all(axis=(1, 2))
        cauchy[~finite] = 0.0  # an inf can stall LAPACK's SVD
        try:
            u, s, vh = _lapack("SVD", np.linalg.svd, cauchy, full_matrices=False)
        except ConvergenceFailure as exc:
            if len(b) == 1:
                return np.zeros((1, b.shape[1], len(k)), dtype=complex), {0: exc}
            parts = [_cauchy_pinv(row[None], k, what) for row in b]
            return (np.concatenate([pinv for pinv, _ in parts]),
                    {i: errs[0] for i, (_, errs) in enumerate(parts) if errs})
        # wide: rank < p
        errors = _rank_errors(s if b.shape[1] <= len(k) else np.zeros((len(b), 1)), what)
        for i in np.flatnonzero(~finite).tolist():
            errors[i] = _non_finite_cauchy(what)
        s[list(errors)] = 1.0  # every kept s > 0
        return (vh.conj().transpose(0, 2, 1) / s[:, None, :]) @ u.conj().transpose(0, 2, 1), errors


def _out_of_range(x, what):
    """{row: BadParameters naming `what`} for the rows of a (g, ...) stack of
    solutions with an entry outside the float range.  The overflow is read
    from the values, so it is found in any BLAS thread."""
    ok = np.isfinite(x.view(float))
    if ok.all():
        return {}
    return {i: BadParameters(f"{what} has a solution outside the float range")
            for i in np.flatnonzero(~ok.reshape(len(x), -1).all(axis=1)).tolist()}


def lstsq(a, b):
    """Minimum-norm least squares solution of a @ x = b (rank cutoff RCOND)."""
    return lstsq_with_rank(a, b)[0]


def lstsq_with_rank(a, b):
    """Like lstsq, additionally returning the numerical rank at the cutoff."""
    a = as_complex_matrix(a, "a")
    b = as_complex_vector(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeMismatch(f"a has {a.shape[0]} rows but b has length {b.shape[0]}")
    x, _, rank, _ = _lapack("least squares solve", np.linalg.lstsq, a, b, rcond=RCOND)
    return x, int(rank)


def gen_eig(a):
    """All eigenvalues of the square matrix a.

    A failed eigenvalue iteration raises ConvergenceFailure.  No module calls
    it: it stays as a public export and an entry point the benchmark tracer
    wraps.
    """
    a = as_complex_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"matrix must be square, got {a.shape}")
    return _lapack("eigenvalue iteration", np.linalg.eigvals, a)


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
