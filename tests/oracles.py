"""Independent oracles the tests check the library against.

Each oracle takes a computational route disjoint from the implementation it
verifies: adaptive quadrature instead of the closed coefficient formula, one
(d+1)-operand einsum of the factor tables instead of the two-operand
contraction of their Khatri-Rao halves,
characteristic-polynomial roots instead of QZ, exhaustive permutation search
instead of the assignment solver, explicit rank-one pseudoinverses, the
global least squares fit of the amplitudes (a dense design, or the normal
system on a core contracted from the grid) and one peel per node instead of
the leaf fits' residues and the level-at-a-time peels, a
depth-first pole tree, one line fit and one peel per node, instead of the
level-at-a-time build, a per-line pencil on a greedy refit instead of the
stacked pencil on the line fit's own support points, and the sparse method
with one line fit per axis and one pairing solve per diagonal instead of the
stacked fit and the stacked solve.  Three plain helpers of the tests live
here too: sort_complex, evaluate_barycentric (the direct evaluation of a
barycentric form) and with_close_pair (a pole engine that reports one pole
as two).
"""

import itertools

import numpy as np
import scipy.integrate
import scipy.linalg

from expanal.errors import (
    AxisOrderMismatch,
    CoverageMismatch,
    ExpanalError,
    IllConditioned,
    NoConvergence,
    TauViolation,
)
from expanal.linalg import RCOND, _rank_errors, gen_eig, svd
from expanal.model import ExponentialSum, FullGrid, SparseLines
from expanal.rational import DEFAULT_TOL, aaa_fit, pole_residue_from_samples
from expanal.recursive import PoleTree, TreeNode, peel_dimension
from expanal.sparse import (
    AxisRecovery,
    PairingCertificate,
    match_pairs,
    pairing_system,
    recover_axis,
)


def sort_complex(values):
    """Sort complex values by (real, imag) lexicographic order."""
    arr = np.asarray(values, dtype=complex).ravel()
    return arr[np.lexsort((arr.imag, arr.real))]


def evaluate_barycentric(form, z):
    """Evaluate a barycentric form; support points return their stored value."""
    zz = np.asarray(z, dtype=complex)
    scalar = zz.ndim == 0
    flat = np.atleast_1d(zz)
    diff = flat[:, None] - form.support[None, :]
    at_node = diff == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        cauchy = 1.0 / np.where(at_node, 1.0, diff)
        num = cauchy @ (form.weights * form.values)
        den = cauchy @ form.weights
        out = num / den
    hit_rows, hit_cols = np.nonzero(at_node)
    out[hit_rows] = form.values[hit_cols]
    return complex(out[0]) if scalar else out.reshape(zz.shape)


def with_close_pair(engine, inject=lambda: True):
    """The pole engine `engine` (rational._arrowhead_poles), except that each
    call for which inject() is true reports the first pole p of every line
    as the pair p -/+ gap / 2, gap 1e-10 times the line's largest pole
    modulus: closer than rational.POLE_SEPARATION_RTOL, which the line fit
    must refuse."""
    def engine_with_pair(z, w):
        poles, errors = engine(z, w)
        if inject():
            gap = 1e-10 * np.abs(poles).max(axis=1)
            poles = np.concatenate([poles, poles[:, :1] + gap[:, None] / 2], axis=1)
            poles[:, 0] -= gap / 2
        return poles, errors
    return engine_with_pair


def box_quadrature_coefficient(signal, k, P):
    """Fourier coefficient by adaptive quadrature over the full box (d <= 2)."""
    freq = [list(row) for row in signal.frequencies]
    coef = list(signal.coefficients)
    k = [int(x) for x in np.asarray(k).ravel()]
    w = -2j * np.pi / P

    if signal.d == 1:
        def fun(t):
            val = 0j
            for gamma, row in zip(coef, freq):
                val += gamma * np.exp(row[0] * t)
            return val * np.exp(w * k[0] * t)

        re = scipy.integrate.quad(lambda t: fun(t).real, 0, P,
                                  epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        im = scipy.integrate.quad(lambda t: fun(t).imag, 0, P,
                                  epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        return complex(re, im) / P

    if signal.d == 2:
        def fun(x, y):
            val = 0j
            for gamma, row in zip(coef, freq):
                val += gamma * np.exp(row[0] * x + row[1] * y)
            return val * np.exp(w * (k[0] * x + k[1] * y))

        re = scipy.integrate.dblquad(lambda y, x: fun(x, y).real, 0, P, 0, P,
                                     epsabs=1e-10, epsrel=1e-10)[0]
        im = scipy.integrate.dblquad(lambda y, x: fun(x, y).imag, 0, P, 0, P,
                                     epsabs=1e-10, epsrel=1e-10)[0]
        return complex(re, im) / P ** 2

    raise ValueError("full-box quadrature oracle supports d <= 2 only")


def factor_quadrature_coefficient(signal, k, P):
    """Fourier coefficient with each axis factor integrated numerically.

    Scales to any dimension; complements the full-box oracle, which also
    exercises the separability of the integral.
    """
    k = np.asarray(k).ravel()
    total = 0j
    for gamma, row in zip(signal.coefficients, signal.frequencies):
        product = complex(gamma)
        for axis in range(signal.d):
            rate = row[axis] - 2j * np.pi * k[axis] / P

            def fun(t, rate=rate):
                return np.exp(rate * t)

            re = scipy.integrate.quad(lambda t: fun(t).real, 0, P,
                                      epsabs=1e-12, epsrel=1e-12, limit=400)[0]
            im = scipy.integrate.quad(lambda t: fun(t).imag, 0, P,
                                      epsabs=1e-12, epsrel=1e-12, limit=400)[0]
            product *= complex(re, im) / P
        total += product
    return total


def einsum_full_grid(signal, P, N):
    """The full coefficient grid on [-N, N]^d by one plain einsum over the
    signal's d factor tables and its coefficients."""
    tables = signal._coefficient_terms(P, [np.arange(-N, N + 1)] * signal.d).tables
    axes = "abcdefghijklmnopqrstuvwxy"[:signal.d]
    spec = ",".join(a + "z" for a in axes) + ",z->" + axes
    return np.einsum(spec, *tables, signal.coefficients)


def dense_amplitude_coefficients(poles, grid, P):
    """Signal coefficients of the full-grid amplitude fit by dense least squares.

    Builds the whole (grid x M) design A[k, j] = prod_a 1/(k_a - poles[j, a])
    and solves it with numpy's SVD-based lstsq, then maps amplitudes to
    coefficients as the recursive method does.
    """
    poles = np.asarray(poles, dtype=complex)
    m, d = poles.shape
    n_half = (grid.shape[0] - 1) // 2
    k = np.arange(-n_half, n_half + 1, dtype=float)
    mesh = np.meshgrid(*([k] * d), indexing="ij")
    design = np.ones((grid.size, m), dtype=complex)
    for axis in range(d):
        design /= mesh[axis].reshape(-1, 1) - poles[None, :, axis]
    amplitudes = np.linalg.lstsq(design, np.ravel(grid), rcond=None)[0]
    frequencies = 2j * np.pi * poles / P
    return amplitudes * (2j * np.pi) ** d / np.prod(1.0 - np.exp(frequencies * P), axis=1)


def grid_contracting_leaves_to_sum(tree, source):
    """The global least squares fit of the amplitudes, on a core contracted
    from the grid.

    Each axis's Q_a^H, Q_a the reduced QR basis of the Cauchy matrix of that
    axis's distinct poles, is applied along its axis of the grid, the first
    product over the whole grid.  The design lies in the Kronecker product of
    the bases, so least squares on the core is least squares on the grid.  The
    core system is solved through its M x M normal system (the elementwise
    product of the per-axis Grams), refused when its eigenvalue ratio is at
    most RCOND, with one step of iterative refinement.
    """
    poles = tree.leaf_paths()
    k = np.arange(-source.N, source.N + 1, dtype=float)
    core, tables = source.grid(), []
    # each product contracts the leading axis and appends its core axis
    # last, so after d of them the core is in grid axis order (flattened)
    for column in poles.T:
        basis = np.linalg.qr(1.0 / (k[:, None] - np.unique(column)))[0]
        core = core.reshape(len(k), -1).T @ basis.conj()
        tables.append(basis.conj().T @ (1.0 / (k[:, None] - column)))
    core = core.ravel()
    design = _khatri_rao_design(tables)
    gram = np.prod([table.conj().T @ table for table in tables], axis=0)

    eigenvalues, eigenvectors = np.linalg.eigh(gram)
    if not eigenvalues[0] > RCOND * eigenvalues[-1]:
        raise IllConditioned(
            f"amplitude system is numerically rank deficient: Gram eigenvalue "
            f"ratio {eigenvalues[0] / eigenvalues[-1]:.3e} <= {RCOND:.0e}"
        )

    def solve(values):
        rhs = design.conj().T @ values
        return eigenvectors @ ((eigenvectors.conj().T @ rhs) / eigenvalues)

    amplitudes = solve(core)
    amplitudes = amplitudes + solve(core - design @ amplitudes)
    return ExponentialSum.from_poles(poles, amplitudes, source.P)


def _khatri_rao_design(tables):
    """The dense design of per-axis (n_a, M) tables: row k is the product of
    the tables' rows k_a, axis 0 slowest."""
    design = np.ones((1, tables[0].shape[1]), dtype=complex)
    for table in tables:
        design = (design[:, None, :] * table[None, :, :]).reshape(-1, table.shape[1])
    return design


def per_node_peel_leaves_to_sum(tree, source):
    """The amplitudes of a pole tree by one peel_dimension call per node,
    depth first: a node's slice splits on its children's poles, and a leaf's
    line (its parent's child slice) on the leaf poles gives their amplitudes."""

    def amplitudes(nodes, values):
        if values.ndim == 1:
            return peel_dimension([node.pole for node in nodes], values[:, None])[:, 0].tolist()
        children = peel_dimension([node.pole for node in nodes], values)
        return [a for node, child in zip(nodes, children)
                for a in amplitudes(node.children, child)]

    return ExponentialSum.from_poles(tree.leaf_paths(),
                                     np.array(amplitudes(tree.roots, source.grid())), source.P)


def characteristic_roots(a):
    """Eigenvalues as roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion (matrix products
    and traces only); the roots are then read off a companion matrix.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = np.zeros_like(a)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        work = a @ work + c * np.eye(n)
        c = -np.trace(a @ work) / k
        coeffs[k] = c
    return np.roots(coeffs)


def rank_one_pseudoinverse(scale, left, right):
    """Pseudoinverse of scale * outer(left, right.conj()) in closed form."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    ln = np.linalg.norm(left)
    rn = np.linalg.norm(right)
    c = scale * ln * rn
    return np.outer(right / rn, (left / ln).conj()) / c


def brute_force_pairing(c, coeffs_prev, poles_prev, poles_next, tau):
    """Exhaustive minimal-violation pairing (orders up to 6!).

    Violations follow the matching conditions directly: the two partial
    fraction coefficients must cancel, and the previous-axis coefficient must
    equal c1 + c2*b1/b2 - 2*tau*c1/b2 for the matched pole pair.
    """
    m = len(poles_prev)
    c1, c2 = c[:m], c[m:]
    c_scale = max(abs(x) for x in c)
    a_scale = max(abs(x) for x in coeffs_prev)
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(m)):
        total = 0.0
        for j, k in enumerate(perm):
            total += abs(c1[j] + c2[k]) / c_scale
            predicted = (c1[j] + c2[k] * poles_prev[j] / poles_next[k]
                         - 2 * tau * c1[j] / poles_next[k])
            total += abs(coeffs_prev[j] - predicted) / a_scale
        if total < best:
            best, best_perm = total, perm
    return np.array(best_perm, dtype=int)


def match_complex_sets(first, second):
    """Greedy min-distance matching; returns max matched distance."""
    first = np.asarray(first, dtype=complex).ravel()
    second = np.asarray(second, dtype=complex).ravel()
    assert len(first) == len(second)
    dist = np.abs(first[:, None] - second[None, :])
    worst = 0.0
    work = dist.copy()
    for _ in range(len(first)):
        i, j = np.unravel_index(np.argmin(work), work.shape)
        worst = max(worst, dist[i, j])
        work[i, :] = np.inf
        work[:, j] = np.inf
    return worst


def qz_arrowhead_poles(form):
    """Finite eigenvalues of the (n+1) x (n+1) arrowhead pencil, by QZ.

    The pole extraction of the AAA paper: two eigenvalues are infinite, and
    |beta| <= 1e-12 * max|beta| counts as infinite.
    """
    n = len(form)
    a = np.zeros((n + 1, n + 1), dtype=complex)
    a[0, 1:] = form.weights
    a[1:, 0] = 1.0
    a[np.arange(1, n + 1), np.arange(1, n + 1)] = form.support
    b = np.eye(n + 1, dtype=complex)
    b[0, 0] = 0.0
    alpha, beta = scipy.linalg.eig(a, b, right=False, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-12 * np.abs(beta).max()
    return alpha[finite] / beta[finite]


def depth_first_pole_tree(source, tol=DEFAULT_TOL, method="eig", trace_sink=None,
                          fit=None):
    """The pole tree built depth first: one line fit and one peel per node.

    Each node fits its slice's central axis line with pole_residue_from_samples
    (or fit, with the same signature), peels the slice with peel_dimension
    and recurses into the per-pole child slices.  The first error met is
    raised with its pole path, and trace_sink receives the traces in
    depth-first pre-order.
    """
    if not isinstance(source.coverage, FullGrid):
        raise CoverageMismatch("recursive recovery needs full-grid coverage")
    fit = pole_residue_from_samples if fit is None else fit
    n_half = source.N

    def grow(values, path):
        line = values[(slice(None),) + (n_half,) * (values.ndim - 1)]
        try:
            pr, trace = fit(line, tol=tol, max_order=n_half, method=method)
        except ExpanalError as exc:
            raise type(exc)(f"at pole path {path}: {exc}") from exc
        poles = pr.poles
        if trace_sink is not None:
            trace_sink.append(trace)
        if values.ndim == 1:
            return [TreeNode(pole=complex(p), children=()) for p in poles]
        try:
            slices = peel_dimension(poles, values)
        except ExpanalError as exc:
            raise type(exc)(f"at pole path {path}: {exc}") from exc
        return [TreeNode(pole=p, children=tuple(grow(child, path + (p,))))
                for p, child in zip(map(complex, poles), slices)]

    roots = grow(source.grid(), ())
    return PoleTree(roots=tuple(roots), dimension=source.d).validate()


def refit_pencil_poles(points, values, order):
    """The pencil poles of one line by a greedy refit: an order-step fit at
    tol = tiny picks the support points, the plain divided-difference matrix
    must pass the rank rule (svd, then _rank_errors), and gen_eig solves the
    projected pencil.  The pencil of a line fit with m support points has
    order m - 1.
    """
    pts = np.asarray(points, dtype=complex)
    vals = np.asarray(values, dtype=complex)
    _, trace = aaa_fit(pts, vals, tol=np.finfo(float).tiny, max_order=order)
    chosen = list(trace.chosen_support_order)
    if len(chosen) < order:
        raise IllConditioned(f"greedy fit is exact with {len(chosen)} < {order} support points")
    rest = np.setdiff1d(np.arange(len(pts)), chosen)
    sup, supv = pts[chosen], vals[chosen]
    gam, gamv = pts[rest], vals[rest]
    denom = gam[:, None] - sup[None, :]
    plain = (gamv[:, None] - supv[None, :]) / denom
    shifted = (gam[:, None] * gamv[:, None] - sup[None, :] * supv[None, :]) / denom
    u, s, v = svd(plain)
    errors = _rank_errors(s[None], "divided-difference matrix")
    if errors:
        raise errors[0]
    return sort_complex(gen_eig((u.conj().T @ shifted @ v) / s[:, None]))


def per_axis_sparse_recovery(source, tol=DEFAULT_TOL, method="eig"):
    """The sparse method one line at a time: one pole_residue_from_samples
    call per axis (axis 0 fixes the order M, the others are capped at M + 1
    support points) and one pairing_system call per diagonal, on the
    previous axis's poles in paired order.  Returns what recover_sparse
    returns, and raises its errors with its messages.
    """
    if not isinstance(source.coverage, SparseLines):
        raise CoverageMismatch("line-based recovery needs sparse-lines coverage")
    tau = source.coverage.tau
    first = recover_axis(source.axis_line(0), 0, tol=tol, method=method)
    order = first.order
    axes = [first]
    for axis in range(1, source.d):
        try:
            pr, trace = pole_residue_from_samples(
                source.axis_line(axis), tol=tol, max_order=order + 1, method=method)
        except NoConvergence as exc:
            raise AxisOrderMismatch(
                f"axis {axis}: unconverged fit ({exc}) where axis 0 fixed order "
                f"{order}; axiswise-distinct assumption violated") from exc
        if len(pr.poles) != order:
            raise AxisOrderMismatch(
                f"axis {axis} recovered order {len(pr.poles)} but axis 0 fixed order "
                f"{order}; axiswise-distinct assumption violated")
        axes.append(AxisRecovery(axis, pr.poles, pr.residues, trace))

    aligned, prev_coeffs = [first.poles], first.coefficients
    perms, stage_cs, stage_scores = [], [], []
    for axis in range(1, source.d):
        c = pairing_system(aligned[-1], axes[axis].poles, source.diagonal_line(axis), tau)
        perm, scores = match_pairs(c, prev_coeffs, aligned[-1], axes[axis].poles, tau)
        aligned.append(axes[axis].poles[perm])
        prev_coeffs = axes[axis].coefficients[perm]
        perms.append(tuple(int(p) for p in perm))
        stage_cs.append(tuple(complex(z) for z in c))
        stage_scores.append(tuple(float(s) for s in scores))

    poles = np.column_stack(aligned)
    worst = np.abs(poles.real).max()
    if worst >= tau:
        raise TauViolation(
            f"recovered pole real part {worst:.6g} >= tau={tau}; the shift "
            f"parameter does not cover the data")
    amplitudes = first.coefficients * np.prod(-poles[:, 1:], axis=1)
    certificate = PairingCertificate(tuple(perms), tuple(stage_cs), tuple(stage_scores),
                                     tuple(a.trace for a in axes))
    return ExponentialSum.from_poles(poles, amplitudes, source.P), certificate
