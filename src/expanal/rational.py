"""Univariate rational recovery in barycentric form.

The pipeline fits sampled values with a greedy barycentric interpolant,
extracts poles from the deflated arrowhead matrix of the fit (or from the
divided-difference matrix pencil), solves for residues (linalg.cauchy_lstsq)
and maps pole/residue pairs back to exponential-sum parameters.

pole_residue_from_samples is the one line fit of both recovery methods: it
owns the sample geometry k = -N..N and the whole acceptance policy, so no
caller repeats any of it: the greedy fit's verdict settles a line first, so
only converged lines reach pole extraction, and one acceptance step
(_accept) refuses, among others, a line with two poles closer than
POLE_SEPARATION_RTOL, so neither method merges poles.  It is the fit's
validation boundary: it checks its arguments and samples once, then runs
private kernels on trusted arrays.  The kernels fit a stack of lines in one
call (a level of the pole tree, the axes of the line-based method) and hand
back, with each line's poles and residues, the pseudo-inverse of its
residue solve, with which the pole tree splits the slice the line was taken
from.  The public fit is their one-line case.  The public steps check their
own arguments and call the same kernels.  The line fit caps max_order at N,
its default; its pencil projects onto the first m - 1 of its m support points.
The greedy fit scales each line by an exact power of two, so that no kernel
overflows; the residue solve runs on the line as given, and the filter and
the acceptance step read its residues scaled the same way.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadParameters,
    ConvergenceFailure,
    DegenerateFrequency,
    ExpanalError,
    IllConditioned,
    NoConvergence,
    ShapeMismatch,
)
from .model import ExponentialSum
from .validation import _is_real, _positive_int, as_complex_vector, check_distinct

DEFAULT_TOL = 1e-12
SPURIOUS_RESIDUE_RTOL = 1e-12

# post-fit relative misfit above this at isolated indices flags coefficients
# without rational structure there (a frequency sitting on a sampled index)
ISOLATED_MISFIT_TOL = 1e-6

# a fitted pole this close to a sample point is that same signature: the fit
# parked a pole on the index whose coefficient broke the rational structure
SAMPLE_COLLISION_TOL = 1e-8

# two fitted poles of one line closer than this times its largest pole
# modulus resolve no distinct terms: the fit is refused, for both methods
POLE_SEPARATION_RTOL = 1e-8

# a barycentric weight sum this small against the weights' 1-norm means the
# denominator lost a degree: one pole sits at infinity
INF_EIG_CUTOFF = 1e-12


@dataclass(frozen=True)
class BarycentricForm:
    """Rational interpolant p/q given by support points, values and weights."""

    support: np.ndarray
    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        support = as_complex_vector(self.support, "support")
        values = as_complex_vector(self.values, "values")
        weights = as_complex_vector(self.weights, "weights")
        if not len(support) == len(values) == len(weights):
            raise ShapeMismatch("support, values and weights must have equal length")
        check_distinct(support, "support points")
        norm = np.linalg.norm(weights)
        if abs(norm - 1.0) > 1e-12:
            raise BadParameters(f"weights must have unit 2-norm, got {norm}")
        for name, arr in (("support", support), ("values", values), ("weights", weights)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self):
        return len(self.support)


@dataclass(frozen=True)
class AaaTrace:
    """Diagnostics of one greedy fit."""

    iterations: int
    max_residual_history: tuple
    chosen_support_order: tuple
    converged: bool

    def __post_init__(self):
        if self.iterations != len(self.max_residual_history):
            raise BadParameters("history length must equal the iteration count")


@dataclass(frozen=True)
class PoleResidue:
    """Pole/residue representation sum_j residues[j] / (z - poles[j])."""

    poles: np.ndarray
    residues: np.ndarray

    def __post_init__(self):
        poles = check_distinct(np.asarray(self.poles, complex).ravel(), "poles")
        residues = np.asarray(self.residues, complex).ravel()
        if len(poles) != len(residues):
            raise ShapeMismatch("poles and residues must have equal length")
        if len(poles) and np.any(residues == 0):
            raise BadParameters("residues must be nonzero")
        for name, arr in (("poles", poles), ("residues", residues)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return np.sum(self.residues / (z[..., None] - self.poles), axis=-1)


def aaa_fit(points, values, tol=DEFAULT_TOL, max_order=None):
    """Greedy barycentric fit of sampled values.

    Args:
        points: distinct sample abscissae (at least two).
        values: sample values, same length as points.
        tol: finite positive relative residual tolerance; iteration stops
            once the largest misfit over the unused points drops below
            tol * max|values|.
        max_order: positive integer cap on the number of support points;
            defaults to half the sample count (at most 100).

    Returns:
        (BarycentricForm, AaaTrace).  The trace's converged flag is False when
        the cap was reached with the residual still above tolerance; callers
        that need a hard failure raise NoConvergence on that flag.

    Each step solves for the weight vector as the right singular vector of the
    divided-difference matrix built from the unused points, then moves the
    point of largest misfit into the support (smallest index wins ties).
    """
    pts, vals = _sample_inputs(points, values)
    max_order = _fit_args(len(pts), tol, max_order)
    groups, traces, _, _ = _greedy_fit(pts, vals[None], tol, max_order)
    _, chosen, weights, _ = groups[0]
    return BarycentricForm(pts[chosen[0]], vals[chosen[0]], weights[0]), traces[0]


def _sample_inputs(points, values):
    """The checked samples of aaa_fit and loewner_pencil_poles.  Each point
    difference must be finite and above 8 / (largest float): then every divided
    difference of the scaled samples is finite, and no inf or NaN stalls LAPACK."""
    pts = as_complex_vector(points, "points")
    vals = as_complex_vector(values, "values")
    if pts.shape != vals.shape:
        raise ShapeMismatch("points and values must have equal length")
    with np.errstate(over="ignore"):  # the identity fills the diagonal's zero gaps
        gaps = np.abs(check_distinct(pts, "points")[:, None] - pts) + np.eye(len(pts))
    if not ((gaps > 8.0 / np.finfo(float).max) & (gaps < np.inf)).all():
        raise BadParameters("points must differ by a finite amount above 8 / (largest float)")
    return pts, vals


def _fit_args(n, tol, max_order, cap=np.inf):
    """Check a greedy fit's arguments on n samples; returns max_order."""
    if n < 2:
        raise BadParameters("need at least two sample points")
    if not (_is_real(tol) and tol > 0):
        raise BadParameters(f"tol must be a finite positive real number, got {tol!r}")
    max_order = min(n // 2, 100) if max_order is None else _positive_int(max_order, "max_order")
    if max_order > cap:
        raise BadParameters(f"max_order must be at most N = {cap}, got {max_order}")
    return max_order


def _greedy_fit(pts, vals, tol, max_order):
    """aaa_fit on a trusted (r, n) stack of finite lines sharing the points pts,
    with checked tol and max_order (_fit_args), run on line i times 2^-e[i]
    (linalg._pow2_scale).  Returns (groups, traces, scaled lines, e): a group
    (rows, chosen, weights, converged) holds the lines that stopped with the same
    number j of support points, with their support indices and weights as
    (g, j) arrays; traces[i] is the AaaTrace of line i, its history mapped
    back by 2^e[i].  Every line still running at step j has j support points
    and n - j free ones, so their Loewner matrices stack to (a, n - j, j) and
    one SVD serves them all; each line stops on its own rule.  With one
    support point the fit is the constant at that point whatever its weight,
    so the first step needs no SVD.
    """
    vals, e = linalg._pow2_scale(vals)
    n = vals.shape[1]
    size = np.abs(vals)
    limit = tol * size.max(axis=1)
    rows = at = np.arange(len(vals))
    # support indices and values of the running lines, one column per step
    support = np.empty(vals.shape, dtype=np.intp)
    supv = np.empty(vals.shape, dtype=complex)
    support[:, 0] = size.argmax(axis=1)
    supv[:, 0] = vals[at, support[:, 0]]
    # the free points of each running line, ascending, and their values
    keep = np.arange(n) != support[:, :1]
    rest = np.nonzero(keep)[1].reshape(len(vals), n - 1)
    restv = vals[keep].reshape(len(vals), n - 1)
    # row i of history: the largest misfit of running line rows[i] per step
    history = np.empty(vals.shape)
    groups, traces = [], [None] * len(vals)
    j = 1
    # a zero or overflowed denominator (a pole on a free point) counts as inf misfit
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while len(rows):
            chosen, sup = support[:, :j], supv[:, :j]
            if j == 1:
                weights = np.ones((len(rows), 1), dtype=complex)
                resid = np.abs(restv - sup)
            else:
                cauchy = 1.0 / (pts[rest][..., None] - pts[chosen][:, None, :])
                loewner = (restv[..., None] - sup[:, None, :]) * cauchy
                weights = linalg._lapack("SVD", np.linalg.svd, loewner,
                                         full_matrices=False)[2][:, -1].conj()
                resid = np.abs(restv - (cauchy @ (weights * sup)[..., None])[..., 0]
                               / (cauchy @ weights[..., None])[..., 0])
                resid[np.isnan(resid)] = np.inf
            top = history[:, j - 1] = resid.max(axis=1)
            converged = top <= limit
            capped = j >= max_order or n - j <= 1
            if capped or converged.any():
                stop = converged | capped
                last = stop.all()
                done = slice(None) if last else stop
                groups.append((rows[done], chosen[done], weights[done], converged[done]))
                for i, indices, ok, steps in zip(
                        rows[done].tolist(), chosen[done].tolist(), converged[done].tolist(),
                        np.ldexp(history[done, :j], e[rows[done], None]).tolist()):
                    traces[i] = AaaTrace(j, tuple(steps), tuple(indices), ok)
                if last:
                    break
                go = ~stop
                rows, limit, support, supv, rest, restv, resid, history = (
                    x[go] for x in (rows, limit, support, supv, rest, restv, resid, history))
                at = np.arange(len(rows))
            best = resid.argmax(axis=1)
            support[:, j] = rest[at, best]
            supv[:, j] = restv[at, best]
            keep = rest != support[:, j:j + 1]
            rest = rest[keep].reshape(len(rows), n - j - 1)
            restv = restv[keep].reshape(len(rows), n - j - 1)
            j += 1
    return groups, traces, vals, e


def poles_of(form):
    """Poles of a barycentric form: the zeros of q(z) = sum_j w_j / (z - z_j).

    With sigma = sum(w) and D = diag(support), A = (I - w e^T / sigma) D has
    e^T A = 0, and its other n-1 eigenvalues are exactly the zeros of q: the
    finite eigenvalues of the arrowhead pencil of the AAA method, without its
    two infinite ones.  A Householder basis Q2 of the complement of e deflates
    the zero eigenvalue, so the poles are the eigenvalues of the (n-1) x (n-1)
    matrix Q2^T A Q2, a rank-one update of Q2^T D Q2.  Sorted by (real, imag).

    |sigma| <= INF_EIG_CUTOFF * ||w||_1 puts a pole at infinity: the
    denominator lost a degree, so the form does not decay like a sum of simple
    poles.  That raises DegenerateFrequency rather than returning the n-2
    finite poles.
    """
    if len(form) < 2:
        raise BadParameters("need at least two support points to have poles")
    poles, errors = _arrowhead_poles(form.support[None], form.weights[None])
    if errors:
        raise errors[0]
    return poles[0]


@functools.lru_cache(maxsize=64)
def _sample_points(n):
    """The n = 2N+1 sample points k = -N..N as a read-only complex array."""
    points = np.arange(-(n // 2), n // 2 + 1, dtype=float).astype(complex)
    points.setflags(write=False)
    return points


@functools.lru_cache(maxsize=64)
def _deflation_basis(n):
    """Q2 of poles_of for n support points, read-only.

    I - 2 v v^T / (v^T v) maps e/sqrt(n) to -e_1, so its other columns are an
    orthonormal basis of the complement of e."""
    v = np.full(n, 1.0 / np.sqrt(n))
    v[0] += 1.0
    q2 = (np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v))[:, 1:]
    q2.setflags(write=False)
    return q2


def _arrowhead_poles(z, w):
    """poles_of on a trusted stack of supports z and weights w, (g, m) each.

    Returns the (g, m - 1) poles, each row sorted by (real, imag), and
    {row: DegenerateFrequency} for the rows with a pole at infinity, whose
    poles are meaningless.  One eigvals call serves the whole stack.
    """
    sigma = w.sum(axis=1)
    norm = np.abs(w).sum(axis=1)
    infinite = np.abs(sigma) <= INF_EIG_CUTOFF * norm
    errors = {}
    if infinite.any():
        errors = {
            i: DegenerateFrequency(
                f"barycentric weights sum to {abs(sigma[i]) / norm[i]:.3e} of "
                f"their 1-norm: the fit has a pole at infinity, which no sum of "
                f"simple poles has"
            )
            for i in np.flatnonzero(infinite).tolist()
        }
        sigma = np.where(infinite, 1.0, sigma)
    q2 = _deflation_basis(z.shape[1])
    outer = (q2.T @ w[..., None]) * (q2.T @ z[..., None]).transpose(0, 2, 1)
    a = (q2.T * z[:, None, :]) @ q2 - outer / sigma[:, None, None]
    return _sorted_eigvals(a), errors


def _sorted_eigvals(a):
    """The eigenvalues of a (g, p, p) stack, each row sorted by (real, imag)."""
    if a.shape[1] == 1:
        # a 1 x 1 matrix is its own eigenvalue, which LAPACK returns as is
        return a[:, :, 0]
    poles = linalg._lapack("pencil eigenvalue iteration", np.linalg.eigvals, a)
    # complex sorts by (real, imag), stably
    return np.sort(poles, axis=1, kind="stable")


def loewner_pencil_poles(points, values, order):
    """Poles of an order-`order` rational function from the matrix pencil.

    The support partition is chosen by an order-step greedy fit; the pencil of
    plain and shifted divided-difference matrices is projected to size
    order x order through the SVD of the plain matrix, which must pass the
    rank rule (linalg._rank_errors).  A greedy fit that is exact with fewer than
    `order` support points raises IllConditioned too.
    """
    pts, vals = _sample_inputs(points, values)
    order = _positive_int(order, "order")
    if len(pts) < 2 * order:
        raise BadParameters(f"need at least {2 * order} samples for order {order}")
    groups, _, scaled, _ = _greedy_fit(pts, vals[None], np.finfo(float).tiny, order)
    chosen = groups[0][1]
    if chosen.shape[1] < order:
        raise IllConditioned(
            f"greedy fit is exact with {chosen.shape[1]} < {order} support points")
    poles, errors = _pencil_poles(pts, scaled, chosen)
    if errors:
        raise errors[0]
    return poles[0]


def _pencil_poles(points, vals, chosen):
    """loewner_pencil_poles on a trusted stack: lines vals (g, n) at points,
    projected onto their (g, order) support indices chosen.  One SVD and one
    eigvals call serve the stack.  Returns the (g, order) poles, each row
    sorted by (real, imag), and {row: ExpanalError} for the lines refused
    (rank rule of linalg._rank_errors, or a non-finite pencil)."""
    order = chosen.shape[1]
    taken = (np.arange(vals.shape[1]) == chosen[..., None]).any(axis=1)
    rest = np.argsort(taken, axis=1, kind="stable")[:, :-order]
    sup, supv = points[chosen], np.take_along_axis(vals, chosen, 1)
    gam, gamv = points[rest], np.take_along_axis(vals, rest, 1)
    denom = gam[..., None] - sup[:, None, :]
    with np.errstate(invalid="ignore", over="ignore"):  # overflows refuse their line
        plain = (gamv[..., None] - supv[:, None, :]) / denom
        shifted = ((gam * gamv)[..., None] - (sup * supv)[:, None, :]) / denom
        u, s, vh = linalg._lapack("SVD", np.linalg.svd, plain, full_matrices=False)
        errors = linalg._rank_errors(s, "divided-difference matrix")
        # every kept s > 0, so each pencil (reduced, diag(s)) is a row scaling by 1/s
        s[list(errors)] = 1.0
        pencil = (u.conj().transpose(0, 2, 1) @ shifted
                  @ vh.conj().transpose(0, 2, 1)) / s[..., None]
    for i in np.flatnonzero(~np.isfinite(pencil).all(axis=(1, 2))).tolist():
        errors.setdefault(i, BadParameters("divided-difference pencil has non-finite entries"))
    pencil[list(errors)] = 0.0  # no NaN or inf may reach the stacked eigvals
    return _sorted_eigvals(pencil), errors


def residues_ls(poles, points, values):
    """Residues minimizing the 2-norm misfit of sum_j a_j/(k - b_j) = values."""
    b, pts, vals = _cauchy_inputs(poles, points, values)
    residues, errors, _ = linalg.cauchy_lstsq(b[None], pts, vals[None], "residue system")
    if errors:
        raise errors[0]
    return residues[0]


def filter_spurious(poles, points, values):
    """Drop poles whose residue is below SPURIOUS_RESIDUE_RTOL of the largest
    (Froissart doublets) and refit the rest."""
    b, pts, vals = _cauchy_inputs(poles, points, values)
    residues, _, partial = _filter_spurious(b[None], pts, vals[None], np.zeros(1, int))
    result = partial.get(0, (b, residues[0]))
    if isinstance(result, ExpanalError):
        raise result
    return PoleResidue(*result[:2])


def _cauchy_inputs(poles, points, values):
    """The checked arguments of residues_ls and filter_spurious."""
    b = check_distinct(np.asarray(poles, complex).ravel(), "poles")
    if b.size == 0:
        raise BadParameters("need at least one pole")
    pts = as_complex_vector(points, "points")
    vals = as_complex_vector(values, "values")
    if pts.shape != vals.shape:
        raise ShapeMismatch("points and values must have equal length")
    return b, pts, vals


def _filter_spurious(b, pts, lines, e):
    """filter_spurious on a trusted (g, n) stack of lines with equal pole
    counts, on their residues scaled by 2^-e.

    Returns (residues, pinv, partial): residues (g, p) is the first solve,
    with the (g, p, n) pseudo-inverses pinv it applied, and partial maps each
    line that does not keep every pole to its (kept poles in input order,
    residues and pseudo-inverse solved again on them) or to the error it
    fails with (a refused residue system, or DegenerateFrequency when all its
    residues are zero; otherwise it keeps its largest, as the rtol is below 1).
    """
    residues, partial, pinv = linalg.cauchy_lstsq(b, pts, lines, "residue system")
    size = np.abs(linalg._ldexp(residues, -e))
    top = size.max(axis=1)
    keep = size >= SPURIOUS_RESIDUE_RTOL * top[:, None]
    for i in np.flatnonzero(~keep.all(axis=1) | (top == 0.0)).tolist():
        if i in partial:
            continue
        if top[i] == 0.0:
            partial[i] = DegenerateFrequency(
                "samples carry no rational structure of positive order")
        else:
            kept = b[i, keep[i]]
            refit, errors, refit_pinv = linalg.cauchy_lstsq(kept[None], pts, lines[i, None],
                                                            "residue system")
            partial[i] = errors[0] if errors else (kept, refit[0], refit_pinv[0])
    return residues, pinv, partial


def check_fit_residual(pole_residue, points, values):
    """Raise when the fitted pole/residue model misses some samples by more
    than ISOLATED_MISFIT_TOL of max|values|.

    A small number of isolated misfits while the rest of the samples agree is
    the signature of a frequency of the form 2*pi*i*k/P (constant coefficient
    branch), which rational recovery cannot represent.  These are the
    acceptance rules of the line fit (_accept) on one line, so two poles
    within POLE_SEPARATION_RTOL of each other raise IllConditioned first; the
    line fit's greedy verdict (NoConvergence) is not among them.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    if np.abs(vals).max() == 0.0:
        return
    errors = _accept(pole_residue.poles[None], pole_residue.residues[None],
                     np.asarray(points, dtype=complex).ravel(), vals[None], np.zeros(1, int))
    if errors:
        raise errors[0]


def _collisions(points, poles):
    """{row: DegenerateFrequency} for the lines of a (g, p) pole stack with a
    pole within SAMPLE_COLLISION_TOL of a sample point."""
    gaps = np.abs(points - poles[..., None])
    near = gaps.min(axis=2) <= SAMPLE_COLLISION_TOL
    errors = {}
    if not near.any():
        return errors
    for i in np.flatnonzero(near.any(axis=1)).tolist():
        nearest = points[gaps[i, near[i]].argmin(axis=1)]
        errors[i] = DegenerateFrequency(
            f"fitted pole sits on sample point(s) "
            f"{np.round(nearest.real).astype(int).tolist()}; the coefficients "
            f"there have no rational structure"
        )
    return errors


def _accept(poles, residues, points, vals, e):
    """The checks after the spurious filter on a stack of lines with equal
    pole counts, on the lines vals and residues scaled by 2^-e, in order: the
    separation rule (no two poles within POLE_SEPARATION_RTOL times the
    largest modulus, IllConditioned), nonzero residues (PoleResidue), and the
    misfit rule (check_fit_residual).  Returns {row: first error}.

    A line's samples are never all zero here: such a line stops on its first
    support point and fails as constant."""
    residues = linalg._ldexp(residues, -e)
    model = (residues[:, None, :] / (points[:, None] - poles[:, None, :])).sum(axis=-1)
    resid = np.abs(model - vals) / np.abs(vals).max(axis=1)[:, None]
    bad = resid > ISOLATED_MISFIT_TOL
    scale = np.abs(poles).max(axis=1)
    gaps = np.abs(poles[:, :, None] - poles[:, None, :])
    near = gaps <= POLE_SEPARATION_RTOL * scale[:, None, None]
    # only the zero diagonal lies within the threshold when no pair does
    close = near.sum(axis=(1, 2)) > poles.shape[1]
    zero = residues == 0
    errors = {}
    if not (bad.any() or close.any() or zero.any()):
        return errors
    off = ~np.eye(poles.shape[1], dtype=bool)
    for i, (count, pair, nil) in enumerate(zip(
            bad.sum(axis=1).tolist(), close.tolist(), zero.any(axis=1).tolist())):
        if pair:
            errors[i] = IllConditioned(
                f"two fitted poles lie {gaps[i][off].min() / scale[i]:.3e} apart relative to "
                f"the largest, within POLE_SEPARATION_RTOL = {POLE_SEPARATION_RTOL:.0e}")
        elif nil:
            errors[i] = BadParameters("residues must be nonzero")
        elif count and count / len(points) <= 0.1:
            worst = int(np.argmax(resid[i]))
            errors[i] = DegenerateFrequency(
                f"fit converged except at {count} isolated sample(s); worst "
                f"relative misfit {resid[i, worst]:.3e} at point index {worst}")
        elif count:
            errors[i] = NoConvergence(f"fitted model misses {count} of {len(points)} samples")
    return errors


def _fit_lines(lines, tol, max_order, method):
    """The line fit on a trusted (r, 2N+1) stack of lines, samples at k = -N..N.

    Returns one outcome per line: (poles sorted by (real, imag), residues,
    AaaTrace, pseudo-inverse), or the ExpanalError that
    pole_residue_from_samples raises on that line alone.  The (len(poles),
    2N+1) pseudo-inverse is the one the residue solve applied to the line, so
    that a caller can split a slice whose central line it is, one child per
    pole.  A bad method, tol or max_order (an integer in 1..N, None for N)
    raises before any work, and so does a stack with a non-finite entry, which
    only the public fit can pass.  Each step runs as one stacked call per
    group of lines of equal size, so the number of numpy calls grows with the
    fit steps and the groups, not with the lines.  A LAPACK failure fails its
    whole stacked call; the stack is then refitted line by line, which pins
    the failure on its line.
    """
    if method not in ("eig", "pencil"):
        raise BadParameters(f"unknown pole method {method!r}")
    cap = lines.shape[1] // 2
    max_order = _fit_args(lines.shape[1], tol, cap if max_order is None else max_order, cap=cap)
    if not np.isfinite(lines).all():
        raise BadParameters("values contains non-finite entries")
    try:
        return _fit_stack(lines, tol, max_order, method)
    except ConvergenceFailure as exc:
        if len(lines) == 1:
            return [exc]
        return [_fit_lines(one[None], tol, max_order, method)[0] for one in lines]


def _fit_stack(lines, tol, max_order, method):
    """_fit_lines without the refit on a LAPACK failure.  The greedy verdict
    settles the unconverged and the constant lines before any pole is read."""
    points = _sample_points(lines.shape[1])
    out = [None] * len(lines)
    groups, traces, vals, e = _greedy_fit(points, lines, tol, max_order)
    for rows, chosen, weights, converged in groups:
        m = chosen.shape[1]
        settled = ~converged | (m < 2)
        for i, ok in zip(rows[settled].tolist(), converged[settled].tolist()):
            out[i] = (DegenerateFrequency("samples are constant; no rational structure of "
                                          "positive order") if ok else
                      NoConvergence(f"greedy fit did not reach tolerance within {m} steps"))
        if settled.all():
            continue
        if settled.any():
            rows, chosen, weights = rows[~settled], chosen[~settled], weights[~settled]
        # a group of every line is solved in place, not copied
        group = lines if len(rows) == len(lines) else lines[rows]
        fits = _fit_group(points, group, vals[rows], e[rows], chosen, weights, method)
        for i, fit in zip(rows.tolist(), fits):
            if isinstance(fit, ExpanalError):
                out[i] = fit
            else:
                poles, residues, pinv = fit
                out[i] = (poles, residues, traces[i], pinv)
    return out


def _drop(out, alive, settled, *arrays):
    """Record the outcomes {position: outcome} of settled in out, at the lines
    alive names, and return alive and arrays without those positions."""
    keep = np.ones(len(alive), dtype=bool)
    for pos, outcome in settled.items():
        out[alive[pos]] = outcome
        keep[pos] = False
    return [alive[keep]] + [array[keep] for array in arrays]


def _fit_group(points, lines, vals, e, chosen, weights, method):
    """The policy after the greedy fit, for converged lines that have the
    same number m >= 2 of support points, given as they are and as vals,
    scaled by 2^-e: per line (poles, residues, pseudo-inverse of the residue
    solve) or its error."""
    out, alive = [None] * len(chosen), np.arange(len(chosen))
    if method == "eig":
        poles, errors = _arrowhead_poles(points[chosen], weights)
    else:
        poles, errors = _pencil_poles(points, vals, chosen[:, :-1])
    # a line refused by its engine keeps that error, whatever its poles
    errors = {**_collisions(points, poles), **errors}
    if errors:
        alive, poles, lines, vals, e = _drop(out, alive, errors, poles, lines, vals, e)
    # both engines sort their poles and the filter keeps their order
    residues, pinv, partial = _filter_spurious(poles, points, lines, e)
    if partial:
        for pos, fit in partial.items():
            if not isinstance(fit, ExpanalError):
                kept, refit, _ = fit
                partial[pos] = _accept(kept[None], refit[None], points, vals[pos, None],
                                       e[pos, None]).get(0, fit)
        alive, poles, residues, pinv, vals, e = _drop(
            out, alive, partial, poles, residues, pinv, vals, e)
    errors = _accept(poles, residues, points, vals, e)
    for pos, line in enumerate(alive.tolist()):
        out[line] = errors.get(pos, (poles[pos], residues[pos], pinv[pos]))
    return out


def pole_residue_from_samples(values, tol=DEFAULT_TOL, max_order=None, method="eig"):
    """The univariate line fit: samples on k = -N..N to a filtered PoleResidue.

    values is a 1-D array of an odd number 2N+1 of finite samples at
    k = -N..N; another shape or an even count raises ShapeMismatch.  Poles
    come from the arrowhead eigenproblem of the greedy fit (method="eig") or
    from the pencil on its first m - 1 support points (method="pencil").  All
    arguments are checked first (max_order <= N, None for N), then that the
    samples are finite (BadParameters); the policy then runs in this order:
    NoConvergence when the greedy fit missed its tolerance within its m steps,
    a constant line (DegenerateFrequency) when it converged on one support
    point, pole extraction, the sample-collision check (DegenerateFrequency),
    the residue solve (BadParameters beyond the float range), the spurious
    filter, the separation rule (IllConditioned for two poles within
    POLE_SEPARATION_RTOL times the largest modulus), and the misfit rule
    (check_fit_residual).
    This is the one-line case of the stacked fit that
    build_pole_tree runs on the central lines of a tree level.

    Returns (PoleResidue with poles sorted by (real, imag), AaaTrace).
    """
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1:
        raise ShapeMismatch(f"line must be 1-D, got ndim={vals.ndim}")
    if len(vals) % 2 == 0:
        raise ShapeMismatch(
            f"line must hold an odd number of samples, k = -N..N; got {len(vals)}"
        )
    fit = _fit_lines(vals[None], tol, max_order, method)[0]
    if isinstance(fit, ExpanalError):
        raise fit
    poles, residues, trace, _ = fit
    return PoleResidue(poles, residues), trace


def recover_univariate(source, tol=DEFAULT_TOL, max_order=None, method="eig"):
    """Recover a univariate exponential sum from a d=1 coefficient source.

    Runs the line fit on k = -N..N and maps its pole/residue pairs to
    frequencies and coefficients.
    """
    if source.d != 1:
        raise ShapeMismatch(f"univariate recovery needs d=1, got d={source.d}")
    pr, _ = pole_residue_from_samples(
        source.axis_line(0), tol=tol, max_order=max_order, method=method
    )
    return ExponentialSum.from_poles(pr.poles[:, None], pr.residues, source.P)
