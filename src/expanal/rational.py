"""Univariate rational recovery in barycentric form.

The pipeline fits sampled values with a greedy barycentric interpolant,
extracts poles from the deflated arrowhead matrix of the fit (or from the
divided-difference matrix pencil), solves for residues by least squares, and
maps pole/residue pairs back to exponential-sum parameters.

pole_residue_from_samples is the one line fit of both recovery methods: it
owns the sample geometry k = -N..N and the whole acceptance policy, so no
caller repeats any of it.  It is the fit's validation boundary: it checks its
arguments once, then runs private kernels on trusted arrays.  The public steps
check their own arguments and call the same kernels.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadParameters,
    ConvergenceFailure,
    DegenerateFrequency,
    NoConvergence,
    RankDeficient,
    ShapeMismatch,
)
from .model import TWO_PI_I, ExponentialSum
from .validation import as_complex_vector, check_distinct, check_rcond

DEFAULT_TOL = 1e-12
SPURIOUS_RESIDUE_RTOL = 1e-12

# post-fit relative misfit above this at isolated indices flags coefficients
# without rational structure there (a frequency sitting on a sampled index)
ISOLATED_MISFIT_TOL = 1e-6

# a fitted pole this close to a sample point is that same signature: the fit
# parked a pole on the index whose coefficient broke the rational structure
SAMPLE_COLLISION_TOL = 1e-8

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
        tol: relative residual tolerance; iteration stops once the largest
            misfit over the unused points drops below tol * max|values|.
        max_order: cap on the number of support points; defaults to half the
            sample count (at most 100).

    Returns:
        (BarycentricForm, AaaTrace).  The trace's converged flag is False when
        the cap was reached with the residual still above tolerance; callers
        that need a hard failure raise NoConvergence on that flag.

    Each step solves for the weight vector as the right singular vector of the
    divided-difference matrix built from the unused points, then moves the
    point of largest misfit into the support (smallest index wins ties).
    """
    pts = as_complex_vector(points, "points")
    vals = as_complex_vector(values, "values")
    if pts.shape != vals.shape:
        raise ShapeMismatch("points and values must have equal length")
    check_distinct(pts, "points")
    chosen, weights, trace = _greedy_fit(pts, vals, tol, max_order)
    return BarycentricForm(pts[chosen], vals[chosen], weights), trace


def _greedy_fit(pts, vals, tol, max_order):
    """aaa_fit on trusted arrays: (support indices, weights, AaaTrace).

    Only the scalar arguments are checked.  With one support point the fit is
    the constant supv[0] whatever its weight, so the first step needs no SVD.
    """
    if len(pts) < 2:
        raise BadParameters("need at least two sample points")
    if tol <= 0:
        raise BadParameters("tol must be positive")
    if max_order is None:
        max_order = min(len(pts) // 2, 100)
    if max_order < 1:
        raise BadParameters("max_order must be >= 1")

    scale = np.abs(vals).max()
    chosen = [int(np.argmax(np.abs(vals)))]
    free = np.ones(len(pts), dtype=bool)
    free[chosen] = False
    history = []
    weights = np.ones(1, dtype=complex)
    while True:
        rest = np.flatnonzero(free)
        supv = vals[chosen]
        if len(chosen) == 1:
            resid = np.abs(vals[rest] - supv[0])
        else:
            cauchy = 1.0 / (pts[rest, None] - pts[chosen][None, :])
            loewner = (vals[rest, None] - supv[None, :]) * cauchy
            try:
                weights = np.linalg.svd(loewner, full_matrices=False)[2][-1].conj()
            except np.linalg.LinAlgError as exc:
                raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc
            with np.errstate(divide="ignore", invalid="ignore"):
                resid = np.abs(vals[rest] - (cauchy @ (weights * supv)) / (cauchy @ weights))
            resid[np.isnan(resid)] = np.inf
        history.append(float(resid.max()))
        converged = bool(history[-1] <= tol * scale)
        if converged or len(chosen) >= max_order or len(rest) <= 1:
            break
        chosen.append(int(rest[np.argmax(resid)]))
        free[chosen[-1]] = False
    return chosen, weights, AaaTrace(len(history), tuple(history), tuple(chosen), converged)


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
    return _arrowhead_poles(form.support, form.weights)


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
    """poles_of on a trusted support z and weights w."""
    sigma = w.sum()
    if abs(sigma) <= INF_EIG_CUTOFF * np.abs(w).sum():
        raise DegenerateFrequency(
            f"barycentric weights sum to {abs(sigma) / np.abs(w).sum():.3e} of "
            f"their 1-norm: the fit has a pole at infinity, which no sum of "
            f"simple poles has"
        )
    q2 = _deflation_basis(len(z))
    a = (q2.T * z) @ q2 - np.outer(q2.T @ w, q2.T @ z) / sigma
    try:
        return linalg.sort_complex(np.linalg.eigvals(a))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"pencil eigenvalues failed: {exc}") from exc


def loewner_pencil_poles(points, values, order, rank_tol=linalg.DEFAULT_RCOND):
    """Poles of an order-`order` rational function from the matrix pencil.

    The support partition is chosen by an order-step greedy fit; the pencil of
    plain and shifted divided-difference matrices is projected to size
    order x order through a rank-truncated SVD before solving.
    """
    pts = as_complex_vector(points, "points")
    vals = as_complex_vector(values, "values")
    if pts.shape != vals.shape:
        raise ShapeMismatch("points and values must have equal length")
    check_distinct(pts, "points")
    if order < 1:
        raise BadParameters("order must be >= 1")
    if len(pts) < 2 * order:
        raise BadParameters(f"need at least {2 * order} samples for order {order}")

    chosen = _greedy_fit(pts, vals, np.finfo(float).tiny, order)[0]
    rest = np.setdiff1d(np.arange(len(pts)), chosen)
    sup, supv = pts[chosen], vals[chosen]
    gam, gamv = pts[rest], vals[rest]

    denom = gam[:, None] - sup[None, :]
    plain = (gamv[:, None] - supv[None, :]) / denom
    shifted = (gam[:, None] * gamv[:, None] - sup[None, :] * supv[None, :]) / denom

    u, s, v = linalg.svd(plain)
    if len(s) < order or s[order - 1] <= rank_tol * s[0]:
        raise RankDeficient(
            f"divided-difference matrix has numerical rank < {order}"
        )
    uo = u[:, :order]
    vo = v[:, :order]
    # reduced_b = diag(s) is nonsingular, since s[order-1] > 0 here
    reduced_a = uo.conj().T @ shifted @ vo
    return linalg.sort_complex(linalg.gen_eig(reduced_a, np.diag(s[:order])))


def residues_ls(poles, points, values, rcond=linalg.DEFAULT_RCOND):
    """Residues minimizing the 2-norm misfit of sum_j a_j/(k - b_j) = values."""
    return _cauchy_lstsq(*_cauchy_inputs(poles, points, values, rcond), rcond)


def filter_spurious(poles, points, values, rtol=SPURIOUS_RESIDUE_RTOL,
                    rcond=linalg.DEFAULT_RCOND):
    """Drop near-zero-residue poles (Froissart doublets) and refit the rest."""
    return PoleResidue(*_filter_spurious(*_cauchy_inputs(poles, points, values, rcond),
                                         rtol, rcond))


def _cauchy_inputs(poles, points, values, rcond):
    """The checked arguments of residues_ls and filter_spurious."""
    b = check_distinct(np.asarray(poles, complex).ravel(), "poles")
    pts = as_complex_vector(points, "points")
    vals = as_complex_vector(values, "values")
    if np.abs(pts[:, None] - b[None, :]).min() == 0.0:
        raise BadParameters("sample points must be disjoint from the poles")
    if pts.shape != vals.shape:
        raise ShapeMismatch("points and values must have equal length")
    check_rcond(rcond)
    return b, pts, vals


def _cauchy_lstsq(b, pts, vals, rcond):
    """residues_ls on trusted arrays, with the poles b off the points."""
    try:
        return np.linalg.lstsq(1.0 / (pts[:, None] - b[None, :]), vals, rcond=rcond)[0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"least squares solve failed: {exc}") from exc


def _filter_spurious(b, pts, vals, rtol, rcond):
    """filter_spurious on trusted arrays: (kept poles in input order, residues)."""
    residues = _cauchy_lstsq(b, pts, vals, rcond)
    top = np.abs(residues).max()
    if top == 0.0:
        raise DegenerateFrequency("samples carry no rational structure of positive order")
    keep = np.abs(residues) >= rtol * top
    if keep.all():
        return b, residues
    if not keep.any():
        raise DegenerateFrequency("all residues fall below the spurious-pole threshold")
    return b[keep], _cauchy_lstsq(b[keep], pts, vals, rcond)


def check_fit_residual(pole_residue, points, values, tol=ISOLATED_MISFIT_TOL):
    """Raise when the fitted pole/residue model misses some samples.

    A small number of isolated misfits while the rest of the samples agree is
    the signature of a frequency of the form 2*pi*i*k/P (constant coefficient
    branch), which rational recovery cannot represent.
    """
    scale = np.abs(values).max()
    if scale == 0.0:
        return
    resid = np.abs(pole_residue(np.asarray(points, complex)) - values) / scale
    bad = resid > tol
    if not bad.any():
        return
    if bad.mean() <= 0.1:
        worst = int(np.argmax(resid))
        raise DegenerateFrequency(
            f"fit converged except at {int(bad.sum())} isolated sample(s); worst "
            f"relative misfit {resid[worst]:.3e} at point index {worst}"
        )
    raise NoConvergence(
        f"fitted model misses {int(bad.sum())} of {len(resid)} samples"
    )


def pole_residue_from_samples(values, tol=DEFAULT_TOL, max_order=None,
                              rcond=linalg.DEFAULT_RCOND, method="eig"):
    """The univariate line fit: samples on k = -N..N to a filtered PoleResidue.

    values is a 1-D array of an odd number 2N+1 of finite samples at
    k = -N..N; another shape or an even count raises ShapeMismatch.  Poles
    come from the arrowhead eigenproblem of the greedy fit (method="eig") or
    from the matrix pencil with the fitted order (method="pencil").  All
    arguments are checked before any work; the policy then runs in this order:
    pole extraction, the sample-collision check (DegenerateFrequency), the
    spurious-pole filter, NoConvergence when the greedy fit missed its
    tolerance, and finally check_fit_residual.

    Returns (PoleResidue with poles sorted by (real, imag), AaaTrace).
    """
    vals = np.asarray(values, dtype=complex)
    if vals.ndim != 1:
        raise ShapeMismatch(f"line must be 1-D, got ndim={vals.ndim}")
    if len(vals) % 2 == 0:
        raise ShapeMismatch(
            f"line must hold an odd number of samples, k = -N..N; got {len(vals)}"
        )
    if not np.isfinite(vals).all():
        raise BadParameters("values contains non-finite entries")
    check_rcond(rcond)
    if method not in ("eig", "pencil"):
        raise BadParameters(f"unknown pole method {method!r}")
    n_half = (len(vals) - 1) // 2
    points = np.arange(-n_half, n_half + 1, dtype=float).astype(complex)
    chosen, weights, trace = _greedy_fit(points, vals, tol, max_order)
    if len(chosen) < 2:
        raise DegenerateFrequency(
            "samples are constant; no rational structure of positive order"
        )
    if method == "eig":
        poles = _arrowhead_poles(points[chosen], weights)
    else:
        poles = loewner_pencil_poles(points, vals, len(chosen) - 1, rank_tol=rcond)
    bad = np.abs(points[None, :] - poles[:, None]).min(axis=1) <= SAMPLE_COLLISION_TOL
    if bad.any():
        nearest = points[np.abs(points[None, :] - poles[bad, None]).argmin(axis=1)]
        raise DegenerateFrequency(
            f"fitted pole sits on sample point(s) "
            f"{np.round(nearest.real).astype(int).tolist()}; the coefficients "
            f"there have no rational structure"
        )
    # both engines sort their poles and the filter keeps their order
    pr = PoleResidue(*_filter_spurious(poles, points, vals, SPURIOUS_RESIDUE_RTOL, rcond))
    if not trace.converged:
        raise NoConvergence(
            f"greedy fit did not reach tolerance within {trace.iterations} steps"
        )
    check_fit_residual(pr, points, vals)
    return pr, trace


def recover_univariate(source, tol=DEFAULT_TOL, max_order=None,
                       rcond=linalg.DEFAULT_RCOND, method="eig"):
    """Recover a univariate exponential sum from a d=1 coefficient source.

    Runs the line fit on k = -N..N and maps its pole/residue pairs to
    frequencies and coefficients.
    """
    if source.d != 1:
        raise ShapeMismatch(f"univariate recovery needs d=1, got d={source.d}")
    pr, _ = pole_residue_from_samples(
        source.axis_line(0), tol=tol, max_order=max_order, rcond=rcond, method=method
    )
    frequencies = TWO_PI_I * pr.poles / source.P
    coefficients = TWO_PI_I * pr.residues / (1.0 - np.exp(frequencies * source.P))
    return ExponentialSum(frequencies[:, None], coefficients)
