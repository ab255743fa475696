"""Univariate rational recovery in barycentric form.

The pipeline fits sampled values with a greedy barycentric interpolant,
extracts poles from the deflated arrowhead matrix of the fit (or from the
divided-difference matrix pencil), solves for residues by least squares, and
maps pole/residue pairs back to exponential-sum parameters.

pole_residue_from_samples is the one line fit of both recovery methods: it
owns the sample geometry k = -N..N and the whole acceptance policy, so no
caller repeats any of it.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadParameters,
    DegenerateFrequency,
    NoConvergence,
    RankDeficient,
    ShapeMismatch,
)
from .model import TWO_PI_I, ExponentialSum
from .validation import as_complex_vector, check_distinct

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
    if len(pts) < 2:
        raise BadParameters("need at least two sample points")
    check_distinct(pts, "points")
    if tol <= 0:
        raise BadParameters("tol must be positive")
    if max_order is None:
        max_order = min(len(pts) // 2, 100)
    if max_order < 1:
        raise BadParameters("max_order must be >= 1")

    scale = np.abs(vals).max()
    remaining = list(range(len(pts)))
    first = int(np.argmax(np.abs(vals)))
    chosen = [first]
    remaining.remove(first)

    history = []
    converged = False
    weights = np.array([1.0 + 0.0j])
    while True:
        sup = pts[chosen]
        supv = vals[chosen]
        rest = np.array(remaining, dtype=int)
        cauchy = 1.0 / (pts[rest, None] - sup[None, :])
        loewner = (vals[rest, None] - supv[None, :]) * cauchy
        _, _, v = linalg.svd(loewner)
        weights = v[:, -1]

        with np.errstate(divide="ignore", invalid="ignore"):
            fit = (cauchy @ (weights * supv)) / (cauchy @ weights)
        resid = np.abs(vals[rest] - fit)
        resid = np.where(np.isnan(resid), np.inf, resid)
        err = float(resid.max()) if len(resid) else 0.0
        history.append(err)

        if err <= tol * scale:
            converged = True
            break
        if len(chosen) >= max_order or len(remaining) <= 1:
            break
        nxt = int(rest[np.argmax(resid)])
        chosen.append(nxt)
        remaining.remove(nxt)

    form = BarycentricForm(pts[chosen], vals[chosen], weights)
    trace = AaaTrace(
        iterations=len(history),
        max_residual_history=tuple(history),
        chosen_support_order=tuple(chosen),
        converged=converged,
    )
    return form, trace


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
    n = len(form)
    if n < 2:
        raise BadParameters("need at least two support points to have poles")
    z, w = form.support, form.weights
    sigma = w.sum()
    if abs(sigma) <= INF_EIG_CUTOFF * np.abs(w).sum():
        raise DegenerateFrequency(
            f"barycentric weights sum to {abs(sigma) / np.abs(w).sum():.3e} of "
            f"their 1-norm: the fit has a pole at infinity, which no sum of "
            f"simple poles has"
        )
    # I - 2 v v^T / (v^T v) maps e/sqrt(n) to -e_1, so its other columns are
    # an orthonormal basis of the complement of e
    v = np.full(n, 1.0 / np.sqrt(n))
    v[0] += 1.0
    q2 = (np.eye(n) - (2.0 / (v @ v)) * np.outer(v, v))[:, 1:]
    a = (q2.T * z) @ q2 - np.outer(q2.T @ w, q2.T @ z) / sigma
    return linalg.sort_complex(linalg.gen_eig(a))


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

    _, trace = aaa_fit(pts, vals, tol=np.finfo(float).tiny, max_order=order)
    chosen = list(trace.chosen_support_order)
    rest = np.array([i for i in range(len(pts)) if i not in set(chosen)], dtype=int)
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
    b = check_distinct(np.asarray(poles, complex).ravel(), "poles")
    pts = as_complex_vector(points, "points")
    vals = as_complex_vector(values, "values")
    if np.abs(pts[:, None] - b[None, :]).min() == 0.0:
        raise BadParameters("sample points must be disjoint from the poles")
    cauchy = 1.0 / (pts[:, None] - b[None, :])
    return linalg.lstsq(cauchy, vals, rcond=rcond)


def filter_spurious(poles, points, values, rtol=SPURIOUS_RESIDUE_RTOL,
                    rcond=linalg.DEFAULT_RCOND):
    """Drop near-zero-residue poles (Froissart doublets) and refit the rest."""
    residues = residues_ls(poles, points, values, rcond=rcond)
    top = np.abs(residues).max()
    if top == 0.0:
        raise DegenerateFrequency("samples carry no rational structure of positive order")
    keep = np.abs(residues) >= rtol * top
    if keep.all():
        return PoleResidue(poles, residues)
    kept = np.asarray(poles, complex).ravel()[keep]
    if len(kept) == 0:
        raise DegenerateFrequency("all residues fall below the spurious-pole threshold")
    return PoleResidue(kept, residues_ls(kept, points, values, rcond=rcond))


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

    values holds an odd number 2N+1 of samples at k = -N..N; an even count
    raises ShapeMismatch.  Poles come from the arrowhead eigenproblem of the
    greedy fit (method="eig") or from the matrix pencil with the fitted order
    (method="pencil").  The policy runs in this order: pole extraction, the
    sample-collision check (DegenerateFrequency), the spurious-pole filter,
    the (real, imag) sort, NoConvergence when the greedy fit missed its
    tolerance, and finally check_fit_residual.

    Returns (PoleResidue, AaaTrace).
    """
    vals = np.asarray(values, dtype=complex).ravel()
    if len(vals) % 2 == 0:
        raise ShapeMismatch(
            f"line must hold an odd number of samples, k = -N..N; got {len(vals)}"
        )
    n_half = (len(vals) - 1) // 2
    points = np.arange(-n_half, n_half + 1, dtype=float).astype(complex)
    form, trace = aaa_fit(points, vals, tol=tol, max_order=max_order)
    if len(form) < 2:
        raise DegenerateFrequency(
            "samples are constant; no rational structure of positive order"
        )
    if method == "eig":
        poles = poles_of(form)
    elif method == "pencil":
        poles = loewner_pencil_poles(points, vals, len(form) - 1, rank_tol=rcond)
    else:
        raise BadParameters(f"unknown pole method {method!r}")
    bad = np.abs(points[None, :] - poles[:, None]).min(axis=1) <= SAMPLE_COLLISION_TOL
    if bad.any():
        nearest = points[np.abs(points[None, :] - poles[bad, None]).argmin(axis=1)]
        raise DegenerateFrequency(
            f"fitted pole sits on sample point(s) "
            f"{np.round(nearest.real).astype(int).tolist()}; the coefficients "
            f"there have no rational structure"
        )
    pr = filter_spurious(poles, points, vals, rcond=rcond)
    srt = np.lexsort((pr.poles.imag, pr.poles.real))
    pr = PoleResidue(pr.poles[srt], pr.residues[srt])
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
