"""Line-sampled recovery of multivariate exponential sums.

Two line fits (rational._fit_lines, the kernel of pole_residue_from_samples)
give the poles of the d axis lines for any d: axis 0, which fixes the order,
then the other axes stacked.  Each of the d-1 shifted diagonals admits a
two-family partial fraction decomposition whose coefficients satisfy a sign
condition and a coefficient identity exactly for the correct pairing; one
pairing solve (linalg.cauchy_lstsq) gives them for all diagonals, and matching
is a global assignment over the condition violations, chained across axes.
The line geometry belongs to model.SparseLines.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AmbiguousPairing,
    AxisOrderMismatch,
    BadParameters,
    CoverageMismatch,
    ExpanalError,
    NoConvergence,
    ShapeMismatch,
    TauViolation,
)
from .model import ExponentialSum, SparseLines
from .rational import DEFAULT_TOL, _fit_lines, _sample_points, pole_residue_from_samples
from .validation import as_complex_vector

PAIRING_SCORE_TOL = 1e-6
PAIRING_MARGIN = 10.0


@dataclass(frozen=True)
class AxisRecovery:
    """Poles and partial-fraction coefficients fitted on one axis line."""

    axis: int
    poles: np.ndarray
    coefficients: np.ndarray
    trace: object

    def __post_init__(self):
        if len(self.poles) != len(self.coefficients):
            raise ShapeMismatch("poles and coefficients must have equal length")

    @property
    def order(self):
        return len(self.poles)


@dataclass(frozen=True)
class PairingCertificate:
    """Evidence for the chained pairing: one permutation per diagonal stage."""

    permutations: tuple
    stage_coefficients: tuple
    match_scores: tuple
    axis_traces: tuple

    def __post_init__(self):
        for p in self.permutations:
            if sorted(p) != list(range(len(p))):
                raise BadParameters(f"stage permutation {p} is not a bijection")


def recover_axis(values, axis, tol=DEFAULT_TOL, method="eig"):
    """Fit one axis line on k = -N..N; poles sorted by (real, imag).

    The fit and its policy are pole_residue_from_samples; NoConvergence names
    the axis.  recover_sparse fits axis 0 with it, which fixes the order, then
    the other axes in one stacked fit, and solves the pairing once.
    """
    try:
        pr, trace = pole_residue_from_samples(values, tol=tol, method=method)
    except NoConvergence as exc:
        raise NoConvergence(f"axis {axis}: {exc}") from exc
    return AxisRecovery(axis=axis, poles=pr.poles, coefficients=pr.residues, trace=trace)


def pairing_system(poles_prev, poles_next, diagonal_values, tau):
    """Partial-fraction coefficients of one shifted diagonal.

    Solves the Cauchy least squares system (linalg.cauchy_lstsq) whose first
    M columns carry the previous-axis poles and whose last M columns carry the
    next-axis poles shifted by 2*tau.  It raises IllConditioned when that
    matrix is numerically rank deficient (the shift failed to separate the two
    families, or fewer than 2M samples), and BadParameters when a pole sits on
    a sample point.  tau must be a positive integer, as in SparseLines.
    """
    prev = np.asarray(poles_prev, dtype=complex).ravel()
    nxt = np.asarray(poles_next, dtype=complex).ravel()
    vals = as_complex_vector(diagonal_values, "diagonal values")
    tau = SparseLines(tau).tau
    if prev.shape != nxt.shape:
        raise ShapeMismatch("pole families must have equal size")
    if prev.size == 0:
        raise BadParameters("need at least one pole")
    if len(vals) % 2 == 0:
        raise ShapeMismatch("diagonal sample count does not match any half-width")
    c, errors = _pairing_solve(np.array([prev, nxt]), vals[None], tau)
    if errors:
        raise errors[0]
    return c[0]


def _pairing_solve(poles, diagonals, tau):
    """(c (g, 2M), {row: error}) of the pairing systems of g + 1 chained axes
    with poles (g + 1, M): row i has the poles of axis i, those of axis i + 1
    shifted by -2*tau, and diagonals[i] sampled at k = -N..N-2*tau."""
    n = diagonals.shape[1] // 2 + tau
    k = _sample_points(2 * n + 1)[:diagonals.shape[1]]
    return linalg.cauchy_lstsq(np.concatenate([poles[:-1], poles[1:] - 2 * tau], axis=1),
                               k, diagonals, "pairing system")


def _score_matrix(c, coeffs_prev, poles_prev, poles_next, tau):
    m = len(poles_prev)
    c1 = c[:m]
    c2 = c[m:]
    c_scale = np.abs(c).max()
    a_scale = np.abs(coeffs_prev).max()
    sign = np.abs(c1[:, None] + c2[None, :]) / c_scale
    predicted = (
        c1[:, None]
        + c2[None, :] * poles_prev[:, None] / poles_next[None, :]
        - 2 * tau * c1[:, None] / poles_next[None, :]
    )
    ident = np.abs(coeffs_prev[:, None] - predicted) / a_scale
    return sign + ident


def match_pairs(c, coeffs_prev, poles_prev, poles_next, tau):
    """Bijection matching previous-axis terms to next-axis poles.

    Scores every (term, pole) candidate by its violation of the sign condition
    plus the coefficient identity, then takes the assignment minimizing the
    total score.  The assignment is accepted only when every matched score is
    below PAIRING_SCORE_TOL and each row's runner-up is at least
    PAIRING_MARGIN times worse; otherwise AmbiguousPairing reports the two
    best candidates.  No poles, or a zero next-axis pole, raise BadParameters.

    Returns (permutation, matched_scores).
    """
    prev = np.asarray(poles_prev, dtype=complex).ravel()
    nxt = np.asarray(poles_next, dtype=complex).ravel()
    coeffs_prev = np.asarray(coeffs_prev, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    m = len(prev)
    if not (len(nxt) == m and len(coeffs_prev) == m and len(c) == 2 * m):
        raise ShapeMismatch("pairing inputs are dimension-inconsistent")
    if m == 0:
        raise BadParameters("need at least one pole")
    if (nxt == 0).any():
        raise BadParameters("next-axis poles must be nonzero")

    scores = _score_matrix(c, coeffs_prev, prev, nxt, tau)
    # a square cost assigns every row, in order
    perm = linalg.linear_assignment(scores)[1]
    matched = scores[np.arange(m), perm]
    for j in range(m):
        row = np.sort(scores[j])
        runner_up = row[1] if m > 1 else np.inf
        if matched[j] > PAIRING_SCORE_TOL or runner_up < PAIRING_MARGIN * matched[j]:
            raise AmbiguousPairing(
                f"term {j}: best candidate scores {row[0]:.3e}, runner-up {runner_up:.3e}; "
                f"no pairing satisfies both conditions with a clear margin"
            )
    return perm, matched


def recover_sparse(source, tol=DEFAULT_TOL, method="eig"):
    """Recover an exponential sum from sparse-lines coefficient coverage.

    Fits axis 0, which fixes the order M, then the other axes in one stacked
    fit capped at M + 1 support points; solves all pairing systems at once,
    chains the pairing, validates the shift contract and maps the poles back.

    Returns (ExponentialSum, PairingCertificate).
    """
    if not isinstance(source.coverage, SparseLines):
        raise CoverageMismatch("line-based recovery needs sparse-lines coverage")
    tau = source.coverage.tau
    d = source.d

    lines = np.array([source.axis_line(axis) for axis in range(d)])
    first = recover_axis(lines[0], 0, tol=tol, method=method)
    order = first.order
    fits = [(first.poles, first.coefficients, first.trace)] + _fit_lines(
        lines[1:], tol, order + 1, method)
    rule = f"axis 0 fixed order {order}; axiswise-distinct assumption violated"
    for axis, fit in enumerate(fits):
        if isinstance(fit, NoConvergence):
            raise AxisOrderMismatch(f"axis {axis}: unconverged fit ({fit}) where {rule}") from fit
        if isinstance(fit, ExpanalError):
            raise fit
        if len(fit[0]) != order:
            raise AxisOrderMismatch(f"axis {axis} recovered order {len(fit[0])} but {rule}")
    fitted, residues, traces = zip(*(fit[:3] for fit in fits))

    diagonals = np.array([source.diagonal_line(axis) for axis in range(1, d)])
    c, errors = _pairing_solve(np.array(fitted),
                               diagonals.reshape(d - 1, 2 * (source.N - tau) + 1), tau)
    # perms[a] puts the poles of axis a in term order; the solve is permutation-
    # equivariant, so the first half of row a takes the order of perms[a] too
    perms, stage_scores = [np.arange(order)], []
    for stage in range(d - 1):
        if stage in errors:
            raise errors[stage]
        prev = perms[stage]
        c[stage, :order] = c[stage, :order][prev]
        perm, scores = match_pairs(c[stage], residues[stage][prev], fitted[stage][prev],
                                   fitted[stage + 1], tau)
        perms.append(perm)
        stage_scores.append(tuple(scores.tolist()))

    poles = np.column_stack([axis[perm] for axis, perm in zip(fitted, perms)])
    worst = np.abs(poles.real).max()
    if worst >= tau:
        raise TauViolation(
            f"recovered pole real part {worst:.6g} >= tau={tau}; the shift "
            f"parameter does not cover the data"
        )

    amplitudes = first.coefficients * np.prod(-poles[:, 1:], axis=1)
    certificate = PairingCertificate(
        permutations=tuple(tuple(perm.tolist()) for perm in perms[1:]),
        stage_coefficients=tuple(map(tuple, c.tolist())),
        match_scores=tuple(stage_scores),
        axis_traces=traces,
    )
    return ExponentialSum.from_poles(poles, amplitudes, source.P), certificate
