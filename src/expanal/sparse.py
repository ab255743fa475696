"""Line-sampled recovery of multivariate exponential sums.

Frequencies are recovered per coordinate axis from the d axis lines, then the
d-1 shifted diagonal lines pin down which axis poles belong to the same term.
Each diagonal admits a two-family partial fraction decomposition whose
coefficients satisfy a sign condition and a coefficient identity exactly for
the correct pairing; matching is solved as a global assignment over those
condition violations and chained across axes.

The line geometry belongs to model.SparseLines, and every axis fit goes
through rational.pole_residue_from_samples with its full policy; this module
adds only the order rule across axes and the pairing (linalg.cauchy_lstsq).
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    AmbiguousPairing,
    AxisOrderMismatch,
    BadParameters,
    CoverageMismatch,
    NoConvergence,
    ShapeMismatch,
    TauViolation,
)
from .model import ExponentialSum, SparseLines
from .rational import DEFAULT_TOL, pole_residue_from_samples
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


def recover_axis(values, axis, tol=DEFAULT_TOL, expected_order=None, method="eig"):
    """Fit one axis line on k = -N..N; poles sorted by (real, imag).

    The fit and its policy are pole_residue_from_samples.  With expected_order
    set, the fit is capped at that order plus one, and an unconverged fit or
    any other recovered order raises AxisOrderMismatch (a shared axis value in
    the data shows up as a drop in the fitted order).
    """
    cap = None if expected_order is None else expected_order + 1
    try:
        pr, trace = pole_residue_from_samples(
            values, tol=tol, max_order=cap, method=method
        )
    except NoConvergence as exc:
        if expected_order is None:
            raise NoConvergence(f"axis {axis}: {exc}") from exc
        raise AxisOrderMismatch(
            f"axis {axis}: unconverged fit ({exc}) where axis 0 fixed order "
            f"{expected_order}; axiswise-distinct assumption violated"
        ) from exc
    if expected_order is not None and len(pr.poles) != expected_order:
        raise AxisOrderMismatch(
            f"axis {axis} recovered order {len(pr.poles)} but axis 0 fixed order "
            f"{expected_order}; axiswise-distinct assumption violated"
        )
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
    n = (len(vals) - 1) // 2 + tau
    k = np.arange(-n, n - 2 * tau + 1, dtype=float)
    if len(k) != len(vals):
        raise ShapeMismatch("diagonal sample count does not match any half-width")
    poles = np.concatenate([prev, nxt - 2 * tau])
    c, errors = linalg.cauchy_lstsq(poles[None], k, vals[None], "pairing system")
    if errors:
        raise errors[0]
    return c[0]


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
    best candidates.

    Returns (permutation, matched_scores).
    """
    prev = np.asarray(poles_prev, dtype=complex).ravel()
    nxt = np.asarray(poles_next, dtype=complex).ravel()
    coeffs_prev = np.asarray(coeffs_prev, dtype=complex).ravel()
    c = np.asarray(c, dtype=complex).ravel()
    m = len(prev)
    if not (len(nxt) == m and len(coeffs_prev) == m and len(c) == 2 * m):
        raise ShapeMismatch("pairing inputs are dimension-inconsistent")

    scores = _score_matrix(c, coeffs_prev, prev, nxt, tau)
    rows, cols = linalg.linear_assignment(scores)
    perm = np.empty(m, dtype=int)
    perm[rows] = cols

    matched = scores[np.arange(m), perm]
    for j in range(m):
        row = np.sort(scores[j])
        runner_up = row[1] if m > 1 else np.inf
        if matched[j] > PAIRING_SCORE_TOL or runner_up < PAIRING_MARGIN * matched[j]:
            raise AmbiguousPairing(
                f"term {j}: best candidate scores {row[0]:.3e}, runner-up "
                f"{row[1] if m > 1 else np.inf:.3e}; no pairing satisfies both "
                f"conditions with a clear margin"
            )
    return perm, matched


def recover_sparse(source, tol=DEFAULT_TOL, method="eig"):
    """Recover an exponential sum from sparse-lines coefficient coverage.

    Runs the per-axis fits (axis 0 fixes the order), solves one pairing stage
    per diagonal, assembles the pole matrix, validates the shift contract and
    maps poles back to frequencies and coefficients.

    Returns (ExponentialSum, PairingCertificate).
    """
    if not isinstance(source.coverage, SparseLines):
        raise CoverageMismatch("line-based recovery needs sparse-lines coverage")
    tau = source.coverage.tau
    d = source.d

    first = recover_axis(source.axis_line(0), 0, tol=tol, method=method)
    order = first.order
    axes = [first]
    for axis in range(1, d):
        axes.append(
            recover_axis(source.axis_line(axis), axis, tol=tol,
                         expected_order=order, method=method)
        )

    aligned = [first.poles]
    prev_coeffs = first.coefficients
    perms, stage_cs, stage_scores = [], [], []
    for axis in range(1, d):
        diag = source.diagonal_line(axis)
        c = pairing_system(aligned[-1], axes[axis].poles, diag, tau)
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
            f"parameter does not cover the data"
        )

    amplitudes = first.coefficients * np.prod(-poles[:, 1:], axis=1)
    certificate = PairingCertificate(
        permutations=tuple(perms),
        stage_coefficients=tuple(stage_cs),
        match_scores=tuple(stage_scores),
        axis_traces=tuple(a.trace for a in axes),
    )
    return ExponentialSum.from_poles(poles, amplitudes, source.P), certificate
