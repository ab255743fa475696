"""Reference signals and random-instance generators shared across the suite."""

from dataclasses import dataclass

import numpy as np

from expanal import CoefficientSource, ExponentialSum, SparseLines

_SQ = np.sqrt
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RefCase:
    name: str
    signal: ExponentialSum
    P: float
    N: int
    tau: int = None  # None: the line-based method does not apply


# Bivariate order 5, purely imaginary frequencies; both methods apply.
BIVARIATE_5 = RefCase(
    "bivariate-5",
    ExponentialSum(
        np.array(
            [
                [_SQ(2.21) * 1j, 3.33j],
                [-5.63j, -_SQ(5) * 1j],
                [-3.47j, _SQ(6) * 1j],
                [-_SQ(7.1) * 1j, -4.5j],
                [0.46j, -9.44j],
            ]
        ),
        np.array([3, 2, 1, 2, 1], dtype=complex),
    ),
    P=4.0,
    N=15,
    tau=7,
)

# Trivariate order 6 with damped terms; both methods apply.
TRIVARIATE_6 = RefCase(
    "trivariate-6",
    ExponentialSum(
        np.array(
            [
                [-2 - 3j, _SQ(np.pi) * (-1 + 1j), 0.5j],
                [-1 + _SQ(20) * 1j, -3 + 1j, -1 + 1j],
                [3j, -4 + 0.5j, 1.22j],
                [-2 + 3j, _SQ(np.pi) * (-1 - 1j), -0.5j],
                [-1 - _SQ(20) * 1j, -3 - 1j, -1 - 1j],
                [-3j, -4 - 0.5j, -1.22j],
            ]
        ),
        np.array([-1, -2, -3, 1, 2, 3], dtype=complex),
    ),
    P=5.0,
    N=15,
    tau=4,
)

# 4-variate order 9 with heavily repeated per-axis values; full-grid only.
# Its pole tree has 2 roots, level sizes 4 and 5, and 9 leaves.
QUADVARIATE_9 = RefCase(
    "quadvariate-9",
    ExponentialSum(
        np.array(
            [
                [2 + 2j, 0.2j, 1j, 1],
                [2 + 2j, 0.2j, 1j, -1],
                [2 + 2j, -2, 1 + 1j, 1j],
                [2 + 2j, -2, 1 + 1j, -2j],
                [2 + 2j, -2, 1 + 1j, 3j],
                [3 + 1j, -np.pi, -3, -_SQ(np.pi) * 1j],
                [3 + 1j, -np.pi, 1, 2j],
                [3 + 1j, -np.pi, 1, -4],
                [3 + 1j, 0.2j, 1 + 1j, _SQ(20) * 1j],
            ],
            dtype=complex,
        ),
        np.ones(9, dtype=complex),
    ),
    P=2.4,
    N=10,
)

# Trivariate order 4 with a triple shared first-axis value; full-grid only.
TRIVARIATE_4 = RefCase(
    "trivariate-4",
    ExponentialSum(
        np.array(
            [
                [-1.47 - 0.27j, -1.87 - 0.57j, -1.35 + 4.61j],
                [-1.47 - 0.27j, -1.87 - 0.57j, -1.26 - 2.58j],
                [-1.47 - 0.27j, -0.84 + 7.53j, -1.75 - 1.33j],
                [-0.60 + 4.86j, -0.13 + 5.05j, -0.12 + 8.34j],
            ]
        ),
        np.array([1, -4, -2, 2], dtype=complex),
    ),
    P=1.0,
    N=10,
)

_COEFS_8 = np.array(
    [1 + 1j, 2 + 3j, 5 - 6j, 0.2 - 1j, 1 + 1j, 2 + 3j, 5 - 6j, 0.2 - 1j]
)

# Order-8 oscillatory benchmarks with shared axis values; full-grid only.
BIVARIATE_8 = RefCase(
    "bivariate-8",
    ExponentialSum(
        np.array(
            [
                [0.1j, 1.2j],
                [0.19j, 1.3j],
                [0.3j, 1.5j],
                [0.35j, 0.3j],
                [-0.1j, 1.2j],
                [-0.19j, 0.35j],
                [-0.3j, -1.5j],
                [-0.3j, 0.3j],
            ]
        ),
        _COEFS_8,
    ),
    P=60.0,
    N=15,
)

TRIVARIATE_8 = RefCase(
    "trivariate-8",
    ExponentialSum(
        np.array(
            [
                [0.1j, 1.2j, 0.1j],
                [0.19j, 1.3j, 0.2j],
                [0.4j, 1.5j, 1.5j],
                [0.45j, 0.3j, -0.3j],
                [-0.1j, 1.2j, 0.1j],
                [-0.19j, 0.35j, -0.5j],
                [-0.4j, -1.5j, 0.25j],
                [-0.4j, 0.3j, -0.3j],
            ]
        ),
        _COEFS_8,
    ),
    P=60.0,
    N=15,
)

QUADVARIATE_8 = RefCase(
    "quadvariate-8",
    ExponentialSum(
        np.array(
            [
                [0.1j, 1.2j, 0.1j, 0.45j],
                [0.19j, 1.3j, 0.2j, 1.5j],
                [0.3j, 1.5j, 1.5j, -1.3j],
                [0.45j, 0.3j, -0.3j, 0.4j],
                [-0.1j, 1.2j, 0.1j, -1.5j],
                [-0.19j, 0.35j, -0.5j, -0.45j],
                [-0.4j, -1.5j, 0.25j, 1.3j],
                [-0.4j, 0.3j, -0.3j, 0.4j],
            ]
        ),
        _COEFS_8,
    ),
    P=60.0,
    N=15,
)

ALL_REFERENCE = (
    BIVARIATE_5,
    TRIVARIATE_6,
    QUADVARIATE_9,
    TRIVARIATE_4,
    BIVARIATE_8,
    TRIVARIATE_8,
    QUADVARIATE_8,
)


def random_poles(rng, count, re_bound, im_range=(0.05, 1.5), min_sep=0.3,
                 int_clearance=0.05, existing=()):
    """Index-domain poles: bounded real part, off the real axis, away from the
    integers and from each other."""
    out = list(existing)
    target = len(existing) + count
    while len(out) < target:
        re = rng.uniform(-re_bound, re_bound)
        im = rng.uniform(*im_range) * rng.choice([-1.0, 1.0])
        cand = complex(re, im)
        if abs(re - round(re)) < int_clearance and abs(im) < int_clearance:
            continue
        if any(abs(cand - p) < min_sep for p in out):
            continue
        out.append(cand)
    return np.array(out[len(existing):], dtype=complex)


def random_coefficients(rng, count):
    mag = rng.uniform(0.5, 2.0, size=count)
    phase = rng.uniform(0.0, TWO_PI, size=count)
    return mag * np.exp(1j * phase)


def signal_from_poles(pole_matrix, coefficients, P):
    """Signal whose index-domain pole matrix is the given one."""
    frequencies = 2j * np.pi * np.asarray(pole_matrix, dtype=complex) / P
    return ExponentialSum(frequencies, coefficients)


def signal_from_amplitudes(pole_matrix, amplitudes, P):
    """Signal whose coefficient data is sum_j amplitudes[j]/prod(k - poles[j]).

    Drawing the rational amplitudes (rather than the signal coefficients)
    keeps every term's contribution to the sampled data at unit scale, the way
    the published benchmark signals behave.
    """
    poles = np.asarray(pole_matrix, dtype=complex)
    frequencies = 2j * np.pi * poles / P
    d = poles.shape[1]
    coefficients = (
        np.asarray(amplitudes, dtype=complex)
        * (2j * np.pi) ** d
        / np.prod(1.0 - np.exp(frequencies * P), axis=1)
    )
    return ExponentialSum(frequencies, coefficients)


def random_univariate(rng, order, re_bound=3.0, P=2.0, min_sep=0.3,
                      im_range=(0.05, 1.5)):
    poles = random_poles(rng, order, re_bound, im_range=im_range, min_sep=min_sep)
    return signal_from_poles(poles[:, None], random_coefficients(rng, order), P), poles


def random_axis_distinct(rng, order, d, tau, P=2.0):
    """Instance whose per-axis pole values are pairwise distinct and inside
    the tau strip, as the line-based method requires."""
    cols = [random_poles(rng, order, tau - 0.3) for _ in range(d)]
    poles = np.column_stack(cols)
    return signal_from_amplitudes(poles, random_coefficients(rng, order), P), poles


# Relative spikes on two axis-0 entries of the bivariate-5 sparse:7 table: too
# small for the greedy fit to park a pole on them, large enough that the
# refit misses k=5 by about 2e-6 of the line's scale (an isolated misfit).
BIVARIATE_5_SPIKES = {(5, 0): -4.37855e-05 - 2.58e-07j, (-2, 0): -3.6e-09 + 1.21e-08j}


def spiked_bivariate_5():
    """Sparse:7 source of BIVARIATE_5 with each entry in BIVARIATE_5_SPIKES
    moved by that factor times its own magnitude."""
    case = BIVARIATE_5
    coverage = SparseLines(case.tau)
    clean = case.signal.synthesize(case.P, case.N, coverage)
    rows = coverage.unique_indices(2, case.N)
    values = np.array(clean.values)
    for idx, spike in BIVARIATE_5_SPIKES.items():
        at = np.flatnonzero((rows == idx).all(axis=1))[0]
        values[at] += spike * abs(values[at])
    return CoefficientSource(2, case.P, case.N, coverage, values)
