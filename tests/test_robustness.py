"""Seeded outcome suite: every recovery ends in the true order with its errors
within tolerance, or in a typed ExpanalError; never silently wrong.

The errors come from the optimal matching of the frequency rows
(linalg.linear_assignment).  relative_errors would add its signal-error
lattice, which costs far more than the recoveries themselves.  A case that
ends silently wrong today is a strict xfail naming the ROADMAP item that is to
mend it.
"""

import functools

import numpy as np
import pytest

from expanal import CoefficientSource, FullGrid, SparseLines, recover_recursive, recover_sparse
from expanal.errors import ExpanalError
from expanal.linalg import linear_assignment

from cases import ALL_REFERENCE, random_axis_distinct

NOISE_LEVELS = (0.0, 1e-13, 1e-11, 1e-9)
NOISE_SEEDS = (0, 1)

SPARSE_ORDERS = (7, 8, 9, 10)
SPARSE_INSTANCES = 150
SPARSE_TOL = 1e-6

# (case name, noise level, seed): the full grid returns order 5 for 4
FULL_GRID_SILENT = {("trivariate-4", 1e-13, 1)}
# (order M, instance): the sparse method returns the true order with errors
# from 1.2e-6 to 2.5e-5
SPARSE_SILENT = {(9, 6), (9, 49), (10, 20), (10, 23), (10, 108)}


def _matched_errors(truth, recovered):
    """The largest per-axis relative frequency error and the relative
    coefficient error of two signals of one order, their rows matched by the
    least total frequency-row distance (as relative_errors matches them)."""
    t, r = truth.frequencies, recovered.frequencies
    rows, cols = linear_assignment(np.linalg.norm(t[:, None] - r[None], axis=2))
    frequency = max(np.abs(t[rows, a] - r[cols, a]).max() / np.abs(t[:, a]).max()
                    for a in range(truth.d))
    coefficient = (np.abs(truth.coefficients[rows] - recovered.coefficients[cols]).max()
                   / np.abs(truth.coefficients).max())
    return frequency, coefficient


def _assert_correct_or_typed(truth, recover, tol):
    try:
        recovered, _ = recover()
    except ExpanalError:
        return
    assert recovered.order == truth.order, (
        f"order {recovered.order} for {truth.order}, with no error")
    assert max(_matched_errors(truth, recovered)) <= tol


def _full_grid_cases():
    for case in ALL_REFERENCE:
        for sigma in NOISE_LEVELS:
            for seed in NOISE_SEEDS:
                silent = (case.name, sigma, seed) in FULL_GRID_SILENT
                marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                    "ROADMAP item 3: a noisy root level hands its children a wrong "
                    "order with exit 0")) if silent else ()
                yield pytest.param(case, sigma, seed, marks=marks,
                                   id=f"{case.name}-{sigma:g}-seed{seed}")


@pytest.mark.parametrize("case, sigma, seed", _full_grid_cases())
def test_full_grid(case, sigma, seed):
    # the reference grid plus sigma * max|G| * z, z unit complex Gaussian,
    # recovered at the default tol
    grid = case.signal.synthesize(case.P, case.N, FullGrid()).grid()
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)) / np.sqrt(2)
    src = CoefficientSource(case.signal.d, case.P, case.N, FullGrid(),
                            grid + sigma * np.abs(grid).max() * z)
    _assert_correct_or_typed(case.signal, lambda: recover_recursive(src), max(1e-8, 1e4 * sigma))


@functools.lru_cache(maxsize=None)
def _sparse_instances(order):
    """SPARSE_INSTANCES (signal, N, tau) triples drawn in turn from
    default_rng(order): d in 2..6, N in 20..40, tau in 3..6, P = 2."""
    rng = np.random.default_rng(order)
    instances = []
    for _ in range(SPARSE_INSTANCES):
        d, n_half, tau = (int(rng.integers(2, 7)), int(rng.integers(20, 41)),
                          int(rng.integers(3, 7)))
        signal, _ = random_axis_distinct(rng, order, d, tau)
        instances.append((signal, n_half, tau))
    return instances


def _sparse_cases():
    for order in SPARSE_ORDERS:
        for index in range(SPARSE_INSTANCES):
            marks = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
                "ROADMAP item 4: the sparse method returns an inexact result with "
                "exit 0 at M >= 9")) if (order, index) in SPARSE_SILENT else ()
            yield pytest.param(order, index, marks=marks, id=f"M{order}-{index}")


@pytest.mark.parametrize("order, index", _sparse_cases())
def test_sparse_lines(order, index):
    # the eig engine on even instances, the pencil on odd ones
    signal, n_half, tau = _sparse_instances(order)[index]
    src = signal.synthesize(2.0, n_half, SparseLines(tau))
    method = "pencil" if index % 2 else "eig"
    _assert_correct_or_typed(signal, lambda: recover_sparse(src, method=method), SPARSE_TOL)
