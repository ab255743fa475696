"""Tests for the shared input checks and the typed errors of public entry points."""

import numpy as np
import pytest

from expanal import (
    CoefficientSource,
    ExponentialSum,
    FullGrid,
    PoleTree,
    RecursiveRecovery,
    SparseLines,
    TreeNode,
    leaves_to_sum,
    peel_dimension,
    recover_recursive,
    recover_sparse,
    relative_errors,
)
from expanal.errors import BadParameters, ExpanalError, ShapeMismatch
from expanal.sparse import match_pairs, pairing_system
from expanal.validation import check_distinct

from cases import BIVARIATE_5, TRIVARIATE_6


def distinct_by_loop(values):
    """Reference: every pair compared, one row at a time."""
    arr = np.asarray(values, dtype=complex).ravel()
    return not any(np.any(arr[i + 1:] == arr[i]) for i in range(len(arr)))


class TestCheckDistinct:
    def test_single_element_and_empty(self):
        assert np.array_equal(check_distinct([2.0 + 1j]), [2.0 + 1j])
        assert check_distinct([]).size == 0

    @pytest.mark.parametrize("values", [
        [1.0, 2.0, 1.0],
        [0.5j, -2j, 3.0, 0.5j],
        [0.0, -0.0],
        [1 + 1j, 1 - 1j, 1 + 1j],
    ])
    def test_exact_duplicates(self, values):
        with pytest.raises(BadParameters, match="^poles must be pairwise distinct$"):
            check_distinct(values, "poles")

    def test_returns_flat_complex_input_order(self):
        out = check_distinct([[3.0, 1j], [-1.0, 2.0]])
        assert out.dtype == complex
        assert np.array_equal(out, [3.0, 1j, -1.0, 2.0])

    def test_matches_pairwise_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            n = int(rng.integers(1, 30))
            values = rng.integers(-4, 5, n) + 1j * rng.integers(-4, 5, n)
            values = values + rng.uniform(-0.3, 0.3, n) * rng.integers(0, 2, n)
            try:
                check_distinct(values)
                ok = True
            except BadParameters:
                ok = False
            assert ok == distinct_by_loop(values)


def _tree(*roots):
    """An unvalidated 2-dimensional PoleTree from (pole, [child poles]) pairs."""
    def node(pole, children=()):
        return TreeNode(pole=pole, children=tuple(node(child) for child in children))

    return PoleTree(roots=tuple(node(*root) for root in roots), dimension=2)


def _bivariate_5(coverage):
    case = BIVARIATE_5
    return case.signal.synthesize(case.P, case.N, coverage)


def _leaves_to_sum(tree):
    return leaves_to_sum(tree, _bivariate_5(FullGrid()))


# public entry points that used to end in a bare numpy error, a RuntimeWarning
# or a misleading solver error on these inputs
BOUNDARY_CASES = {
    "match-pairs-no-poles": (lambda: match_pairs([], [], [], [], 3),
                             BadParameters, "need at least one pole"),
    "match-pairs-zero-next-pole": (lambda: match_pairs([1.0, 1.0], [1.0], [0.5j], [0.0], 3),
                                   BadParameters, "next-axis poles must be nonzero"),
    "peel-empty-tail": (lambda: peel_dimension([0.5j], np.ones((11, 0))),
                        ShapeMismatch, "parent slice must be nonempty"),
    "evaluate-3d-points": (lambda: BIVARIATE_5.signal.evaluate(np.ones((2, 2, 2))),
                           ShapeMismatch, "points must be 1-D or 2-D"),
    "ragged-tree": (lambda: _leaves_to_sum(_tree((1j, []), (2j, [3j]))),
                    BadParameters, "leaf at depth 1"),
    "empty-tree": (lambda: _leaves_to_sum(_tree()),
                   BadParameters, "a pole tree needs at least one root"),
    "duplicate-roots": (lambda: _leaves_to_sum(_tree((1j, [2j]), (1j, [3j]))),
                        BadParameters, "root poles must be pairwise distinct"),
    "peel-solution-overflow": (lambda: peel_dimension([50j], 1.5e308 * np.ones((11, 3))),
                               BadParameters, "solution outside the float range"),
    "recursive-str-tol": (lambda: recover_recursive(_bivariate_5(FullGrid()), tol="1e-8"),
                          BadParameters, "tol must be a finite positive real number"),
    "sparse-none-tol": (lambda: recover_sparse(_bivariate_5(SparseLines(7)), tol=None),
                        BadParameters, "tol must be a finite positive real number"),
    "estimator-complex-tol": (
        lambda: RecursiveRecovery(tol=1e-8 + 0j).fit(_bivariate_5(FullGrid())),
        BadParameters, "tol must be a finite positive real number"),
    "str-period": (lambda: CoefficientSource(1, "2.0", 1, FullGrid(), np.ones(3)),
                   BadParameters, "period P must be a finite positive real number"),
    "bool-period": (lambda: BIVARIATE_5.signal.synthesize(True, 3, FullGrid()),
                    BadParameters, "period P must be a finite positive real number"),
    "pairing-solution-overflow": (
        lambda: pairing_system([50j, 1 + 0.3j], [0.2 + 40j, -0.7j],
                               1.5e308 * np.cos(np.arange(-10, 7)), 2),
        BadParameters, "solution outside the float range"),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_public_boundaries_raise_typed_errors(case):
    call, error, message = BOUNDARY_CASES[case]
    with pytest.raises(error, match=message):
        call()


# (case, coverage, largest coefficient) near the float limit: the grids'
# amplitude solves must not overflow, and the sparse signal's coefficients
# (about 1e309) do not fit in a float
NEAR_LIMIT = {
    "bivariate-5-full-1e307": (BIVARIATE_5, FullGrid(), 1e307),
    "trivariate-6-full-1e306": (TRIVARIATE_6, FullGrid(), 1e306),
    "bivariate-5-sparse-1e308": (BIVARIATE_5, SparseLines(BIVARIATE_5.tau), 1e308),
}


@pytest.mark.parametrize("name", sorted(NEAR_LIMIT))
def test_near_limit_amplitudes_end_in_a_result_or_a_typed_error(name):
    # RuntimeWarning is an error in this suite (pyproject.toml)
    case, coverage, top = NEAR_LIMIT[name]
    clean = case.signal.synthesize(case.P, case.N, coverage)
    scale = top / np.abs(clean.values).max()
    source = CoefficientSource(clean.d, case.P, case.N, coverage, clean.values * scale)
    recover = recover_recursive if isinstance(coverage, FullGrid) else recover_sparse
    try:
        signal = recover(source)[0]
    except ExpanalError:
        return
    report = relative_errors(case.signal,
                             ExponentialSum(signal.frequencies, signal.coefficients / scale))
    assert not report.order_mismatch
    assert report.frequency_error <= 1e-8 and report.coefficient_error <= 1e-8
