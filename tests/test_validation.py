"""Tests for the shared input checks and the typed errors of public entry points."""

import numpy as np
import pytest

from expanal import FullGrid, PoleTree, TreeNode, leaves_to_sum, peel_dimension
from expanal.errors import BadParameters, ShapeMismatch
from expanal.sparse import match_pairs
from expanal.validation import check_distinct

from cases import BIVARIATE_5


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


def _leaves_to_sum(tree):
    case = BIVARIATE_5
    return leaves_to_sum(tree, case.signal.synthesize(case.P, case.N, FullGrid()))


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
}


@pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
def test_public_boundaries_raise_typed_errors(case):
    call, error, message = BOUNDARY_CASES[case]
    with pytest.raises(error, match=message):
        call()
