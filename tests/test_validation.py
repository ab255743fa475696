"""Tests for the shared input checks."""

import numpy as np
import pytest

from expanal.errors import BadParameters
from expanal.validation import check_distinct


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
