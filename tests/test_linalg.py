"""Tests for the dense linear-algebra contracts."""

import itertools

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from expanal import gen_eig, lstsq, svd
from expanal.errors import BadParameters, IllConditioned, ShapeMismatch
from expanal.linalg import (
    eigh,
    full_rank_svd,
    linear_assignment,
    lstsq_with_rank,
    sort_complex,
)

from oracles import characteristic_roots, match_complex_sets, rank_one_pseudoinverse


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestSvd:
    def test_identity(self):
        _, s, _ = svd(np.eye(3))
        assert np.allclose(s, [1.0, 1.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        _, s, _ = svd(np.zeros((2, 2)))
        assert np.allclose(s, [0.0, 0.0])

    def test_reconstruction_4x2(self):
        rng = np.random.default_rng(7)
        a = random_complex(rng, (4, 2))
        u, s, v = svd(a)
        back = u @ np.diag(s) @ v.conj().T
        assert np.abs(back - a).max() <= 1e-12 * np.abs(a).max()

    def test_descending_and_orthonormal(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, (6, 4))
        u, s, v = svd(a)
        assert np.all(np.diff(s) <= 0)
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-12)

    def test_reconstruction_up_to_64(self):
        rng = np.random.default_rng(9)
        for n in (8, 33, 64):
            a = random_complex(rng, (n, n))
            u, s, v = svd(a)
            err = np.linalg.norm(u @ np.diag(s) @ v.conj().T - a)
            assert err <= 1e-12 * np.linalg.norm(a)

    def test_rejects_nonfinite(self):
        with pytest.raises(BadParameters):
            svd([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ShapeMismatch):
            svd(np.zeros((0, 3)))


class TestLstsq:
    def test_identity_system(self):
        x = lstsq(np.eye(3), [1.0, 2j, -1.0])
        assert np.allclose(x, [1.0, 2j, -1.0], atol=1e-14)

    def test_consistent_overdetermined(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, (4, 2))
        x0 = random_complex(rng, 2)
        x = lstsq(a, a @ x0)
        assert np.abs(x - x0).max() <= 1e-12

    def test_rank_one_min_norm(self):
        rng = np.random.default_rng(12)
        left = random_complex(rng, 2)
        right = random_complex(rng, 2)
        scale = 1.7 - 0.4j
        a = scale * np.outer(left, right.conj())
        b = random_complex(rng, 2)
        expected = rank_one_pseudoinverse(scale, left, right) @ b
        assert np.abs(lstsq(a, b) - expected).max() <= 1e-12

    def test_residual_optimality(self):
        rng = np.random.default_rng(13)
        a = random_complex(rng, (6, 4))
        b = random_complex(rng, 6)
        x = lstsq(a, b)
        base = np.linalg.norm(a @ x - b)
        for _ in range(100):
            step = random_complex(rng, 4)
            step /= np.linalg.norm(step)
            moved = np.linalg.norm(a @ (x + 1e-6 * step) - b)
            assert moved >= base - 1e-14

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            lstsq(np.eye(3), [1.0, 2.0])

    def test_rank_reporting(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        _, rank = lstsq_with_rank(a, [1.0, 2.0])
        assert rank == 1


class TestFullRankSvd:
    # a missing or zero singular value reads as the ratio 0
    @pytest.mark.parametrize("a, ratio", [
        (np.ones((2, 3)), r"0\.000e\+00"),
        (np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]), r"\d\.\d{3}e-\d\d"),
        (np.zeros((3, 2)), r"0\.000e\+00"),
    ], ids=["wide", "dependent-columns", "zero"])
    def test_rank_deficient_raises(self, a, ratio):
        with pytest.raises(IllConditioned, match=f"test matrix .*ratio {ratio} <= 1e-13"):
            full_rank_svd(a, "test matrix")

    def test_full_rank_returns_svd(self):
        a = random_complex(np.random.default_rng(11), (6, 4))
        for got, want in zip(full_rank_svd(a, "test matrix"), svd(a)):
            assert got.tobytes() == want.tobytes()


class TestEigh:
    def test_reconstruction_ascending(self):
        rng = np.random.default_rng(8)
        b = random_complex(rng, (5, 5))
        a = b.conj().T @ b
        w, v = eigh(a)
        assert np.all(np.diff(w) >= 0)
        assert np.abs(v @ np.diag(w) @ v.conj().T - a).max() <= 1e-12 * np.abs(a).max()

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeMismatch):
            eigh(np.ones((2, 3)))


class TestGenEig:
    def test_diagonal_pencil(self):
        eig = gen_eig(np.diag([1.0, 2.0]))
        assert np.allclose(sort_complex(eig), [1.0, 2.0], atol=1e-12)

    def test_against_characteristic_roots(self):
        # the pencil engine's use: the pencil (a, diag(s)) as a row scaling
        rng = np.random.default_rng(17)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        s = rng.uniform(0.5, 4.0, 5)
        eig = gen_eig(a / s[:, None])
        assert np.isfinite(eig).all()
        expected = characteristic_roots(np.linalg.solve(np.diag(s), a))
        assert match_complex_sets(eig, expected) <= 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gen_eig(np.ones((2, 3)))

    def test_default_b_is_identity(self):
        # one matrix a is the pencil (a, I)
        rng = np.random.default_rng(19)
        a = random_complex(rng, (6, 6))
        assert match_complex_sets(gen_eig(a), np.linalg.eigvals(a)) <= 1e-12


def brute_force_assignment(cost):
    """Least total cost over every injection of the shorter side."""
    m, n = cost.shape
    if m <= n:
        return min(cost[np.arange(m), list(p)].sum()
                   for p in itertools.permutations(range(n), m))
    return brute_force_assignment(cost.T)


class TestLinearAssignment:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 4), (3, 3), (4, 6), (6, 4), (7, 7), (5, 7)])
    def test_brute_force(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for ties in (False, True):
            cost = (rng.integers(0, 3, shape).astype(float) if ties
                    else rng.standard_normal(shape))
            rows, cols = linear_assignment(cost)
            assert len(rows) == min(shape)
            assert np.array_equal(rows, np.sort(rows))
            assert len(set(rows)) == len(set(cols)) == min(shape)
            assert abs(cost[rows, cols].sum() - brute_force_assignment(cost)) <= 1e-12

    def test_constant_cost(self):
        rows, cols = linear_assignment(np.ones((4, 4)))
        assert np.array_equal(rows, np.arange(4)) and sorted(cols) == [0, 1, 2, 3]

    @pytest.mark.parametrize("shape", [(10, 10), (40, 25), (60, 90), (200, 150)])
    def test_against_scipy(self, shape):
        rng = np.random.default_rng(sum(shape))
        cost = rng.uniform(-1.0, 5.0, shape)
        rows, cols = linear_assignment(cost)
        ref_rows, ref_cols = linear_sum_assignment(cost)
        assert np.array_equal(rows, ref_rows)
        assert abs(cost[rows, cols].sum() - cost[ref_rows, ref_cols].sum()) <= 1e-9

    def test_rejects_bad_input(self):
        with pytest.raises(ShapeMismatch):
            linear_assignment(np.ones(3))
        with pytest.raises(BadParameters):
            linear_assignment([[1.0, np.inf], [0.0, 1.0]])
