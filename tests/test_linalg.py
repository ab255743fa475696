"""Tests for the dense linear-algebra contracts."""

import itertools
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from expanal import gen_eig, lstsq, svd
from expanal.errors import BadParameters, IllConditioned, ShapeMismatch
from expanal.linalg import (
    cauchy_lstsq,
    linear_assignment,
    lstsq_with_rank,
)

from cases import random_poles
from oracles import (characteristic_roots, match_complex_sets, rank_one_pseudoinverse,
                     sort_complex)


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


class TestCauchyLstsq:
    """The one solver of sum_j x_j / (k - b_j) = rhs: the line fit's residues,
    the slice peel and the pairing of a shifted diagonal."""

    # fewer equations than poles reads as the ratio 0
    @pytest.mark.parametrize("poles, ratio", [
        (0.3 + 0.5j + 0.7 * np.arange(16), r"0\.000e\+00"),
        (np.array([0.5j, 0.5j + 1e-15]), r"\d\.\d{3}e-\d\d"),
    ], ids=["wide", "close-poles"])
    def test_rank_deficient_refused(self, poles, ratio):
        k = np.arange(-6, 7, dtype=float)
        _, errors, _ = cauchy_lstsq(poles[None], k, np.ones((1, 13), complex), "test system")
        assert list(errors) == [0] and isinstance(errors[0], IllConditioned)
        assert re.search(f"test system .*ratio {ratio} <= 1e-13", str(errors[0]))

    @pytest.mark.parametrize("tail", [(), (3,), (4, 2), "pairing"],
                             ids=["residues", "slices", "slices-2d", "pairing"])
    def test_matches_numpy_lstsq(self, tail):
        rng = np.random.default_rng(31)
        for _ in range(40):
            g, p = int(rng.integers(1, 5)), int(rng.integers(1, 6))
            half = int(rng.integers(p, p + 8))
            if tail == "pairing":
                # the previous axis's poles and the next axis's shifted by 2 tau,
                # on the diagonal's points k = -half..half - 2 tau
                tau = int(rng.integers(2, 6))
                k = np.arange(-half - tau, half - tau + 1, dtype=float)
                b = np.array([np.concatenate([random_poles(rng, p, tau / 2),
                                              random_poles(rng, p, tau / 2) - 2 * tau])
                              for _ in range(g)])
                shape = ()
            else:
                k = np.arange(-half, half + 1, dtype=float)
                b = np.array([random_poles(rng, p, half / 2) for _ in range(g)])
                shape = tail
            rhs = random_complex(rng, (g, len(k)) + shape)
            x, errors, _ = cauchy_lstsq(b, k, rhs, "test system")
            assert errors == {} and x.shape == b.shape + shape
            for row, poles, values in zip(x, b, rhs):
                oracle = np.linalg.lstsq(1.0 / (k[:, None] - poles), values.reshape(len(k), -1),
                                         rcond=None)[0].reshape(row.shape)
                assert np.abs(row - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_refused_rows_leave_the_others_exact(self):
        # 1/(0 - 1e-320j) overflows: that row is refused before the SVD, and
        # with no RuntimeWarning; the close pair fails the rank rule
        k = np.arange(-3, 4, dtype=float)
        b = np.array([[1e-320j, 1.5 + 0.2j], [0.5j, 0.5j + 1e-15], [0.4 + 0.7j, -1.3 + 0.2j]])
        rhs = random_complex(np.random.default_rng(3), (3, 7, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, errors, _ = cauchy_lstsq(b, k, rhs, "test system")
        assert sorted(errors) == [0, 1]
        assert isinstance(errors[0], BadParameters)
        assert "test system has non-finite entries" in str(errors[0])
        assert isinstance(errors[1], IllConditioned)
        assert np.array_equal(x[2], cauchy_lstsq(b[2:], k, rhs[2:], "test system")[0][0])

    def test_returns_the_pseudo_inverses_it_applied(self):
        # the pole tree carries these down its leading levels: a kept row's
        # pinv gives its solution exactly, and a refused row's (the rank rule
        # on row 0, the pole on the sample point 2 on row 2) is finite
        k = np.arange(-3, 4, dtype=float)
        b = np.array([[0.5j, 0.5j + 1e-15], [0.4 + 0.7j, -1.3 + 0.2j],
                      [2.0, 1.5 + 0.2j], [-0.8 - 0.3j, 2.6 + 0.1j]])
        rhs = random_complex(np.random.default_rng(3), (4, 7, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, errors, pinv = cauchy_lstsq(b, k, rhs, "test system")
        assert sorted(errors) == [0, 2] and pinv.shape == (4, 2, 7)
        assert isinstance(errors[0], IllConditioned) and isinstance(errors[2], BadParameters)
        for i in (1, 3):
            assert np.array_equal(pinv[i] @ rhs[i], x[i])
        assert np.isfinite(pinv[[0, 2]]).all()


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
