"""Tests for the dense linear-algebra contracts."""

import numpy as np
import pytest

from expanal import gen_eig, lstsq, svd
from expanal.errors import BadParameters, ShapeMismatch
from expanal.linalg import eigh, lstsq_with_rank, sort_complex

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

    def test_rcond_range(self):
        with pytest.raises(BadParameters):
            lstsq(np.eye(2), [1.0, 2.0], rcond=0.0)

    def test_rank_reporting(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        _, rank = lstsq_with_rank(a, [1.0, 2.0])
        assert rank == 1


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
        eig = gen_eig(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(sort_complex(eig), [1.0, 2.0], atol=1e-12)

    def test_arrowhead_two_point(self):
        # denominator weights (1, 1) on support {0, 1}: the single finite
        # eigenvalue sits halfway by symmetry
        a = np.array([[0, 1, 1], [1, 0, 0], [1, 0, 1]], dtype=complex)
        b = np.eye(3, dtype=complex)
        b[0, 0] = 0.0
        eig = gen_eig(a, b)
        finite = eig[np.isfinite(eig)]
        assert len(finite) == 1
        assert abs(finite[0] - 0.5) <= 1e-12
        assert np.sum(~np.isfinite(eig)) == 2

    def test_against_characteristic_roots(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + np.eye(5) * 4.0
        eig = gen_eig(a, b)
        assert np.isfinite(eig).all()
        expected = characteristic_roots(np.linalg.solve(b, a))
        assert match_complex_sets(eig, expected) <= 1e-8

    def test_identity_b_matches_standard(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        eig = gen_eig(a, np.eye(8))
        assert match_complex_sets(eig, np.linalg.eigvals(a)) <= 1e-10

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gen_eig(np.eye(2), np.eye(3))
        with pytest.raises(ShapeMismatch):
            gen_eig(np.ones((2, 3)), np.ones((2, 3)))
