"""Independent oracles the tests check the library against.

Each oracle takes a computational route disjoint from the implementation it
verifies: adaptive quadrature instead of the closed coefficient formula,
characteristic-polynomial roots instead of QZ, exhaustive permutation search
instead of the assignment solver, explicit rank-one pseudoinverses, and a
dense least squares design instead of the separable normal system.
"""

import itertools

import numpy as np
import scipy.integrate


def box_quadrature_coefficient(signal, k, P):
    """Fourier coefficient by adaptive quadrature over the full box (d <= 2)."""
    freq = [list(row) for row in signal.frequencies]
    coef = list(signal.coefficients)
    k = [int(x) for x in np.asarray(k).ravel()]
    w = -2j * np.pi / P

    if signal.d == 1:
        def fun(t):
            val = 0j
            for gamma, row in zip(coef, freq):
                val += gamma * np.exp(row[0] * t)
            return val * np.exp(w * k[0] * t)

        re = scipy.integrate.quad(lambda t: fun(t).real, 0, P,
                                  epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        im = scipy.integrate.quad(lambda t: fun(t).imag, 0, P,
                                  epsabs=1e-11, epsrel=1e-11, limit=400)[0]
        return complex(re, im) / P

    if signal.d == 2:
        def fun(x, y):
            val = 0j
            for gamma, row in zip(coef, freq):
                val += gamma * np.exp(row[0] * x + row[1] * y)
            return val * np.exp(w * (k[0] * x + k[1] * y))

        re = scipy.integrate.dblquad(lambda y, x: fun(x, y).real, 0, P, 0, P,
                                     epsabs=1e-10, epsrel=1e-10)[0]
        im = scipy.integrate.dblquad(lambda y, x: fun(x, y).imag, 0, P, 0, P,
                                     epsabs=1e-10, epsrel=1e-10)[0]
        return complex(re, im) / P ** 2

    raise ValueError("full-box quadrature oracle supports d <= 2 only")


def factor_quadrature_coefficient(signal, k, P):
    """Fourier coefficient with each axis factor integrated numerically.

    Scales to any dimension; complements the full-box oracle, which also
    exercises the separability of the integral.
    """
    k = np.asarray(k).ravel()
    total = 0j
    for gamma, row in zip(signal.coefficients, signal.frequencies):
        product = complex(gamma)
        for axis in range(signal.d):
            rate = row[axis] - 2j * np.pi * k[axis] / P

            def fun(t, rate=rate):
                return np.exp(rate * t)

            re = scipy.integrate.quad(lambda t: fun(t).real, 0, P,
                                      epsabs=1e-12, epsrel=1e-12, limit=400)[0]
            im = scipy.integrate.quad(lambda t: fun(t).imag, 0, P,
                                      epsabs=1e-12, epsrel=1e-12, limit=400)[0]
            product *= complex(re, im) / P
        total += product
    return total


def dense_amplitude_coefficients(poles, grid, P):
    """Signal coefficients of the full-grid amplitude fit by dense least squares.

    Builds the whole (grid x M) design A[k, j] = prod_a 1/(k_a - poles[j, a])
    and solves it with numpy's SVD-based lstsq, then maps amplitudes to
    coefficients as the recursive method does.
    """
    poles = np.asarray(poles, dtype=complex)
    m, d = poles.shape
    n_half = (grid.shape[0] - 1) // 2
    k = np.arange(-n_half, n_half + 1, dtype=float)
    mesh = np.meshgrid(*([k] * d), indexing="ij")
    design = np.ones((grid.size, m), dtype=complex)
    for axis in range(d):
        design /= mesh[axis].reshape(-1, 1) - poles[None, :, axis]
    amplitudes = np.linalg.lstsq(design, np.ravel(grid), rcond=None)[0]
    frequencies = 2j * np.pi * poles / P
    return amplitudes * (2j * np.pi) ** d / np.prod(1.0 - np.exp(frequencies * P), axis=1)


def characteristic_roots(a):
    """Eigenvalues as roots of the characteristic polynomial.

    Coefficients come from the Faddeev-LeVerrier recursion (matrix products
    and traces only); the roots are then read off a companion matrix.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    coeffs = np.empty(n + 1, dtype=complex)
    coeffs[0] = 1.0
    work = np.zeros_like(a)
    c = 1.0 + 0j
    for k in range(1, n + 1):
        work = a @ work + c * np.eye(n)
        c = -np.trace(a @ work) / k
        coeffs[k] = c
    return np.roots(coeffs)


def rank_one_pseudoinverse(scale, left, right):
    """Pseudoinverse of scale * outer(left, right.conj()) in closed form."""
    left = np.asarray(left, dtype=complex)
    right = np.asarray(right, dtype=complex)
    ln = np.linalg.norm(left)
    rn = np.linalg.norm(right)
    c = scale * ln * rn
    return np.outer(right / rn, (left / ln).conj()) / c


def brute_force_pairing(c, coeffs_prev, poles_prev, poles_next, tau):
    """Exhaustive minimal-violation pairing (orders up to 6!).

    Violations follow the matching conditions directly: the two partial
    fraction coefficients must cancel, and the previous-axis coefficient must
    equal c1 + c2*b1/b2 - 2*tau*c1/b2 for the matched pole pair.
    """
    m = len(poles_prev)
    c1, c2 = c[:m], c[m:]
    c_scale = max(abs(x) for x in c)
    a_scale = max(abs(x) for x in coeffs_prev)
    best, best_perm = np.inf, None
    for perm in itertools.permutations(range(m)):
        total = 0.0
        for j, k in enumerate(perm):
            total += abs(c1[j] + c2[k]) / c_scale
            predicted = (c1[j] + c2[k] * poles_prev[j] / poles_next[k]
                         - 2 * tau * c1[j] / poles_next[k])
            total += abs(coeffs_prev[j] - predicted) / a_scale
        if total < best:
            best, best_perm = total, perm
    return np.array(best_perm, dtype=int)


def match_complex_sets(first, second):
    """Greedy min-distance matching; returns max matched distance."""
    first = np.asarray(first, dtype=complex).ravel()
    second = np.asarray(second, dtype=complex).ravel()
    assert len(first) == len(second)
    dist = np.abs(first[:, None] - second[None, :])
    worst = 0.0
    work = dist.copy()
    for _ in range(len(first)):
        i, j = np.unravel_index(np.argmin(work), work.shape)
        worst = max(worst, dist[i, j])
        work[i, :] = np.inf
        work[:, j] = np.inf
    return worst
