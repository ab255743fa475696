"""Exponential-sum signals, their Fourier coefficients, and reconstruction metrics.

A signal is a finite sum of complex multivariate exponentials.  Its Fourier
coefficients over a period box follow a closed product formula, which this
module evaluates exactly; recovery code consumes those coefficients through a
CoefficientSource that declares which integer indices are covered (a full grid
or a set of index lines) and holds their values in one array, in
lexicographic index order.  SparseLines alone knows the line geometry: where
each line's values sit in that array.

Both the signal and its coefficients are sums of M separable terms: term j is
a weight times a product of one univariate factor per axis.  _SeparableSum
holds one factor table per axis and contracts those tables against the term
weights, so grid synthesis and the signal error cost O(size of the grid) time
and memory and never form a (grid x M) array.
"""

import base64
from dataclasses import dataclass
import functools
import numpy as np

from .errors import (
    BadParameters,
    CoverageMismatch,
    DegenerateFrequency,
    ShapeMismatch,
)
from .linalg import linear_assignment
from .validation import _positive_int, check_nonnegative_int, check_period

TWO_PI_I = 2j * np.pi

# rows per block of evaluate and _SeparableSum.at, small enough that a
# block's (rows x M) arrays stay in cache
_EVAL_CHUNK = 1 << 12

# the wire format's values: little-endian complex128 bytes in base64, which
# _wire_values decodes _EVAL_CHUNK base64 quads (3 bytes each) at a time
_WIRE_DTYPE = "<c16"
_WIRE_BLOCK = 3 * _EVAL_CHUNK

# |frequency*P - 2*pi*i*k| below this (relative) uses the constant branch of
# the coefficient formula; see fourier_coefficient.
_DEGENERATE_BRANCH_RTOL = 1e-14

# Guard tolerance for refusing synthesis of signals whose frequencies sit on
# (or numerically at) a sampled index.
_DEGENERATE_GUARD_TOL = 1e-9

# the lattice of relative_errors' signal error (subsampled beyond the cap)
SIGNAL_BOX = (-10.0, 10.0)
SIGNAL_POINTS_PER_AXIS = 51
MAX_SIGNAL_POINTS = 2_000_000


@dataclass(frozen=True)
class ExponentialSum:
    """Finite sum of complex exponentials gamma_j * exp(<row_j, t>).

    frequencies: (M, d) complex array, one frequency vector per term.
    coefficients: (M,) nonzero complex weights.
    """

    frequencies: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self):
        freq = np.atleast_2d(np.asarray(self.frequencies, dtype=complex))
        coef = np.asarray(self.coefficients, dtype=complex).ravel()
        if freq.ndim != 2 or freq.shape[0] != coef.shape[0]:
            raise ShapeMismatch(
                f"need one coefficient per frequency row, got {freq.shape} and {coef.shape}"
            )
        if freq.shape[0] < 1:
            raise BadParameters("at least one term required")
        if not (np.isfinite(freq).all() and np.isfinite(coef).all()):
            raise BadParameters("frequencies and coefficients must be finite")
        if np.any(coef == 0):
            raise BadParameters("coefficients must be nonzero")
        # only the diagonal matches when the rows are pairwise distinct
        if np.count_nonzero((freq[:, None] == freq[None]).all(axis=2)) != freq.shape[0]:
            raise BadParameters("frequency rows must be pairwise distinct")
        freq = freq.copy()
        coef = coef.copy()
        freq.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "coefficients", coef)

    @classmethod
    def from_poles(cls, poles, amplitudes, P):
        """The signal whose coefficients are sum_j amplitudes[j] * prod_a
        1/(k_a - poles[j, a]): the inverse of the coefficient formula, for an
        (M, d) matrix of index-domain poles."""
        poles = np.asarray(poles, dtype=complex)
        frequencies = TWO_PI_I * poles / P
        with np.errstate(over="ignore", invalid="ignore"):
            coefficients = (
                amplitudes * TWO_PI_I ** poles.shape[1]
                / np.prod(1.0 - np.exp(frequencies * P), axis=1)
            )
        if not np.isfinite(coefficients).all():
            raise BadParameters("the coefficients of these amplitudes do not fit in a float")
        return cls(frequencies, coefficients)

    @property
    def d(self):
        return self.frequencies.shape[1]

    @property
    def order(self):
        return self.frequencies.shape[0]

    def evaluate(self, t):
        """Evaluate the signal at a point (d,) or an array of points (n, d)."""
        pts = np.asarray(t, dtype=float)
        if pts.ndim > 2:
            raise ShapeMismatch(f"points must be 1-D or 2-D, got ndim={pts.ndim}")
        scalar = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[1] != self.d:
            raise ShapeMismatch(f"points must have {self.d} coordinates, got {pts.shape[1]}")
        if not np.isfinite(pts).all():
            raise BadParameters("evaluation points must be finite")
        out = np.empty(pts.shape[0], dtype=complex)
        for start in range(0, pts.shape[0], _EVAL_CHUNK):
            block = pts[start:start + _EVAL_CHUNK]
            out[start:start + _EVAL_CHUNK] = np.exp(block @ self.frequencies.T) @ self.coefficients
        return complex(out[0]) if scalar else out

    def fourier_coefficient(self, k, P):
        """Exact Fourier coefficient over [0, P]^d at integer multi-index k.

        Each axis contributes the factor (exp(f*P) - 1)/(f*P - 2*pi*i*k); when
        f*P coincides with 2*pi*i*k the factor degenerates to the constant 1.
        The value is bitwise identical to the same index of a synthesized grid.
        """
        idx = np.asarray(k, dtype=int).ravel()
        if idx.shape[0] != self.d:
            raise ShapeMismatch(f"index must have {self.d} entries, got {idx.shape[0]}")
        return complex(self.fourier_coefficients(idx[None, :], P)[0])

    def fourier_coefficients(self, indices, P):
        """Exact Fourier coefficients at the rows of an (n, d) integer index array."""
        check_period(P)
        idx = np.asarray(indices, dtype=int)
        if idx.ndim != 2 or idx.shape[1] != self.d:
            raise ShapeMismatch(f"indices must be an (n, {self.d}) array, got shape {idx.shape}")
        if idx.shape[0] == 0:
            return np.empty(0, dtype=complex)
        low = idx.min(axis=0)
        spans = [np.arange(lo, hi + 1) for lo, hi in zip(low, idx.max(axis=0))]
        return self._coefficient_terms(P, spans).at(idx - low, self.coefficients)

    def _coefficient_terms(self, P, axis_indices):
        """The coefficient formula as separable terms: one factor table per
        axis, with rows at that axis's integer indices."""
        freq_p = self.frequencies * P
        growth = np.exp(freq_p) - 1.0
        tables = []
        for axis, k in enumerate(axis_indices):
            fp = freq_p[None, :, axis]
            denom = fp - TWO_PI_I * np.asarray(k)[:, None]
            degenerate = np.abs(denom) <= _DEGENERATE_BRANCH_RTOL * (1.0 + np.abs(fp))
            tables.append(np.where(
                degenerate,
                1.0 + 0.0j,
                growth[None, :, axis] / np.where(degenerate, 1.0, denom),
            ))
        return _SeparableSum(tables)

    def synthesize(self, P, N, coverage):
        """Tabulate Fourier coefficients on the requested index coverage.

        Refuses signals with a frequency satisfying f = 2*pi*i*k/P for some
        sampled |k| <= N: such coefficients lose their rational structure and
        are outside the recovery scope.  The values are computed into one
        fresh array, which the returned source keeps (read-only) without a
        copy: a full grid costs one grid of memory, not two.  A full grid
        that cannot be allocated raises BadParameters with its shape and
        byte count.
        """
        check_period(P)
        if N < 1:
            raise BadParameters("index half-width N must be >= 1")
        if isinstance(coverage, str):
            coverage = parse_coverage(coverage)
        offenders = self.degenerate_components(P, N)
        if offenders:
            j, axis, k = offenders[0]
            raise DegenerateFrequency(
                f"frequency[{j},{axis}] equals 2*pi*i*{k}/P; coefficients on the "
                f"sampled box are not rational in the index"
            )
        if isinstance(coverage, FullGrid):
            axes = [np.arange(-N, N + 1)] * self.d
            try:
                values = self._coefficient_terms(P, axes).grid(self.coefficients)
            except (MemoryError, ValueError) as exc:
                # numpy raises ValueError for a size past its index range
                shape = (2 * N + 1,) * self.d
                raise BadParameters(
                    f"a full grid of shape {shape} needs {16 * (2 * N + 1) ** self.d} "
                    f"bytes, which cannot be allocated"
                ) from exc
        elif isinstance(coverage, SparseLines):
            values = self.fourier_coefficients(coverage.unique_indices(self.d, N), P)
        else:
            raise BadParameters(f"unknown coverage {coverage!r}")
        return CoefficientSource._owning(self.d, P, N, coverage, values)

    def degenerate_components(self, P, N):
        """(term, axis, index) triples where a frequency hits a sampled index."""
        b = self.frequencies * (P / TWO_PI_I)
        nearest = np.round(b.real)
        hit = (np.abs(b - nearest) <= _DEGENERATE_GUARD_TOL) & (np.abs(nearest) <= N)
        out = []
        for j, axis in zip(*np.nonzero(hit)):
            out.append((int(j), int(axis), int(nearest[j, axis])))
        return out


class _SeparableSum:
    """A sum of M separable terms on a product index set.

    F[k_0, ..., k_{d-1}] = sum_j w_j * prod_a tables[a][k_a, j]

    Each axis holds one (n_a, M) factor table.  Read as a design matrix,
    A[k, j] = prod_a tables[a][k_a, j] is the Khatri-Rao product of the tables
    (axis 0 slowest).  Both methods work through the products of two halves
    of the axes (_halves): `grid` on the whole product index set (coefficient
    synthesis), `at` on chosen rows (coefficient lookup, the lattice of the
    signal error).  Neither forms A or any other (grid x M) array.
    """

    def __init__(self, tables):
        self.tables = tables

    def grid(self, weights):
        """F on the whole product grid, shape (n_0, ..., n_{d-1}), by one
        two-operand einsum of the weighted halves: unlike a matmul, it sums
        each entry's terms in order, so `at` matches it bitwise.

        The einsum writes into a 2-D view of the result, which is allocated
        once in its final shape, before the halves: a grid too large to
        allocate fails before any work.  The caller owns it, and no other
        reference to it exists.
        """
        out = np.empty(tuple(table.shape[0] for table in self.tables), dtype=complex)
        tables, weights = _with_two_terms(self.tables, weights)
        left, right = _halves(tables)
        np.einsum("xz,yz->xy", left * weights, right,
                  out=out.reshape(left.shape[0], right.shape[0]))
        return out

    def at(self, rows, weights):
        """F at the rows of an (n, d) array of table row numbers, in bounded
        blocks: each row's halves, multiplied in _halves' order, as in `grid`."""
        tables, weights = _with_two_terms(self.tables, weights)
        split = len(tables) // 2
        out = np.empty(rows.shape[0], dtype=complex)
        for start in range(0, rows.shape[0], _EVAL_CHUNK):
            block = rows[start:start + _EVAL_CHUNK]
            gathered = [table[block[:, axis]] for axis, table in enumerate(tables)]
            left = functools.reduce(_multiply_into, gathered[:split] + [weights])
            right = functools.reduce(_multiply_into, gathered[split:])
            out[start:start + _EVAL_CHUNK] = np.einsum("...z,...z->...", left, right)
        return out


def _halves(tables):
    """Khatri-Rao products of the leading and the trailing half of the axes."""
    split = len(tables) // 2
    terms = tables[0].shape[1]
    return _khatri_rao(tables[:split], terms), _khatri_rao(tables[split:], terms)


def _with_two_terms(tables, weights):
    """The tables and weights, a zero term after a lone one: numpy's complex
    multiply rounds apart on its SIMD and plain loops, and only a term axis of
    length 2 or more puts every product of `grid` and `at` on the same loop."""
    if len(weights) > 1:
        return tables, weights
    return [np.pad(table, ((0, 0), (0, 1))) for table in tables], np.append(weights, 0)


def _multiply_into(product, factor):
    """product *= factor; `at` builds its row products in its fresh gathers."""
    return np.multiply(product, factor, out=product)


def _khatri_rao(tables, terms):
    """Row-wise Kronecker product of (n_a, terms) tables, first table slowest."""
    out = np.ones((1, terms), dtype=complex)
    for table in tables:
        out = (out[:, None, :] * table[None, :, :]).reshape(-1, terms)
    return out


# ---------------------------------------------------------------------------
# Index coverage


def axis_line_indices(d, N, axis):
    """Indices (0,...,k,...,0) with k on the given axis, k = -N..N."""
    if not 0 <= axis < d:
        raise BadParameters(f"axis must be in 0..{d - 1}, got {axis}")
    k = np.arange(-N, N + 1)
    line = np.zeros((k.size, d), dtype=int)
    line[:, axis] = k
    return line

def diagonal_line_indices(d, N, tau, axis):
    """Indices (0,...,k,k+2*tau,...,0) with k at axis-1 and k+2*tau at axis."""
    if not 1 <= axis < d:
        raise BadParameters(f"diagonal axis must be in 1..{d - 1}, got {axis}")
    if not 1 <= tau < N:
        raise BadParameters(f"need 1 <= tau < N, got tau={tau}, N={N}")
    k = np.arange(-N, N - 2 * tau + 1)
    line = np.zeros((k.size, d), dtype=int)
    line[:, axis - 1] = k
    line[:, axis] = k + 2 * tau
    return line


@dataclass(frozen=True)
class FullGrid:
    """Every integer index in [-N, N]^d."""

    def descriptor(self):
        return "full"

    def counted_samples(self, d, N):
        return (2 * N + 1) ** d


@dataclass(frozen=True)
class SparseLines:
    """The 2d-1 index lines of the line-based recovery: d coordinate axes plus
    d-1 diagonals shifted by 2*tau."""

    tau: int

    def __post_init__(self):
        object.__setattr__(self, "tau", _positive_int(self.tau, "tau"))

    def descriptor(self):
        return f"sparse:{self.tau}"

    def counted_samples(self, d, N):
        # per-line accounting; the origin is shared by all axis lines
        return d * (2 * N + 1) + (d - 1) * (2 * N + 1 - 2 * self.tau)

    def line_indices(self, d, N):
        """("axis" or "diagonal", (n, d) index array) pairs, axes first.

        The one owner of the line geometry: d axis lines of 2N+1 indices and
        d-1 diagonals of 2N+1-2*tau.  Needs d >= 1 and tau < N.
        """
        if d < 1:
            raise BadParameters(f"dimension must be >= 1, got {d}")
        if self.tau >= N:
            raise BadParameters(f"need tau < N, got tau={self.tau}, N={N}")
        lines = [("axis", axis_line_indices(d, N, m)) for m in range(d)]
        lines += [
            ("diagonal", diagonal_line_indices(d, N, self.tau, m))
            for m in range(1, d)
        ]
        return lines

    def layout(self, d, N):
        """(rows, positions): where each line's values sit in the stored array.

        rows is the (n, d) array of the covered indices, each once, in
        lexicographic order; positions maps ("axis", m) and ("diagonal", m)
        to the row number of each index of that line, in line order.
        """
        lines = self.line_indices(d, N)
        rows, inverse = np.unique(np.concatenate([line for _, line in lines]),
                                  axis=0, return_inverse=True)
        keys = [("axis", m) for m in range(d)] + [("diagonal", m) for m in range(1, d)]
        ends = np.cumsum([len(line) for _, line in lines])[:-1]
        return rows, dict(zip(keys, np.split(inverse.ravel(), ends)))

    def unique_indices(self, d, N):
        """The covered indices, each once, as an (n, d) array in lexicographic order."""
        return self.layout(d, N)[0]


def parse_coverage(text):
    """Parse a coverage descriptor: "full" or "sparse:TAU"."""
    if not isinstance(text, str):
        raise BadParameters(f"coverage descriptor must be a string, got {text!r}")
    if text == "full":
        return FullGrid()
    if text.startswith("sparse:"):
        try:
            tau = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise BadParameters(f"bad coverage descriptor {text!r}") from exc
        return SparseLines(tau)
    raise BadParameters(f"bad coverage descriptor {text!r}")


class CoefficientSource:
    """Fourier coefficients addressable by integer multi-index.

    One read-only array, `values`, holds the coefficients in lexicographic
    index order whatever the coverage: the dense (2N+1)^d grid for FullGrid
    (index k at position k+N on each axis), or a flat array over the covered
    indices of SparseLines, each index once (SparseLines.layout).

    The source owns `values`.  The constructor copies the caller's array, so
    later changes to it do not reach the source; ExponentialSum.synthesize
    and source_from_json build a fresh array and hand it over uncopied.
    """

    def __init__(self, d, P, N, coverage, values):
        self._store(d, P, N, coverage, np.array(values, dtype=complex))

    @classmethod
    def _owning(cls, d, P, N, coverage, values):
        """A source that keeps `values`, a fresh complex array that no one
        else holds, instead of a copy of it."""
        source = cls.__new__(cls)
        source._store(d, P, N, coverage, values)
        return source

    def _store(self, d, P, N, coverage, values):
        """Check the parameters and the complex `values` against each other,
        then keep `values`, made read-only."""
        check_period(P)
        self.d = _positive_int(d, "dimension d")
        self.P = float(P)
        self.N = _positive_int(N, "index half-width N")
        self.coverage = coverage
        if isinstance(coverage, FullGrid):
            self._rows = self._lines = None  # a full grid is indexed by position
            shape = (2 * self.N + 1,) * self.d
        elif isinstance(coverage, SparseLines):
            self._rows, self._lines = coverage.layout(self.d, self.N)
            shape = (len(self._rows),)
        else:
            raise BadParameters(f"unknown coverage {coverage!r}")
        if values.shape != shape:
            raise ShapeMismatch(
                f"values of shape {values.shape} do not match {coverage.descriptor()} "
                f"coverage with N={self.N}, d={self.d}: need {shape}"
            )
        if not np.isfinite(values).all():
            raise BadParameters("coefficient values must be finite")
        values.setflags(write=False)
        self.values = values

    @property
    def counted_samples(self):
        """Sample count with the per-line accounting (shared indices recounted)."""
        return self.coverage.counted_samples(self.d, self.N)

    def value(self, k):
        """Coefficient at index k; KeyError if k is outside the coverage."""
        idx = np.asarray(k, dtype=int).ravel()
        if len(idx) != self.d:
            raise ShapeMismatch(f"index must have {self.d} entries")
        if np.abs(idx).max() <= self.N:
            if self._rows is None:
                return complex(self.values[tuple(idx + self.N)])
            hit = np.flatnonzero((self._rows == idx).all(axis=1))
            if hit.size:
                return complex(self.values[hit[0]])
        raise KeyError(tuple(int(x) for x in idx))

    def axis_line(self, axis):
        """Values on the coordinate-axis line, k = -N..N."""
        if self._lines is None:
            line = axis_line_indices(self.d, self.N, axis)
            return self.values[tuple((line + self.N).T)]
        return self._line("axis", axis)

    def diagonal_line(self, axis):
        """Values on the shifted diagonal pairing axes (axis-1, axis)."""
        if self._lines is None:
            raise CoverageMismatch("a full grid holds no diagonal lines")
        return self._line("diagonal", axis)

    def _line(self, kind, axis):
        positions = self._lines.get((kind, axis))
        if positions is None:
            raise BadParameters(f"no {kind} line {axis} at d={self.d}")
        return self.values[positions]

    def grid(self):
        """The dense (2N+1)^d value array (full coverage only)."""
        if self._lines is not None:
            raise CoverageMismatch("source does not hold a full grid")
        return self.values


# ---------------------------------------------------------------------------
# Reconstruction metrics


@dataclass(frozen=True)
class ErrorReport:
    """Relative reconstruction errors after matching rows between two signals."""

    frequency_error: float
    coefficient_error: float
    signal_error: float
    matched_permutation: tuple
    truth_order: int
    recovered_order: int

    def __post_init__(self):
        for name in ("frequency_error", "coefficient_error", "signal_error"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise BadParameters(f"{name} must be nonnegative and finite, got {v}")

    @property
    def order_mismatch(self):
        return self.truth_order != self.recovered_order


def _match_rows(truth_freq, rec_freq):
    """Row assignment of least total frequency-row distance, as an injection.

    Truth rows left unmatched (when the orders differ) map to None.
    """
    dist = np.linalg.norm(truth_freq[:, None, :] - rec_freq[None, :, :], axis=2)
    perm = [None] * truth_freq.shape[0]
    for i, j in zip(*linear_assignment(dist)):
        perm[i] = int(j)
    return perm


def relative_errors(truth, recovered, seed=0):
    """Relative errors between a reference signal and a reconstruction.

    Rows are matched first by an optimal assignment on the frequency-row
    distances, so the metrics are invariant under row permutations of either
    input.  The signal error is the sup-norm misfit over the equispaced
    lattice of SIGNAL_POINTS_PER_AXIS points per axis in SIGNAL_BOX,
    subsampled (seeded) when the lattice exceeds MAX_SIGNAL_POINTS.
    """
    check_nonnegative_int(seed, "seed")
    if truth.d != recovered.d:
        raise ShapeMismatch(f"dimension mismatch: {truth.d} vs {recovered.d}")
    perm = _match_rows(truth.frequencies, recovered.frequencies)
    matched = [(i, j) for i, j in enumerate(perm) if j is not None]
    ti = np.array([i for i, _ in matched], dtype=int)
    rj = np.array([j for _, j in matched], dtype=int)

    t, r = truth.frequencies, recovered.frequencies
    f, g = _lattice_values((truth, recovered), seed)
    # |f| and |f - g| are inf, without a warning, where they exceed a float
    with np.errstate(over="ignore", invalid="ignore"):
        size, misfit = np.abs(f), np.abs(f - g)
    for name, values in (("truth", size), ("recovered", g)):
        if not np.isfinite(values).all():
            raise BadParameters(
                f"the {name} signal overflows a float on the error lattice "
                f"over SIGNAL_BOX = {SIGNAL_BOX} per axis"
            )
    if not np.isfinite(misfit).all():
        raise BadParameters(
            "the truth and recovered signals differ by more than a float holds on the "
            f"error lattice over SIGNAL_BOX = {SIGNAL_BOX} per axis"
        )
    return ErrorReport(
        frequency_error=max(_relative(t[ti, a] - r[rj, a], t[:, a]) for a in range(truth.d)),
        coefficient_error=_relative(truth.coefficients[ti] - recovered.coefficients[rj],
                                    truth.coefficients),
        signal_error=_relative(misfit, size),
        matched_permutation=tuple(perm),
        truth_order=truth.order,
        recovered_order=recovered.order,
    )


def _relative(error, reference):
    """max|error| / max|reference|, or max|error| against a zero reference."""
    num, den = np.abs(error).max(), np.abs(reference).max()
    return float(num / den if den > 0 else num)


def _lattice_values(signals, seed):
    """Each signal's values on the equispaced lattice, or on its seeded subsample.

    exp(<row_j, t>) factors over the axes, so each signal is a separable sum
    over one exp table per axis on the 1-D lattice axis.  A signal that
    overflows there gets values that are not finite, without a warning.
    """
    axis = np.linspace(*SIGNAL_BOX, SIGNAL_POINTS_PER_AXIS)
    d = signals[0].d
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [
            _SeparableSum([np.exp(axis[:, None] * s.frequencies[None, :, a]) for a in range(d)])
            for s in signals
        ]
        if SIGNAL_POINTS_PER_AXIS ** d <= MAX_SIGNAL_POINTS:
            return [t.grid(s.coefficients) for t, s in zip(terms, signals)]
        picks = np.random.default_rng(seed).integers(0, SIGNAL_POINTS_PER_AXIS,
                                                     size=(MAX_SIGNAL_POINTS, d))
        return [t.at(picks, s.coefficients) for t, s in zip(terms, signals)]


# ---------------------------------------------------------------------------
# JSON wire formats (signals take complex numbers as [re, im] pairs)


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _unpair(p):
    return complex(_json_number(p[0], "value"), _json_number(p[1], "value"))


def _json_number(x, name, integral=False):
    """A JSON number as a float, or as an int when integral; no booleans."""
    fractional = type(x) is float and not x.is_integer()
    if type(x) not in (int, float) or (integral and fractional):
        kind = "integer" if integral else "number"
        raise BadParameters(f"{name} must be a JSON {kind}, got {x!r}")
    return int(x) if integral else float(x)


def signal_to_json(signal, P):
    return {
        "d": signal.d,
        "P": float(P),
        "gamma": [_pair(z) for z in signal.coefficients],
        "lambda": [[_pair(z) for z in row] for row in signal.frequencies],
    }


def signal_from_json(obj):
    try:
        d = _json_number(obj["d"], "d", integral=True)
        P = _json_number(obj["P"], "P")
        gamma = np.array([_unpair(p) for p in obj["gamma"]], dtype=complex)
        lam = np.array([[_unpair(p) for p in row] for row in obj["lambda"]], dtype=complex)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise BadParameters(f"malformed signal object: {exc}") from exc
    if lam.ndim != 2 or lam.shape[1] != d:
        raise BadParameters(f"lambda must be an M x {d} table")
    return ExponentialSum(lam, gamma), P


def source_to_json(source):
    """The wire object of a coefficient source.  "values" is the base64 text
    of its values' little-endian complex128 bytes ("dtype": "<c16"), which
    round-trips them bitwise, in lexicographic index order: C order over
    [-N..N]^d for a full grid (axis 0 slowest, index k at position k+N),
    each covered index once for sparse lines (SparseLines.unique_indices).
    """
    return {
        "d": source.d,
        "P": source.P,
        "N": source.N,
        "coverage": source.coverage.descriptor(),
        "dtype": _WIRE_DTYPE,
        "values": base64.b64encode(
            np.ascontiguousarray(source.values, dtype=_WIRE_DTYPE)).decode("ascii"),
    }


def source_from_json(obj):
    """The coefficient source of a wire object in source_to_json's layout;
    any other object, one in an earlier layout too, raises BadParameters."""
    try:
        d = _json_number(obj["d"], "d", integral=True)
        P = _json_number(obj["P"], "P")
        N = _json_number(obj["N"], "N", integral=True)
        coverage = parse_coverage(obj["coverage"])
        dtype, text = obj["dtype"], obj["values"]
    except KeyError as exc:
        raise BadParameters(f"coefficient grid object has no {exc} field") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise BadParameters(f"malformed coefficient grid object: {exc}") from exc
    return CoefficientSource._owning(d, P, N, coverage, _wire_values(d, N, coverage, dtype, text))


def _wire_values(d, N, coverage, dtype, text):
    """The stored values from the base64 text of their complex128 bytes.

    The count comes from the coverage.  Every coverage stores the 2dN+1
    indices of its axis lines, so a shorter text is refused before any work
    sized by d and N.  The text is decoded by blocks into one fresh array in
    the stored shape, which source_from_json's source keeps (and checks for
    shape and finiteness).
    """
    if dtype != _WIRE_DTYPE:
        raise BadParameters(f'"dtype" must be "{_WIRE_DTYPE}", got {dtype!r}')
    if d < 1 or N < 1:
        raise BadParameters(f"need d >= 1 and N >= 1, got d={d}, N={N}")
    where = f"{coverage.descriptor()} coverage with N={N}, d={d}"
    # base64 takes 64 characters per 3 values
    if not isinstance(text, str) or 3 * len(text) < 64 * (2 * d * N + 1):
        raise BadParameters(f'"values" must be a JSON string, the base64 text of at least '
                            f"{2 * d * N + 1} values for {where}")
    full = isinstance(coverage, FullGrid)
    count = (2 * N + 1) ** d if full else len(coverage.unique_indices(d, N))
    if len(text) != -(-16 * count // 3) * 4:
        # (2N+1)^d may have more digits than Python prints
        wanted = f"{2 * N + 1}^{d}" if full else str(count)
        raise BadParameters(f'"values" must be the base64 text of {wanted} values for {where}')
    values = np.empty((2 * N + 1,) * d if full else count, dtype=_WIRE_DTYPE)
    raw = values.reshape(-1).view(np.uint8)  # a view: the bytes go into values
    for start in range(0, raw.size, _WIRE_BLOCK):
        try:
            block = base64.b64decode(text[start // 3 * 4:(start + _WIRE_BLOCK) // 3 * 4],
                                     validate=True)
        except ValueError as exc:
            raise BadParameters(f'"values" is not base64 text: {exc}') from exc
        if len(block) != raw[start:start + _WIRE_BLOCK].size:
            raise BadParameters(f'"values" does not decode to whole values for {where}')
        raw[start:start + _WIRE_BLOCK] = np.frombuffer(block, dtype=np.uint8)
    return values
