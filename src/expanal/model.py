"""Exponential-sum signals, their Fourier coefficients, and reconstruction metrics.

A signal is a finite sum of complex multivariate exponentials.  Its Fourier
coefficients over a period box follow a closed product formula, which this
module evaluates exactly; recovery code consumes those coefficients through a
CoefficientSource that declares which integer indices are covered (a full grid
or a set of index lines).

Both the signal and its coefficients are sums of M separable terms: term j is
a weight times a product of one univariate factor per axis.  _SeparableSum
holds one factor table per axis and contracts those tables against the term
weights, so grid synthesis, the full-grid amplitude solve and the signal error
cost O(size of the grid) time and memory and never form a (grid x M) array.
"""

from dataclasses import dataclass
import numpy as np

from .errors import (
    BadParameters,
    CoverageMismatch,
    DegenerateFrequency,
    ShapeMismatch,
)
from .linalg import linear_assignment
from .validation import check_nonnegative_int, check_period

TWO_PI_I = 2j * np.pi

_EVAL_CHUNK = 1 << 17

# |frequency*P - 2*pi*i*k| below this (relative) uses the constant branch of
# the coefficient formula; see fourier_coefficient.
_DEGENERATE_BRANCH_RTOL = 1e-14

# Guard tolerance for refusing synthesis of signals whose frequencies sit on
# (or numerically at) a sampled index.
_DEGENERATE_GUARD_TOL = 1e-9


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
        for j in range(freq.shape[0] - 1):
            if np.any(np.all(freq[j + 1:] == freq[j], axis=1)):
                raise BadParameters("frequency rows must be pairwise distinct")
        freq = freq.copy()
        coef = coef.copy()
        freq.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "frequencies", freq)
        object.__setattr__(self, "coefficients", coef)

    @property
    def d(self):
        return self.frequencies.shape[1]

    @property
    def order(self):
        return self.frequencies.shape[0]

    def evaluate(self, t):
        """Evaluate the signal at a point (d,) or an array of points (n, d)."""
        pts = np.asarray(t, dtype=float)
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
        are outside the recovery scope.
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
            grid = self._coefficient_terms(P, axes).grid(self.coefficients)
            return CoefficientSource(self.d, P, N, coverage, grid=grid)

        if isinstance(coverage, SparseLines):
            idx = np.concatenate([line for _, line in coverage.line_indices(self.d, N)])
            values = self.fourier_coefficients(idx, P)
            table = {tuple(int(x) for x in row): complex(v) for row, v in zip(idx, values)}
            return CoefficientSource(self.d, P, N, coverage, table=table)

        raise BadParameters(f"unknown coverage {coverage!r}")

    def degenerate_components(self, P, N):
        """(term, axis, index) triples where a frequency hits a sampled index."""
        b = self.frequencies * (P / TWO_PI_I)
        nearest = np.round(b.real)
        hit = (np.abs(b - nearest) <= _DEGENERATE_GUARD_TOL) & (np.abs(nearest) <= N)
        out = []
        for j, axis in zip(*np.nonzero(hit)):
            out.append((int(j), int(axis), int(nearest[j, axis])))
        return out


_AXIS_LETTERS = "abcdefghijklmnopqrstuvwxy"


class _SeparableSum:
    """A sum of M separable terms on a product index set.

    F[k_0, ..., k_{d-1}] = sum_j w_j * prod_a tables[a][k_a, j]

    Each axis holds one (n_a, M) factor table.  Read as a design matrix,
    A[k, j] = prod_a tables[a][k_a, j] is the Khatri-Rao product of the tables
    (axis 0 slowest); no method forms it, or any other (grid x M) array.
    """

    def __init__(self, tables):
        self.tables = tables

    def grid(self, weights):
        """F on the whole product grid, shape (n_0, ..., n_{d-1}).

        One plain einsum (no optimize): each entry is the same product over
        the axes and sum over the terms whatever the table sizes, so one-row
        tables, or rows gathered by `at`, give bitwise-identical values.
        """
        axes = _AXIS_LETTERS[:len(self.tables)]
        spec = ",".join(a + "z" for a in axes) + ",z->" + axes
        return np.einsum(spec, *self.tables, weights)

    def at(self, rows, weights):
        """F at the rows of an (n, d) array of table row numbers, in bounded blocks."""
        spec = ",".join("iz" for _ in self.tables) + ",z->i"
        out = np.empty(rows.shape[0], dtype=complex)
        for start in range(0, rows.shape[0], _EVAL_CHUNK):
            block = rows[start:start + _EVAL_CHUNK]
            gathered = [table[block[:, axis]] for axis, table in enumerate(self.tables)]
            out[start:start + _EVAL_CHUNK] = np.einsum(spec, *gathered, weights)
        return out

    def gram(self):
        """A^H A: the elementwise product of the per-axis Grams T_a^H T_a."""
        out = 1.0
        for table in self.tables:
            out = out * (table.conj().T @ table)
        return out

    def adjoint(self, values):
        """A^H y for y on the product grid: one matmul and one row-wise dot."""
        left, right = self._halves()
        partial = values.reshape(left.shape[0], right.shape[0]) @ right.conj()
        return np.sum(left.conj() * partial, axis=0)

    def apply(self, weights):
        """A w on the product grid (F through one matmul; not bitwise `grid`)."""
        left, right = self._halves()
        shape = tuple(table.shape[0] for table in self.tables)
        return ((left * weights) @ right.T).reshape(shape)

    def _halves(self):
        """Khatri-Rao products of the leading and the trailing half of the axes."""
        split = len(self.tables) // 2
        terms = self.tables[0].shape[1]
        return (_khatri_rao(self.tables[:split], terms),
                _khatri_rao(self.tables[split:], terms))


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
        if not isinstance(self.tau, (int, np.integer)) or self.tau < 1:
            raise BadParameters(f"tau must be a positive integer, got {self.tau!r}")
        object.__setattr__(self, "tau", int(self.tau))

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

    def unique_indices(self, d, N):
        out = set()
        for _, line in self.line_indices(d, N):
            out.update(tuple(int(x) for x in row) for row in line)
        return out


def parse_coverage(text):
    """Parse a coverage descriptor: "full" or "sparse:TAU"."""
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

    Exactly one backing store is held: a dense (2N+1)^d grid for FullGrid
    coverage, or a table keyed by index tuples for SparseLines coverage.
    """

    def __init__(self, d, P, N, coverage, grid=None, table=None):
        check_period(P)
        if N < 1:
            raise BadParameters("index half-width N must be >= 1")
        self.d = int(d)
        self.P = float(P)
        self.N = int(N)
        self.coverage = coverage
        self._grid = None
        self._table = None
        if isinstance(coverage, FullGrid):
            if grid is None or table is not None:
                raise BadParameters("full coverage needs a dense grid")
            grid = np.asarray(grid, dtype=complex)
            if grid.shape != (2 * self.N + 1,) * self.d:
                raise ShapeMismatch(
                    f"grid shape {grid.shape} does not match [-N,N]^d with N={self.N}, d={self.d}"
                )
            grid = grid.copy()
            grid.setflags(write=False)
            self._grid = grid
        elif isinstance(coverage, SparseLines):
            if table is None or grid is not None:
                raise BadParameters("sparse coverage needs an index table")
            expected = coverage.unique_indices(self.d, self.N)
            if set(table.keys()) != expected:
                raise BadParameters("table does not cover exactly the declared index lines")
            self._table = dict(table)
        else:
            raise BadParameters(f"unknown coverage {coverage!r}")

    @property
    def counted_samples(self):
        """Sample count with the per-line accounting (shared indices recounted)."""
        return self.coverage.counted_samples(self.d, self.N)

    def value(self, k):
        """Coefficient at index k; KeyError if k is outside the coverage."""
        idx = tuple(int(x) for x in np.asarray(k, dtype=int).ravel())
        if len(idx) != self.d:
            raise ShapeMismatch(f"index must have {self.d} entries")
        if any(abs(x) > self.N for x in idx):
            raise KeyError(idx)
        if self._grid is not None:
            return complex(self._grid[tuple(x + self.N for x in idx)])
        return self._table[idx]

    def axis_line(self, axis):
        """Values on the coordinate-axis line, k = -N..N."""
        line = axis_line_indices(self.d, self.N, axis)
        return np.array([self.value(row) for row in line], dtype=complex)

    def diagonal_line(self, axis, tau=None):
        """Values on the shifted diagonal pairing axes (axis-1, axis)."""
        if isinstance(self.coverage, SparseLines):
            if tau is not None and tau != self.coverage.tau:
                raise BadParameters(
                    f"source was sampled with tau={self.coverage.tau}, not {tau}"
                )
            tau = self.coverage.tau
        elif tau is None:
            raise BadParameters("tau is required to slice a full grid diagonally")
        line = diagonal_line_indices(self.d, self.N, tau, axis)
        return np.array([self.value(row) for row in line], dtype=complex)

    def grid(self):
        """The dense (2N+1)^d value array (full coverage only)."""
        if self._grid is None:
            raise CoverageMismatch("source does not hold a full grid")
        return self._grid

    def indices(self):
        """Covered indices as tuples, in deterministic (lexicographic) order."""
        if self._grid is not None:
            return [
                tuple(x - self.N for x in idx) for idx in np.ndindex(*self._grid.shape)
            ]
        return sorted(self._table.keys())

    def items(self):
        for idx in self.indices():
            yield idx, self.value(idx)


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


def relative_errors(truth, recovered, box=(-10.0, 10.0), points_per_axis=51,
                    max_signal_points=2_000_000, seed=0):
    """Relative errors between a reference signal and a reconstruction.

    Rows are matched first by an optimal assignment on the frequency-row
    distances, so the metrics are invariant under row permutations of either
    input.  The signal error is the sup-norm misfit over an equispaced lattice
    in the given box, subsampled (seeded) when the lattice exceeds
    max_signal_points.
    """
    check_nonnegative_int(seed, "seed")
    if truth.d != recovered.d:
        raise ShapeMismatch(f"dimension mismatch: {truth.d} vs {recovered.d}")
    perm = _match_rows(truth.frequencies, recovered.frequencies)
    matched = [(i, j) for i, j in enumerate(perm) if j is not None]
    ti = np.array([i for i, _ in matched], dtype=int)
    rj = np.array([j for _, j in matched], dtype=int)

    freq_err = 0.0
    for axis in range(truth.d):
        num = np.abs(truth.frequencies[ti, axis] - recovered.frequencies[rj, axis]).max()
        den = np.abs(truth.frequencies[:, axis]).max()
        freq_err = max(freq_err, num / den if den > 0 else (0.0 if num == 0 else num))

    num = np.abs(truth.coefficients[ti] - recovered.coefficients[rj]).max()
    den = np.abs(truth.coefficients).max()
    coef_err = num / den if den > 0 else (0.0 if num == 0 else num)

    f, g = _lattice_values((truth, recovered), box, points_per_axis,
                           max_signal_points, seed)
    scale = np.abs(f).max()
    diff = np.abs(f - g).max()
    sig_err = diff / scale if scale > 0 else (0.0 if diff == 0 else diff)

    return ErrorReport(
        frequency_error=float(freq_err),
        coefficient_error=float(coef_err),
        signal_error=float(sig_err),
        matched_permutation=tuple(perm),
        truth_order=truth.order,
        recovered_order=recovered.order,
    )


def _lattice_values(signals, box, points_per_axis, max_points, seed):
    """Each signal's values on the equispaced lattice, or on its seeded subsample.

    exp(<row_j, t>) factors over the axes, so each signal is a separable sum
    over one exp table per axis on the 1-D lattice axis.
    """
    axis = np.linspace(box[0], box[1], points_per_axis)
    d = signals[0].d
    terms = [
        _SeparableSum([np.exp(axis[:, None] * s.frequencies[None, :, a]) for a in range(d)])
        for s in signals
    ]
    if points_per_axis ** d <= max_points:
        return [t.grid(s.coefficients) for t, s in zip(terms, signals)]
    picks = np.random.default_rng(seed).integers(0, points_per_axis, size=(max_points, d))
    return [t.at(picks, s.coefficients) for t, s in zip(terms, signals)]


# ---------------------------------------------------------------------------
# JSON wire formats (complex numbers as [re, im] pairs throughout)


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
    """The wire object of a coefficient source.

    A full grid is dense: flat "re" and "im" arrays in C order over [-N..N]^d
    (axis 0 slowest, index k at position k+N).  Sparse lines are per entry:
    {"k": index, "c": [re, im]} in lexicographic index order.
    """
    obj = {
        "d": source.d,
        "P": source.P,
        "N": source.N,
        "coverage": source.coverage.descriptor(),
    }
    if isinstance(source.coverage, FullGrid):
        flat = source.grid().ravel()
        obj["re"] = flat.real.tolist()
        obj["im"] = flat.imag.tolist()
    else:
        obj["entries"] = [
            {"k": list(idx), "c": _pair(value)} for idx, value in source.items()
        ]
    return obj


def source_from_json(obj):
    try:
        d = _json_number(obj["d"], "d", integral=True)
        P = _json_number(obj["P"], "P")
        N = _json_number(obj["N"], "N", integral=True)
        coverage = parse_coverage(obj["coverage"])
        if isinstance(coverage, FullGrid):
            parts = obj["re"], obj["im"]
        else:
            entries = [(tuple(_json_number(x, "k", integral=True) for x in e["k"]),
                        _unpair(e["c"])) for e in obj["entries"]]
    except KeyError as exc:
        raise BadParameters(f"coefficient grid object has no {exc} field") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise BadParameters(f"malformed coefficient grid object: {exc}") from exc
    if isinstance(coverage, FullGrid):
        return CoefficientSource(d, P, N, coverage, grid=_dense_grid(d, N, *parts))
    table = dict(entries)
    if len(table) != len(entries):
        raise BadParameters("duplicate entries in coefficient file")
    return CoefficientSource(d, P, N, coverage, table=table)


def _dense_grid(d, N, re, im):
    """The (2N+1)^d grid from its flat real and imaginary parts (JSON lists).

    Every token must be a JSON number: numpy would read a boolean mixed into
    numbers as 0.0 or 1.0, so the token types are checked before conversion.
    """
    if d < 1 or N < 1:
        raise BadParameters(f"need d >= 1 and N >= 1, got d={d}, N={N}")
    count = (2 * N + 1) ** d
    for name, part in (("re", re), ("im", im)):
        if (not isinstance(part, list) or len(part) != count
                or not set(map(type, part)) <= {int, float}):
            raise BadParameters(
                f'"{name}" must be a flat array of (2N+1)^d = {count} numbers'
            )
    grid = np.empty(count, dtype=complex)
    try:
        grid.real, grid.imag = re, im
    except OverflowError as exc:
        raise BadParameters(f"coefficient grid has an out-of-range number: {exc}") from exc
    if not np.isfinite(grid).all():
        raise BadParameters("coefficient grid has non-finite values")
    return grid.reshape((2 * N + 1,) * d)
