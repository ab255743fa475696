"""Full-grid recovery by recursive dimension reduction.

One coordinate is peeled at a time: the distinct poles on the current axis
line are fitted by rational.pole_residue_from_samples (the same line fit and
policy as the line-based method; only close poles are merged here), then a
Cauchy-type least squares factorization (reused across all tail indices)
splits the slice into one lower-dimensional slice per pole, the rows of one
array.
The recursion records its poles in a tree whose root-to-leaf paths are the
recovered pole vectors, so pairing is automatic and repeated per-axis values
are handled.  The amplitudes then solve one least squares system on the whole
grid, whose design is a Khatri-Rao product of per-axis Cauchy matrices.  Each
axis's Cauchy columns span at most as many directions as that axis has
distinct poles, so the grid is first compressed onto those per-axis bases (a
Tucker core, read off the grid in one pass); the residual outside them is the
same for every amplitude vector, so the least squares solution on the core is
exactly the one on the grid.  The core system is solved through its M x M
normal system without forming the design.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadParameters,
    CoverageMismatch,
    ExpanalError,
    IllConditioned,
    ResynthesisWarning,
    ShapeMismatch,
)
from .model import ExponentialSum, FullGrid, _SeparableSum
from .rational import DEFAULT_TOL, pole_residue_from_samples
from .validation import check_nonnegative_int

POLE_MERGE_RTOL = 1e-8
RESYNTHESIS_WARN_TOL = 1e-6


@dataclass(frozen=True)
class TreeNode:
    """One recovered pole and the poles of the next axis below it."""

    pole: complex
    children: tuple

    @property
    def is_leaf(self):
        return not self.children

    @property
    def leaf_count(self):
        if self.is_leaf:
            return 1
        return sum(child.leaf_count for child in self.children)


@dataclass(frozen=True)
class PoleTree:
    """Rooted forest of per-dimension poles; paths are pole vectors."""

    roots: tuple
    dimension: int

    @property
    def order(self):
        return sum(root.leaf_count for root in self.roots)

    def level_sizes(self):
        """Node counts per depth, from the roots down to the leaves."""
        sizes = []
        level = list(self.roots)
        while level:
            sizes.append(len(level))
            level = [child for node in level for child in node.children]
        return sizes

    def leaf_paths(self):
        """(order, dimension) matrix of root-to-leaf pole vectors."""
        paths = []

        def walk(node, prefix):
            prefix = prefix + [node.pole]
            if node.is_leaf:
                paths.append(prefix)
            for child in node.children:
                walk(child, prefix)

        for root in self.roots:
            walk(root, [])
        return np.array(paths, dtype=complex).reshape(-1, self.dimension)

    def validate(self):
        """Check that roots and siblings are distinct and leaves sit at depth d."""

        def walk(nodes, depth):
            if len({node.pole for node in nodes}) != len(nodes):
                kind = "root" if depth == 1 else "sibling"
                raise BadParameters(f"{kind} poles must be pairwise distinct")
            for node in nodes:
                if node.is_leaf != (depth == self.dimension):
                    raise BadParameters(
                        f"{'leaf' if node.is_leaf else 'interior node'} at depth "
                        f"{depth}; leaves belong at depth {self.dimension}"
                    )
                walk(node.children, depth + 1)

        walk(self.roots, 1)
        return self

    def to_json(self):
        def encode(node):
            obj = {"pole": [node.pole.real, node.pole.imag]}
            if node.is_leaf:
                obj["multiplicity"] = 1
            obj["children"] = [encode(c) for c in node.children]
            return obj

        return {"dimension": self.dimension, "roots": [encode(r) for r in self.roots]}


def _merge_close(poles):
    """Fitted poles sorted by (real, imag), those closer than POLE_MERGE_RTOL
    (relative) merged to their mean, so that finite precision cannot split one
    branch into two."""
    scale = np.abs(poles).max()
    threshold = POLE_MERGE_RTOL * scale if scale > 0 else 0.0
    # only the zero diagonal lies within the threshold when no pair does
    if np.count_nonzero(np.abs(poles[:, None] - poles[None, :]) <= threshold) == len(poles):
        return linalg.sort_complex(poles)
    clusters = []
    for pole in poles:
        for cluster in clusters:
            if abs(pole - np.mean(cluster)) <= threshold:
                cluster.append(pole)
                break
        else:
            clusters.append([pole])
    merged = np.array([np.mean(c) for c in clusters], dtype=complex)
    return linalg.sort_complex(merged)


def peel_dimension(poles, parent_values):
    """Split a slice into one child slice per pole of its leading axis.

    For every tail index the samples along the leading axis satisfy a Cauchy
    system in the child values; the system matrix depends only on the poles,
    so its pseudo-inverse is formed once from the checked SVD and applied to
    all tails in one matmul over the slice.

    Returns the (len(poles), *tail) solution array: row j is the child slice
    of poles[j].
    """
    vals = np.asarray(parent_values, dtype=complex)
    if vals.ndim < 2:
        raise ShapeMismatch("parent slice must have at least two dimensions")
    b = np.asarray(poles, dtype=complex).ravel()
    n = vals.shape[0]
    if n % 2 == 0:
        raise ShapeMismatch(f"leading axis must hold an odd number of samples, got {n}")
    n_half = (n - 1) // 2
    if n < len(b):
        raise BadParameters(f"{n} samples cannot determine {len(b)} pole slices")
    k = np.arange(-n_half, n_half + 1, dtype=float)
    u, s, v = linalg.full_rank_svd(1.0 / (k[:, None] - b[None, :]),
                                   f"slice system for {len(b)} poles")
    solution = ((v / s) @ u.conj().T) @ vals.reshape(n, -1)
    return solution.reshape((len(b),) + vals.shape[1:])


def build_pole_tree(source, tol=DEFAULT_TOL, method="eig", trace_sink=None):
    """Depth-first pole tree of a full-grid coefficient source.

    Each level fits the current slice's axis line (at most source.N poles),
    peels that dimension, and recurses into the per-pole child slices (the
    rows of peel_dimension's result); the last dimension's poles become
    leaves.  Errors are re-raised with the pole path for context.
    """
    if not isinstance(source.coverage, FullGrid):
        raise CoverageMismatch("recursive recovery needs full-grid coverage")
    n_half = source.N

    def grow(values, path):
        line = values[(slice(None),) + (n_half,) * (values.ndim - 1)]
        try:
            pr, trace = pole_residue_from_samples(
                line, tol=tol, max_order=n_half, method=method
            )
        except ExpanalError as exc:
            raise type(exc)(f"at pole path {path}: {exc}") from exc
        poles = _merge_close(pr.poles)
        if trace_sink is not None:
            trace_sink.append(trace)
        if values.ndim == 1:
            return [TreeNode(pole=complex(p), children=()) for p in poles]
        try:
            slices = peel_dimension(poles, values)
        except ExpanalError as exc:
            raise type(exc)(f"at pole path {path}: {exc}") from exc
        return [TreeNode(pole=p, children=tuple(grow(child, path + (p,))))
                for p, child in zip(map(complex, poles), slices)]

    roots = grow(source.grid(), ())
    return PoleTree(roots=tuple(roots), dimension=source.d).validate()


def leaves_to_sum(tree, source):
    """Signal parameters from a pole tree and its full-grid source.

    The root-to-leaf pole paths give the frequency rows.  The amplitudes x
    solve the least squares system on every grid index,
    grid[k] = sum_j x_j prod_a C_a[k_a, j] with C_a[k, j] = 1/(k - b_ja).

    The columns of C_a take only the distinct poles of axis a, so they lie in
    the span of Q_a, the reduced QR basis of the Cauchy matrix of those poles.
    The design A then lies in the span of the Kronecker product of the Q_a,
    and ||grid - A x||^2 = ||z - D x||^2 + const: the core z is the grid with
    each Q_a^H applied along its axis (one pass over the grid, the rest on the
    small result), D has the tables Q_a^H C_a, and the constant is the part
    of the grid outside the bases.  The least squares solution on z is thus
    exactly the one on the grid, and its solve is unchanged: the M x M normal
    system G x = D^H z, G the elementwise product of the per-axis Grams; rank
    deficient when the smallest eigenvalue of G is at most linalg.RCOND times
    the largest; one step of iterative refinement.  No design and no
    grid-sized array is formed.  The amplitudes then map to the signal
    coefficients.
    """
    poles = tree.leaf_paths()
    k = np.arange(-source.N, source.N + 1, dtype=float)
    core, tables = source.grid(), []
    # each product contracts the leading axis and appends its core axis
    # last, so after d of them the core is in grid axis order (flattened)
    for column in poles.T:
        basis = np.linalg.qr(1.0 / (k[:, None] - np.unique(column)))[0]
        core = core.reshape(len(k), -1).T @ basis.conj()
        tables.append(basis.conj().T @ (1.0 / (k[:, None] - column)))
    design = _SeparableSum(tables)

    eigenvalues, eigenvectors = linalg.eigh(design.gram())
    if not eigenvalues[0] > linalg.RCOND * eigenvalues[-1]:
        raise IllConditioned(
            f"amplitude system is numerically rank deficient: Gram eigenvalue "
            f"ratio {eigenvalues[0] / eigenvalues[-1]:.3e} <= {linalg.RCOND:.0e}"
        )

    def solve(values):
        rhs = design.adjoint(values)
        return eigenvectors @ ((eigenvectors.conj().T @ rhs) / eigenvalues)

    amplitudes = solve(core)
    amplitudes = amplitudes + solve(core - design.apply(amplitudes).reshape(core.shape))
    return ExponentialSum.from_poles(poles, amplitudes, source.P)


def recover_recursive(source, tol=DEFAULT_TOL, method="eig", check_points=100,
                      seed=0, trace_sink=None):
    """Recover an exponential sum from a full coefficient grid.

    Builds the pole tree, solves the amplitude system, and spot-checks that
    the reconstruction reproduces the input coefficients at seeded random
    indices; a relative residual above RESYNTHESIS_WARN_TOL there is reported
    as a ResynthesisWarning (the usual cause is a slice function vanishing at
    the origin, which hides one of the poles from its axis line).
    check_points=0 skips the spot check.

    Returns (ExponentialSum, PoleTree).
    """
    check_nonnegative_int(check_points, "check_points")
    check_nonnegative_int(seed, "seed")
    tree = build_pole_tree(source, tol=tol, method=method, trace_sink=trace_sink)
    signal = leaves_to_sum(tree, source)
    if check_points == 0:
        return signal, tree

    rng = np.random.default_rng(seed)
    picks = rng.integers(-source.N, source.N + 1, size=(check_points, source.d))
    data = source.grid()[tuple((picks + source.N).T)]
    model = signal.fourier_coefficients(picks, source.P)
    scale = np.abs(data).max()
    if scale > 0:
        residual = np.abs(model - data).max() / scale
        if residual > RESYNTHESIS_WARN_TOL:
            warnings.warn(
                ResynthesisWarning(
                    f"reconstruction misses the input coefficients by a relative "
                    f"{residual:.3e}; the data may hide a pole"
                )
            )
    return signal, tree
