"""Full-grid recovery by recursive dimension reduction.

One coordinate is peeled at a time: the distinct poles on the current axis
line are fitted by rational.pole_residue_from_samples (the same line fit and
policy as the line-based method; only close poles are merged here), then a
Cauchy-type least squares factorization (reused across all tail indices)
splits the slice into one lower-dimensional slice per pole.
The recursion records its poles in a tree whose root-to-leaf paths are the
recovered pole vectors, so pairing is automatic and repeated per-axis values
are handled.  The amplitudes then solve one least squares system on the whole
grid, whose design is a Khatri-Rao product of per-axis Cauchy matrices; it is
solved through its M x M normal system without forming the design.
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
from .model import TWO_PI_I, ExponentialSum, FullGrid, _SeparableSum
from .rational import DEFAULT_TOL, pole_residue_from_samples
from .validation import check_nonnegative_int, check_rcond

POLE_MERGE_RTOL = 1e-8
RESYNTHESIS_WARN_TOL = 1e-6


@dataclass(frozen=True)
class TreeNode:
    """One recovered pole at one dimension; leaves sit at depth d."""

    pole: complex
    depth: int
    children: tuple
    leaf_multiplicity: int = None

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
        """Check sibling distinctness, path lengths and leaf bookkeeping."""

        def walk(node, depth):
            if node.depth != depth:
                raise BadParameters(f"node at depth {node.depth} expected {depth}")
            if depth == self.dimension:
                if not node.is_leaf or node.leaf_multiplicity is None:
                    raise BadParameters("bottom-level nodes must be leaves with a multiplicity")
            else:
                if node.is_leaf:
                    raise BadParameters(f"interior node at depth {depth} has no children")
                kids = np.array([c.pole for c in node.children], dtype=complex)
                if len(kids) != len(np.unique(kids)):
                    raise BadParameters("sibling poles must be pairwise distinct")
                for child in node.children:
                    walk(child, depth + 1)

        root_poles = np.array([r.pole for r in self.roots], dtype=complex)
        if len(root_poles) != len(np.unique(root_poles)):
            raise BadParameters("root poles must be pairwise distinct")
        for root in self.roots:
            walk(root, 1)
        leaf_mult = sum(
            node.leaf_multiplicity for node in self._leaves()
        )
        if leaf_mult != self.order:
            raise BadParameters("leaf multiplicities must sum to the order")
        return self

    def _leaves(self):
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield node
            else:
                stack.extend(node.children)

    def to_json(self):
        def encode(node):
            obj = {"pole": [node.pole.real, node.pole.imag]}
            if node.is_leaf:
                obj["multiplicity"] = node.leaf_multiplicity
                obj["children"] = []
            else:
                obj["children"] = [encode(c) for c in node.children]
            return obj

        return {"dimension": self.dimension, "roots": [encode(r) for r in self.roots]}


@dataclass(frozen=True)
class SliceValues:
    """Values of one pole's lower-dimensional slice on its full index box."""

    pole: complex
    depth: int
    values: np.ndarray


def distinct_poles(values, tol=DEFAULT_TOL, max_order=None,
                   rcond=linalg.DEFAULT_RCOND, method="eig"):
    """Distinct poles of a univariate slice line sampled at k = -N..N.

    Returns (count, poles sorted by (real, imag)).  The fit is
    pole_residue_from_samples; poles closer than a small relative threshold
    are then merged defensively so finite precision cannot split one branch
    into two.
    """
    pr, _ = pole_residue_from_samples(
        values, tol=tol, max_order=max_order, rcond=rcond, method=method
    )
    poles = _merge_close(pr.poles)
    return len(poles), poles


def _merge_close(poles, rtol=POLE_MERGE_RTOL):
    scale = np.abs(poles).max()
    threshold = rtol * scale if scale > 0 else 0.0
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


def peel_dimension(poles, parent_values, rcond=linalg.DEFAULT_RCOND):
    """Split a slice into one child slice per pole of its leading axis.

    For every tail index the samples along the leading axis satisfy a Cauchy
    system in the child values; the system matrix depends only on the poles,
    so it is factorized once and applied to all tails.
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
    cauchy = 1.0 / (k[:, None] - b[None, :])
    u, s, v = linalg.svd(cauchy)
    if len(s) < len(b) or s[len(b) - 1] <= rcond * s[0]:
        raise IllConditioned(
            f"slice system is numerically rank deficient for {len(b)} poles"
        )
    rhs = vals.reshape(n, -1)
    solution = v @ ((u.conj().T @ rhs) / s[:, None])
    depth = vals.ndim
    return [
        SliceValues(pole=complex(b[m]), depth=depth,
                    values=solution[m].reshape(vals.shape[1:]))
        for m in range(len(b))
    ]


def build_pole_tree(source, tol=DEFAULT_TOL, rcond=linalg.DEFAULT_RCOND,
                    max_order=None, method="eig", trace_sink=None):
    """Depth-first pole tree of a full-grid coefficient source.

    Each level fits the current slice's axis line, peels that dimension, and
    recurses into the per-pole child slices; the last dimension's poles become
    leaves.  Errors are re-raised with the pole path for context.
    """
    if not isinstance(source.coverage, FullGrid):
        raise CoverageMismatch("recursive recovery needs full-grid coverage")
    if max_order is None:
        max_order = source.N
    n_half = source.N

    def grow(values, depth, path):
        line = values[(slice(None),) + (n_half,) * (values.ndim - 1)]
        try:
            pr, trace = pole_residue_from_samples(
                line, tol=tol, max_order=max_order, rcond=rcond, method=method
            )
        except ExpanalError as exc:
            raise type(exc)(f"at pole path {path}: {exc}") from exc
        poles = _merge_close(pr.poles)
        if trace_sink is not None:
            trace_sink.append(trace)
        if values.ndim == 1:
            return [
                TreeNode(pole=complex(p), depth=depth, children=(), leaf_multiplicity=1)
                for p in poles
            ]
        try:
            slices = peel_dimension(poles, values, rcond=rcond)
        except ExpanalError as exc:
            raise type(exc)(f"at pole path {path}: {exc}") from exc
        nodes = []
        for piece in slices:
            kids = grow(piece.values, depth + 1, path + (piece.pole,))
            nodes.append(TreeNode(pole=piece.pole, depth=depth, children=tuple(kids)))
        return nodes

    roots = grow(source.grid(), 1, ())
    return PoleTree(roots=tuple(roots), dimension=source.d).validate()


def leaves_to_sum(tree, source, rcond=linalg.DEFAULT_RCOND):
    """Signal parameters from a pole tree and its full-grid source.

    The root-to-leaf pole paths give the frequency rows.  The amplitudes x
    solve the least squares system on every grid index,
    grid[k] = sum_j x_j prod_a 1/(k_a - b_ja), through its normal system
    G x = A^H grid, where G is the elementwise product of the per-axis Cauchy
    Grams C_a^H C_a.  G is M x M; the design A is never formed.  The system
    counts as rank deficient when the smallest eigenvalue of G is at most
    rcond times the largest.  One step of iterative refinement recovers the
    accuracy the normal system gives up.  The amplitudes then map to the
    signal coefficients.
    """
    check_rcond(rcond)
    poles = tree.leaf_paths()
    d = poles.shape[1]
    k = np.arange(-source.N, source.N + 1, dtype=float)
    design = _SeparableSum([1.0 / (k[:, None] - poles[None, :, a]) for a in range(d)])
    grid = source.grid()

    eigenvalues, eigenvectors = linalg.eigh(design.gram())
    if not eigenvalues[0] > rcond * eigenvalues[-1]:
        raise IllConditioned(
            f"amplitude system is numerically rank deficient: Gram eigenvalue "
            f"ratio {eigenvalues[0] / eigenvalues[-1]:.3e} <= {rcond:.0e}"
        )

    def solve(values):
        rhs = design.adjoint(values)
        return eigenvectors @ ((eigenvectors.conj().T @ rhs) / eigenvalues)

    amplitudes = solve(grid)
    residual = design.apply(amplitudes)
    amplitudes = amplitudes + solve(np.subtract(grid, residual, out=residual))

    frequencies = TWO_PI_I * poles / source.P
    coefficients = (
        amplitudes * TWO_PI_I ** d
        / np.prod(1.0 - np.exp(frequencies * source.P), axis=1)
    )
    return ExponentialSum(frequencies, coefficients)


def recover_recursive(source, tol=DEFAULT_TOL, rcond=linalg.DEFAULT_RCOND,
                      max_order=None, method="eig",
                      resynthesis_tol=RESYNTHESIS_WARN_TOL, check_points=100,
                      seed=0, trace_sink=None):
    """Recover an exponential sum from a full coefficient grid.

    Builds the pole tree, solves the amplitude system, and spot-checks that
    the reconstruction reproduces the input coefficients at seeded random
    indices; a large residual there is reported as a ResynthesisWarning (the
    usual cause is a slice function vanishing at the origin, which hides one
    of the poles from its axis line).  check_points=0 skips the spot check.

    Returns (ExponentialSum, PoleTree).
    """
    check_nonnegative_int(check_points, "check_points")
    check_nonnegative_int(seed, "seed")
    tree = build_pole_tree(source, tol=tol, rcond=rcond, max_order=max_order,
                           method=method, trace_sink=trace_sink)
    signal = leaves_to_sum(tree, source, rcond=rcond)
    if check_points == 0:
        return signal, tree

    rng = np.random.default_rng(seed)
    picks = rng.integers(-source.N, source.N + 1, size=(check_points, source.d))
    data = source.grid()[tuple((picks + source.N).T)]
    model = signal.fourier_coefficients(picks, source.P)
    scale = np.abs(data).max()
    if scale > 0:
        residual = np.abs(model - data).max() / scale
        if residual > resynthesis_tol:
            warnings.warn(
                ResynthesisWarning(
                    f"reconstruction misses the input coefficients by a relative "
                    f"{residual:.3e}; the data may hide a pole"
                )
            )
    return signal, tree
