"""Full-grid recovery by recursive dimension reduction.

One coordinate is peeled at a time, and the pole tree is built one level
(one axis) at a time.  A level holds every slice whose leading axis is the
next to peel, stacked in one array in depth-first (pre-order) order.  One
stacked call of the line fit (the kernel of rational.pole_residue_from_samples,
with the same policy as the line-based method; only close poles are merged
here) finds the distinct poles on the central axis lines of all of them.  A
Cauchy least squares solve (linalg.cauchy_lstsq), one SVD per slice reused
across all its tail indices, then splits each slice into one lower-dimensional
slice per pole; the slices with the same pole count are split by one stacked
call, and their children form the next level.  So the numpy calls of a tree
grow with its levels and fit steps, not with its nodes.  The root-to-leaf
paths of the tree are the recovered pole vectors, so pairing is automatic and
repeated per-axis values are handled.

The amplitudes then solve one least squares system on the whole grid, whose
design is a Khatri-Rao product of per-axis Cauchy matrices.  Each axis's
Cauchy columns span at most as many directions as that axis has distinct
poles, so the grid is first compressed onto those per-axis bases (a Tucker
core); the residual outside them is the same for every amplitude vector, so
the least squares solution on the core is exactly the one on the grid.  The
core is built from the root peel's children, not from the grid: the axis-0
basis is that of the root poles, and the peel has already applied its
pseudo-inverse.  So a recovery reads the grid with one product, the root
peel's, which build_pole_tree hands on in the tree.  The core system is
solved through its M x M normal system without forming the design.
"""

import bisect
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BadParameters,
    CoverageMismatch,
    ExpanalError,
    ResynthesisMismatch,
    ShapeMismatch,
)
from .model import ExponentialSum, FullGrid, _SeparableSum
# pole_residue_from_samples stays bound here: bench/test_bench.py checks that
# the tracer wraps this binding of the line fit
from .rational import (DEFAULT_TOL, _fit_lines, _sample_points,  # noqa: F401
                       pole_residue_from_samples)
from .validation import check_nonnegative_int

POLE_MERGE_RTOL = 1e-8
RESYNTHESIS_TOL = 1e-6
SPOT_CHECK_POINTS = 100


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
    """Rooted forest of per-dimension poles; paths are pole vectors.

    build_pole_tree also keeps the result of its root peel in the private
    _root_peel, the pair (grid, children): the grid array it read and the
    per-root child slices.  leaves_to_sum builds its core from those children
    when it is handed the same grid array, so the grid is read once per
    recovery.  The pair takes no part in comparison, repr or JSON, and
    recover_recursive returns its tree without it.
    """

    roots: tuple
    dimension: int
    _root_peel: tuple = field(default=None, compare=False, repr=False)

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
        """Check that roots exist, roots and siblings are distinct, leaves at depth d."""
        if not self.roots:
            raise BadParameters("a pole tree needs at least one root")

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


def _by_count(rows):
    """The indices of the arrays in rows (None entries skipped), grouped by
    length."""
    groups = {}
    for i, row in enumerate(rows):
        if row is not None:
            groups.setdefault(len(row), []).append(i)
    return groups


def _merge_rows(rows):
    """_merge_close, in place, on each sorted pole array of rows (None entries
    skipped); one stacked test per pole count finds the arrays that hold a
    close pair, and the others are already what _merge_close returns."""
    for count, idx in _by_count(rows).items():
        if count == 1:
            continue
        poles = np.array([rows[i] for i in idx])
        threshold = POLE_MERGE_RTOL * np.abs(poles).max(axis=1)
        near = np.abs(poles[:, :, None] - poles[:, None, :]) <= threshold[:, None, None]
        # only the zero diagonal lies within the threshold when no pair does
        close = near.sum(axis=(1, 2)) > count
        if close.any():
            for pos in np.flatnonzero(close).tolist():
                rows[idx[pos]] = _merge_close(rows[idx[pos]])


def _distinct(values):
    """np.unique of a complex vector, without the masked-array import that
    np.unique costs on first use."""
    ordered = np.sort(values)
    return ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]


def peel_dimension(poles, parent_values):
    """Split a slice into one child slice per pole of its leading axis.

    For every tail index the samples along the leading axis satisfy a Cauchy
    system in the child values; the system matrix depends only on the poles,
    so linalg.cauchy_lstsq applies its pseudo-inverse to all tails in one
    matmul.  Non-finite parent values, and poles not finite or on (or a hair
    off) the sample points k = -N..N, raise BadParameters; more poles than
    samples or a rank deficient system raise IllConditioned.

    Returns the (len(poles), *tail) solution array: row j is the child slice
    of poles[j].  This is the one-slice case of the stacked peel that
    build_pole_tree runs on each tree level.
    """
    vals = np.asarray(parent_values, dtype=complex)
    if vals.ndim < 2:
        raise ShapeMismatch("parent slice must have at least two dimensions")
    if vals.size == 0:
        raise ShapeMismatch(f"parent slice must be nonempty, got shape {vals.shape}")
    b = np.asarray(poles, dtype=complex).ravel()
    n = vals.shape[0]
    if n % 2 == 0:
        raise ShapeMismatch(f"leading axis must hold an odd number of samples, got {n}")
    if b.size == 0:
        raise BadParameters("need at least one pole")
    if not np.isfinite(vals).all():
        raise BadParameters("parent_values contains non-finite entries")
    children, errors = _peel_level([b], vals[None])
    if errors:
        raise errors[0]
    return children


def _peel_level(poles, stack):
    """The child slices of one tree level, one linalg.cauchy_lstsq per pole count.

    poles[i] holds the poles of stack[i], or None for a failed node.  Returns
    (children, errors): the children of node i, one per pole, follow those of
    node i - 1, and errors maps the nodes whose peel fails to their error.
    """
    n, tail = stack.shape[1], stack.shape[2:]
    k = _sample_points(n)
    groups = _by_count(poles)
    # one group holding every node peels the stack as it is, without a copy
    whole = [len(idx) for idx in groups.values()] == [len(poles)]
    starts = list(itertools.accumulate((0 if row is None else len(row) for row in poles),
                                       initial=0))
    children, errors = None if whole else np.empty((starts[-1],) + tail, dtype=complex), {}
    for count, idx in groups.items():
        kids, errs = linalg.cauchy_lstsq(np.array([poles[i] for i in idx]), k,
                                         stack if whole else stack[idx],
                                         f"slice system for {count} poles")
        if whole:
            return kids.reshape((-1,) + tail), errs
        children[[starts[i] + j for i in idx for j in range(count)]] = kids.reshape((-1,) + tail)
        errors.update((idx[pos], exc) for pos, exc in errs.items())
    return children, errors


def build_pole_tree(source, tol=DEFAULT_TOL, method="eig", trace_sink=None):
    """Pole tree of a full-grid coefficient source, built one level at a time.

    A level holds the slices whose leading axis is the next to peel, stacked
    in depth-first (pre-order) order.  One stacked line fit finds the poles
    on the central axis lines of all of them (at most source.N per line;
    close poles merged), and one stacked peel per pole count splits them into
    the per-pole child slices that form the next level; the last dimension's
    poles become leaves.

    Result and errors are those of a depth-first build.  A failing node is
    recorded with its depth-first key, the nodes whose key sorts after the
    earliest failure are dropped, and once no node is left that failure is
    raised as "at pole path {path}: ...".  trace_sink receives the AaaTrace
    of every fit in depth-first pre-order.
    """
    if not isinstance(source.coverage, FullGrid):
        raise CoverageMismatch("recursive recovery needs full-grid coverage")
    n_half = source.N
    stack, keys, paths = source.grid()[None], [()], [()]
    levels, traced, failures, root_peel = [], [], [], None
    while keys:
        lines = stack[(slice(None), slice(None)) + (n_half,) * (stack.ndim - 2)]
        try:
            fits = _fit_lines(lines, tol, n_half, method)
        except ExpanalError as exc:
            # tol and method fail on the first line fitted, the root
            raise type(exc)(f"at pole path (): {exc}") from exc
        poles = [None] * len(fits)
        for i, fit in enumerate(fits):
            if isinstance(fit, ExpanalError):
                failures.append((keys[i], paths[i], fit))
            else:
                poles[i] = fit[0]
                traced.append((keys[i], fit[2]))
        _merge_rows(poles)
        levels.append(poles)
        if stack.ndim == 2:
            break
        stack, errors = _peel_level(poles, stack)
        if root_peel is None:
            root_peel = (source.grid(), stack)
        failures += [(keys[i], paths[i], exc) for i, exc in errors.items()]
        keys = [key + (j,) for key, row in zip(keys, poles) if row is not None
                for j in range(len(row))]
        paths = [path + (pole,) for path, row in zip(paths, poles) if row is not None
                 for pole in row.tolist()]
        if failures:
            # keys are unique, so min never compares the errors
            cut = bisect.bisect_left(keys, min(failures)[0])
            stack, keys, paths = stack[:cut], keys[:cut], paths[:cut]

    first = min(failures)[0] if failures else None
    if trace_sink is not None:
        for key, trace in sorted(traced, key=lambda pair: pair[0]):
            if first is None or key <= first:
                trace_sink.append(trace)
    if failures:
        _, path, exc = min(failures)
        raise type(exc)(f"at pole path {path}: {exc}") from exc
    below = itertools.repeat(())
    for rows in reversed(levels):
        below = iter([tuple(TreeNode(pole=pole, children=next(below)) for pole in row.tolist())
                      for row in rows])
    return PoleTree(roots=next(below), dimension=source.d, _root_peel=root_peel)


def leaves_to_sum(tree, source):
    """Signal parameters from a pole tree and its full-grid source.

    The root-to-leaf pole paths give the frequency rows.  The amplitudes x
    solve the least squares system on every grid index,
    grid[k] = sum_j x_j prod_a C_a[k_a, j] with C_a[k, j] = 1/(k - b_ja).

    The columns of C_a take only the distinct poles of axis a, so they lie in
    the span of Q_a, the reduced QR basis of the Cauchy matrix of those poles.
    The design A then lies in the span of the Kronecker product of the Q_a,
    and ||grid - A x||^2 = ||z - D x||^2 + const: the core z is the grid with
    each Q_a^H applied along its axis, D has the tables Q_a^H C_a, and the
    constant is the part of the grid outside the bases.  The least squares
    solution on z is thus exactly the one on the grid.

    The grid is not contracted itself.  The distinct axis-0 poles are the
    root poles, and Q_0 R_0 is the QR of their Cauchy matrix in root order,
    so Q_0^H grid = R_0 X with X the root peel's children, one row per root.
    X is the tree's own root peel when the tree was built on this source's
    grid array, and is peeled here otherwise.  Its other axes are contracted
    one matmul each, and R_0 is applied last, on the small core.

    The solve on z is the M x M normal system G x = D^H z, G the elementwise
    product of the per-axis Grams, refused by the rank rule (linalg._rank_errors)
    on its eigenvalues, which are its singular values; one step of iterative
    refinement.  No design and no grid-sized array is formed.  The amplitudes
    then map to the signal coefficients; the solve runs on the core scaled by
    an exact power of two, so only coefficients that do not fit in a float
    fail, with BadParameters.

    A tree whose dimension is not the source's raises ShapeMismatch; a
    malformed tree (PoleTree.validate), or a pole not finite or on (or a hair
    off) a sample point k = -N..N, raises BadParameters before any solve.
    """
    if tree.dimension != source.d:
        raise ShapeMismatch(
            f"pole tree of dimension {tree.dimension} does not match a "
            f"{source.d}-dimensional source"
        )
    grid, poles = source.grid(), tree.validate().leaf_paths()
    k = _sample_points(2 * source.N + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cauchy = 1.0 / (k[:, None] - poles.T[:, None, :])  # (d, n, M)
    if not (np.isfinite(poles).all() and np.isfinite(cauchy).all()):
        raise linalg._non_finite_cauchy("amplitude system")
    roots = np.array([root.pole for root in tree.roots], dtype=complex)
    if tree._root_peel is not None and tree._root_peel[0] is grid:
        children = tree._root_peel[1]
    else:
        children, errors = _peel_level([roots], grid[None])
        if errors:
            raise errors[0]
    # (Q_a, R_a) per axis; axis 0 in root order, so that R_0's columns
    # match the rows of X
    bases = [np.linalg.qr(1.0 / (k[:, None] - roots))]
    bases += [np.linalg.qr(1.0 / (k[:, None] - _distinct(column))) for column in poles.T[1:]]
    tables = [q.conj().T @ c for (q, _), c in zip(bases, cauchy)]
    # each product contracts the last axis and puts its core axis first; R_0
    # then brings the root axis from last to first, so the core ends in grid
    # axis order (flattened)
    core = children
    for q, _ in reversed(bases[1:]):
        core = q.conj().T @ core.reshape(-1, len(k)).T
    core = bases[0][1] @ core.reshape(-1, len(roots)).T
    # the core times 2^-e by the line fit's rule, as one row: the solve cannot
    # overflow, and the amplitudes scale back exactly
    core, e = linalg._pow2_scale(core.reshape(1, -1))
    core = core.reshape(len(roots), -1)
    design = _SeparableSum(tables)

    eigenvalues, eigenvectors = linalg.eigh(design.gram())
    errors = linalg._rank_errors(eigenvalues[None, ::-1], "amplitude system")
    if errors:
        raise errors[0]

    def solve(values):
        rhs = design.adjoint(values)
        return eigenvectors @ ((eigenvectors.conj().T @ rhs) / eigenvalues)

    amplitudes = solve(core)
    amplitudes = amplitudes + solve(core - design.apply(amplitudes).reshape(core.shape))
    with np.errstate(over="ignore"):
        amplitudes = linalg._ldexp(amplitudes[None], e)[0]
    return ExponentialSum.from_poles(poles, amplitudes, source.P)


def recover_recursive(source, tol=DEFAULT_TOL, method="eig", seed=0, trace_sink=None):
    """Recover an exponential sum from a full coefficient grid.

    Builds the pole tree, solves the amplitude system, and spot-checks that
    the reconstruction reproduces the input coefficients at SPOT_CHECK_POINTS
    indices drawn with the seed; a relative residual above RESYNTHESIS_TOL
    there raises ResynthesisMismatch (the usual cause is a slice function
    vanishing at the origin, which hides one of the poles from its axis line).
    The tree's root peel feeds the amplitude solve, so the grid is read by one
    product.

    Returns (ExponentialSum, PoleTree); the tree does not keep the root peel.
    """
    check_nonnegative_int(seed, "seed")
    tree = build_pole_tree(source, tol=tol, method=method, trace_sink=trace_sink)
    signal = leaves_to_sum(tree, source)
    tree = PoleTree(roots=tree.roots, dimension=tree.dimension)
    rng = np.random.default_rng(seed)
    picks = rng.integers(-source.N, source.N + 1, size=(SPOT_CHECK_POINTS, source.d))
    data = source.grid()[tuple((picks + source.N).T)]
    model = signal.fourier_coefficients(picks, source.P)
    scale = np.abs(data).max()
    if scale > 0:
        residual = np.abs(model - data).max() / scale
        if residual > RESYNTHESIS_TOL:
            raise ResynthesisMismatch(
                f"reconstruction misses the input coefficients by a relative "
                f"{residual:.3e} > RESYNTHESIS_TOL = {RESYNTHESIS_TOL:.0e}; the data "
                f"may hide a pole")
    return signal, tree
