"""Full-grid recovery by recursive dimension reduction.

One coordinate is peeled at a time, and the pole tree is built one level
(one axis) at a time.  A level holds every slice whose leading axis is the
next to peel, stacked in one array in depth-first (pre-order) order.  One
stacked call of the line fit (the kernel of rational.pole_residue_from_samples,
with the same policy as the line-based method; only close poles are merged
here) finds the distinct poles on the central axis lines of all of them.  Its
residue solve, a Cauchy least squares solve (linalg.cauchy_lstsq) with one SVD
per slice reused across all its tail indices, runs on the whole slice, so one
solve per slice gives both the line's residues and one lower-dimensional
child per pole; the children form the next level, and only a slice whose
close poles were merged is solved again.  So the numpy calls of a tree grow
with its levels and fit steps, not with its nodes.  The root-to-leaf paths of
the tree are the recovered pole vectors, so pairing is automatic and repeated
per-axis values are handled.

A slice of the last level is a single line, and its children are the
amplitudes of the terms below it: a recovery solves no separate amplitude
system, and reads the grid with one product, the root fit's solve.
leaves_to_sum replays the same splits for a given tree and grid.
"""

import bisect
import itertools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    BadParameters,
    CoverageMismatch,
    ExpanalError,
    ResynthesisMismatch,
    ShapeMismatch,
)
from .model import ExponentialSum, FullGrid
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
    close pair, and the others are already what _merge_close returns.
    Returns the indices of the arrays it replaced."""
    merged = []
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
                merged.append(idx[pos])
    return merged


def peel_dimension(poles, parent_values):
    """Split a slice into one child slice per pole of its leading axis.

    For every tail index the samples along the leading axis satisfy a Cauchy
    system in the child values; the system matrix depends only on the poles,
    so linalg.cauchy_lstsq applies its pseudo-inverse to all tails in one
    matmul.  Non-finite parent values, and poles not finite or on (or a hair
    off) the sample points k = -N..N, raise BadParameters; more poles than
    samples or a rank deficient system raise IllConditioned.

    Returns the (len(poles), *tail) solution array: row j is the child slice
    of poles[j]: the children of a tree slice's residue solve, as the
    stacked peel of leaves_to_sum replays them on each tree level.
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
    close poles merged), and its residue solve on each whole slice splits it
    into the per-pole child slices that form the next level; the last
    dimension's poles become leaves.

    Result and errors are those of a depth-first build.  A failing node is
    recorded with its depth-first key, the nodes whose key sorts after the
    earliest failure are dropped, and once no node is left that failure is
    raised as "at pole path {path}: ...".  trace_sink receives the AaaTrace
    of every fit in depth-first pre-order.
    """
    return _build(source, tol, method, trace_sink)[0]


def _build(source, tol, method, trace_sink):
    """build_pole_tree, and the amplitudes: (tree, amplitudes in depth-first
    leaf order).  The children of each slice's fit (solved again for merged
    poles) form the next level; a leaf-level slice is a line, so its children
    are the amplitudes of the leaves below it."""
    if not isinstance(source.coverage, FullGrid):
        raise CoverageMismatch("recursive recovery needs full-grid coverage")
    n_half = source.N
    stack, keys, paths = source.grid()[None], [()], [()]
    levels, traced, failures = [], [], []
    while keys and stack.ndim > 1:
        try:
            fits = _fit_lines(stack, tol, n_half, method)
        except ExpanalError as exc:
            # tol and method fail on the first line fitted, the root
            raise type(exc)(f"at pole path (): {exc}") from exc
        poles, children = [None] * len(fits), [stack[:0, 0]] * len(fits)
        for i, fit in enumerate(fits):
            if isinstance(fit, ExpanalError):
                failures.append((keys[i], paths[i], fit))
            else:
                poles[i], children[i] = fit[0], fit[1]
                traced.append((keys[i], fit[2]))
        for i in _merge_rows(poles):
            children[i], errors = _peel_level([poles[i]], stack[i, None])
            failures += [(keys[i], paths[i], exc) for exc in errors.values()]
        levels.append(poles)
        # the root's children are its solve's array, not a copy
        stack = children[0] if len(children) == 1 else np.concatenate(children)
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
    return PoleTree(roots=next(below), dimension=source.d), stack


def leaves_to_sum(tree, source):
    """Signal parameters from a pole tree and its full-grid source.

    The root-to-leaf pole paths give the frequency rows.  The amplitudes
    replay the tree's peels on the source's grid: one stacked peel per level
    (_peel_level), each node's slice split on its children's poles, from the
    roots on the grid down to the leaves.  A leaf-level slice is a line, so
    its last peel gives the amplitudes of its leaves, in depth-first leaf
    order.  On the source a tree was built from, these are the residues that
    recover_recursive takes from the leaf fits.  Each level solves its own
    least squares system, so on noisy data the amplitudes are not the least
    squares fit of the whole grid by the tree's terms.

    A tree whose dimension is not the source's raises ShapeMismatch; a
    malformed tree (PoleTree.validate), or a pole not finite or on (or a hair
    off) a sample point k = -N..N, raises BadParameters before any peel.  A
    refused peel raises the error of the first node it fails on.
    """
    if tree.dimension != source.d:
        raise ShapeMismatch(
            f"pole tree of dimension {tree.dimension} does not match a "
            f"{source.d}-dimensional source"
        )
    poles = tree.validate().leaf_paths()
    k = _sample_points(2 * source.N + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cauchy = 1.0 / (k[:, None] - poles.T[:, None, :])  # (d, n, M)
    if not (np.isfinite(poles).all() and np.isfinite(cauchy).all()):
        raise linalg._non_finite_cauchy("amplitude system")
    stack, siblings = source.grid()[None], [tree.roots]
    for _ in range(tree.dimension):
        stack, errors = _peel_level(
            [np.array([node.pole for node in group], dtype=complex) for group in siblings], stack)
        if errors:
            raise errors[min(errors)]
        siblings = [node.children for group in siblings for node in group]
    return ExponentialSum.from_poles(poles, stack, source.P)


def recover_recursive(source, tol=DEFAULT_TOL, method="eig", seed=0, trace_sink=None):
    """Recover an exponential sum from a full coefficient grid.

    Builds the pole tree; the amplitudes are the residues of its leaf fits
    (see leaves_to_sum, which replays the same splits).  The spot check then
    draws SPOT_CHECK_POINTS indices with the seed: a reconstruction that
    misses the input coefficients there by a relative residual above
    RESYNTHESIS_TOL raises ResynthesisMismatch (the usual cause is a slice
    function vanishing at the origin, which hides one of the poles from its
    axis line).  The grid is read by one product, the root fit's solve.

    Returns (ExponentialSum, PoleTree).
    """
    check_nonnegative_int(seed, "seed")
    tree, amplitudes = _build(source, tol, method, trace_sink)
    signal = ExponentialSum.from_poles(tree.leaf_paths(), amplitudes, source.P)
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
