"""Full-grid recovery by recursive dimension reduction.

One coordinate is peeled at a time, and the pole tree is built one level
(one axis) at a time.  A level holds every node whose axis is the next to
peel, in depth-first (pre-order) order.  One stacked call of the line fit
(the kernel of rational.pole_residue_from_samples, with the same policy as
the line-based method, its pole-separation rule included) finds the distinct
poles on the central axis lines of all of them.  Its residue solve is a
Cauchy least squares solve (linalg.cauchy_lstsq) with one SVD per node.  So
the numpy calls of a tree grow with its levels and fit steps, not with its
nodes.  The root-to-leaf paths of the tree are the recovered pole vectors, so
pairing is automatic and repeated per-axis values are handled.

The grid is read once, through its two halves, as model._halves writes it.
Each node takes its poles and its pseudo-inverse from the line fit of its
central line.  In the leading h = d // 2 levels a node is that line alone:
the Kronecker product of the pseudo-inverses along its path, applied to a
sub-grid of the first axes.  One product of those rows with the grid, seen
as an (n^h, n^(d-h)) matrix, then gives the depth-h slices.  A trailing
node's pseudo-inverse, applied to its whole slice (_children), gives one
lower-dimensional child slice per pole, and at the last level, whose slices
are lines, the amplitudes of the terms below: a recovery solves no separate
amplitude system.  leaves_to_sum runs the same level walk (_build) on a
given tree, its pseudo-inverses from _split on the tree's poles, not the fit.

The walk ends with the leaf paths and their amplitudes, which define the
index-domain model sum_j a_j * prod_a 1/(k_a - b_ja).  recover_recursive
spot-checks that model against the grid and converts it to frequencies
(ExponentialSum.from_poles) once, for its result.
"""

import bisect
import functools
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


def peel_dimension(poles, parent_values):
    """Split a slice into one child slice per pole of its leading axis.

    For every tail index the samples along the leading axis satisfy a Cauchy
    system in the child values; the system matrix depends only on the poles,
    so linalg.cauchy_lstsq applies its pseudo-inverse to all tails in one
    matmul.  Non-finite parent values, and poles not finite or on (or a hair
    off) the sample points k = -N..N, raise BadParameters; more poles than
    samples or a rank deficient system raise IllConditioned.

    Returns the (len(poles), *tail) solution array: row j is the child slice
    of poles[j], as a trailing level of the pole tree splits a slice.
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
    children, errors, _ = linalg.cauchy_lstsq(b[None], _sample_points(n), vals[None],
                                              f"slice system for {b.size} poles")
    if errors:
        raise errors[0]
    return children[0]


def _split(poles, n):
    """The pseudo-inverses of one replayed tree level on the tree's poles,
    one linalg._cauchy_pinv call (one SVD) per pole count.

    poles[i] holds the poles of node i, whose lines have n samples.  Returns
    one outcome per node, in the line fit's shape with no residues and no
    trace: (poles[i], None, None, the (len(poles[i]), n) pseudo-inverse), or
    the error that refuses its system.  The level walk applies them.
    """
    k = _sample_points(n)
    by_count = {}
    for i, row in enumerate(poles):
        by_count.setdefault(len(row), []).append(i)
    out = [None] * len(poles)
    for count, idx in by_count.items():
        b = np.array([poles[i] for i in idx])
        pinv, errors = linalg._cauchy_pinv(b, k, f"slice system for {count} poles")
        for pos, i in enumerate(idx):
            out[i] = errors.get(pos, (b[pos], None, None, pinv[pos]))
    return out


def _children(pinvs, stack):
    """The children of a trailing level, depth first: row j of pinvs[i]
    times the slice stack[i] (a line at the leaf level) is the slice (the
    amplitude) of child j of node i, and a failed node (pinvs[i] None) has
    none.  A child outside the float range is left for the caller to refuse."""
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [pinv @ part.reshape(len(part), -1)
                 for pinv, part in zip(pinvs, stack) if pinv is not None]
    return np.concatenate(parts).reshape((-1,) + stack.shape[2:])


def _descend(weights, pinvs):
    """One split in the leading half of the axes, on weights alone.

    Row i of weights (r, n, ..., n), one axis per split so far, is what node
    i of a level applies to the leading axes of the grid: the Kronecker
    product, the first axis slowest, of the pseudo-inverse rows along its
    path (None for the root).  Returns the children's weights: the row of
    child j of node i is weights[i] times pinvs[i][j] on a new last axis,
    and pinvs[i] None (a failed node) has no children.
    """
    rows = np.concatenate([pinv for pinv in pinvs if pinv is not None])
    if weights is None:
        return rows
    parent = [i for i, pinv in enumerate(pinvs) if pinv is not None for _ in range(len(pinv))]
    shape = (len(rows),) + (1,) * (weights.ndim - 1) + rows.shape[1:]
    return weights[parent][..., None] * rows.reshape(shape)


def _read(grid, weights, free):
    """The slices of the nodes that weights (_descend) describe, by one
    product with the grid: the leading axes contracted with the weights, the
    next `free` axes kept and the others at their centre.  Returns
    (len(weights), n, ..., n) with `free` axes; a slice outside the float
    range is left as it is, for the caller to refuse."""
    lead = weights.ndim - 1
    part = grid[(slice(None),) * (lead + free) + (grid.shape[0] // 2,) * (grid.ndim - lead - free)]
    with np.errstate(over="ignore", invalid="ignore"):
        product = weights.reshape(len(weights), -1) @ part.reshape(weights[0].size, -1)
    return product.reshape((len(weights),) + part.shape[lead:])


def build_pole_tree(source, tol=DEFAULT_TOL, method="eig", trace_sink=None):
    """Pole tree of a full-grid coefficient source, built one level at a time.

    A level holds the nodes whose axis is the next to peel, in depth-first
    (pre-order) order.  One stacked line fit finds the poles on the central
    axis lines of all of them (at most source.N per line; a fit with two
    poles within rational.POLE_SEPARATION_RTOL of each other fails its node
    with IllConditioned).  In the leading half of the axes (the first
    d // 2) a node is its central line alone, read from the grid through the
    pseudo-inverses of the fits above it; the trailing half splits whole
    slices, one per pole; the last dimension's poles become leaves.

    Result and errors are those of a depth-first build.  A failing node is
    recorded with its depth-first key, the nodes whose key sorts after the
    earliest failure are dropped, and once no node is left that failure is
    raised as "at pole path {path}: ...".  trace_sink receives the AaaTrace
    of every fit in depth-first pre-order.
    """
    return _build(source, tol, method, trace_sink)[0]


def _build(source, tol=DEFAULT_TOL, method="eig", trace_sink=None, tree=None):
    """build_pole_tree, with the amplitudes and the leaf paths: (tree,
    amplitudes, paths), the amplitudes and the rows of the (M, d) complex
    array paths in depth-first leaf order, as PoleTree.leaf_paths lists
    them.  The one level walk of the module: given a tree, a level takes its
    outcomes from _split on the tree's poles instead of from the line fit
    (the replay of leaves_to_sum), and tol, method and trace_sink go unused.

    Every level fits the central lines of its slices (a replay takes the
    pseudo-inverses of the tree's poles instead), and one loop records its
    failures and takes the other nodes' poles and pseudo-inverses.  A
    leading level reads its children from the grid by the Kronecker products
    of those (_descend, _read), a trailing one splits its slices by them
    (_children).  One range check on each new stack fails the node whose
    split produced a row outside the float range.
    """
    if not isinstance(source.coverage, FullGrid):
        raise CoverageMismatch("recursive recovery needs full-grid coverage")
    n_half, d, grid = source.N, source.d, source.grid()
    lead = d // 2
    stack = grid[(slice(None),) + (n_half,) * (d - 1)][None]
    weights, keys, paths = None, [()], [()]
    levels, traced, failures = [], [], {}
    # in a replay, the tree's nodes below each node of the level
    groups = [] if tree is None else [tree.roots]
    for level in range(d):
        if tree is None:
            lines = stack[(slice(None), slice(None)) + (n_half,) * (stack.ndim - 2)]
            try:
                fits = _fit_lines(lines, tol, None, method)
            except ExpanalError as exc:
                # tol and method fail on the first line fitted, the root
                raise type(exc)(f"at pole path (): {exc}") from exc
        else:
            fits = _split([np.array([node.pole for node in group], dtype=complex)
                           for group in groups], len(grid))
            groups = [node.children for group in groups for node in group]
        poles, pinvs = [None] * len(fits), [None] * len(fits)
        for i, fit in enumerate(fits):
            if isinstance(fit, ExpanalError):
                failures[keys[i]] = (paths[i], fit)
            else:
                poles[i], pinvs[i] = fit[0], fit[3]
                traced.append((keys[i], fit[2]))
        levels.append(poles)
        keys = [key + (j,) for key, row in zip(keys, poles) if row is not None
                for j in range(len(row))]
        paths = [path + (pole,) for path, row in zip(paths, poles) if row is not None
                 for pole in row.tolist()]
        if not keys:
            break
        if level < lead:
            weights = _descend(weights, pinvs)
            stack = _read(grid, weights, 1 if level + 1 < lead else d - lead)
        else:
            stack = _children(pinvs, stack)
        # a row of the new stack is a child: its split was its parent's
        for row, exc in linalg._out_of_range(stack, "residue system").items():
            failures.setdefault(keys[row][:-1], (paths[row][:-1], exc))
        if failures:
            cut = bisect.bisect_left(keys, min(failures))
            stack, keys, paths, groups = stack[:cut], keys[:cut], paths[:cut], groups[:cut]
            if level < lead:
                weights = weights[:cut]
        if not keys:
            break

    first = min(failures) if failures else None
    if trace_sink is not None and tree is None:
        trace_sink.extend(trace for key, trace in sorted(traced, key=lambda pair: pair[0])
                          if first is None or key <= first)
    if failures:
        path, exc = failures[first]
        raise type(exc)(f"at pole path {path}: {exc}") from exc
    below = itertools.repeat(())
    for rows in reversed(levels):
        below = iter([tuple(TreeNode(pole=pole, children=next(below)) for pole in row.tolist())
                      for row in rows])
    return PoleTree(roots=next(below), dimension=d), stack, np.array(paths, dtype=complex)


def leaves_to_sum(tree, source):
    """Signal parameters from a pole tree and its full-grid source.

    The root-to-leaf pole paths give the frequency rows.  The amplitudes
    replay the tree's build on the source's grid: the build's own level walk
    (_build), each level's outcomes, in the line fit's shape, from the
    pseudo-inverses of the tree's poles (_split) in place of the fit, so it
    refuses an overflow in a build's words.  A leaf-level
    slice is a line, so its last split gives the amplitudes of its leaves,
    in depth-first leaf order.  On the source a tree was built from, these
    are the residues that recover_recursive takes from the leaf fits.  Each
    level solves its own least squares system, so on noisy data the
    amplitudes are not the least squares fit of the whole grid by the tree's
    terms.

    A tree whose dimension is not the source's raises ShapeMismatch; a
    malformed tree (PoleTree.validate), or a pole not finite or on (or a hair
    off) a sample point k = -N..N, raises BadParameters before any split.  A
    refused split raises as in a build: the error of the first node, depth
    first, that fails, as "at pole path {path}: ...".
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
    return ExponentialSum.from_poles(poles, _build(source, tree=tree)[1], source.P)


@functools.lru_cache(maxsize=16)
def _weyl_steps(d):
    """The R_d steps phi_d^-(a+1), a = 0..d-1, as a read-only array.

    phi_d is the positive root of x^(d+1) = x + 1.  The fixed-point map
    x -> (1 + x)^(1/(d+1)) contracts by at most 1 / (2 phi_1) < 0.31 near it,
    so 40 steps from 2 reach it to rounding."""
    phi = 2.0
    for _ in range(40):
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    steps = phi ** -np.arange(1.0, d + 1)
    steps.setflags(write=False)
    return steps


def _spot_check_picks(seed, N, d):
    """SPOT_CHECK_POINTS indices in [-N, N]^d from the R_d low-discrepancy walk.

    Coordinate a of pick i = 1..SPOT_CHECK_POINTS is
    floor(frac(u_a + i alpha_a) (2N + 1)) - N, with the steps alpha_a of
    _weyl_steps and the start u_a = frac((seed mod 2^32) alpha_a).  The
    arithmetic is in floats, so no seed or d overflows it, and it needs no
    numpy.random, whose import costs a CLI recovery more than the check."""
    steps = _weyl_steps(d)
    start = np.modf((seed % 2 ** 32) * steps)[0]
    walk = np.modf(start + np.arange(1.0, SPOT_CHECK_POINTS + 1)[:, None] * steps)[0]
    return np.floor(walk * (2 * N + 1)).astype(np.intp) - N


def recover_recursive(source, tol=DEFAULT_TOL, method="eig", seed=0, trace_sink=None):
    """Recover an exponential sum from a full coefficient grid.

    Builds the pole tree; the amplitudes are the residues of its leaf fits
    (see leaves_to_sum, which replays the same splits).  The leaf paths b_j
    and amplitudes a_j become the result's frequencies and coefficients
    (ExponentialSum.from_poles).  The spot check then takes
    SPOT_CHECK_POINTS indices k from the R_d low-discrepancy walk that the
    seed offsets (_spot_check_picks; no recovery loads numpy.random) and
    evaluates the leaf fits' own index-domain sum there,
    sum_j a_j * prod_a 1/(k_a - b_ja): a model that misses the input
    coefficients by a relative residual above RESYNTHESIS_TOL raises
    ResynthesisMismatch (the usual cause is a slice function vanishing at
    the origin, which hides one of the poles from its axis line).  The grid
    is read by one product, of the Kronecker rows of the leading half's
    pseudo-inverses with the grid (see _build).

    Returns (ExponentialSum, PoleTree).
    """
    check_nonnegative_int(seed, "seed")
    tree, amplitudes, paths = _build(source, tol, method, trace_sink)
    signal = ExponentialSum.from_poles(paths, amplitudes, source.P)
    picks = _spot_check_picks(seed, source.N, source.d)
    data = source.grid()[tuple((picks + source.N).T)]
    model = (1 / (picks[:, None, :] - paths)).prod(axis=2) @ amplitudes
    scale = np.abs(data).max()
    if scale > 0:
        residual = np.abs(model - data).max() / scale
        if residual > RESYNTHESIS_TOL:
            raise ResynthesisMismatch(
                f"reconstruction misses the input coefficients by a relative "
                f"{residual:.3e} > RESYNTHESIS_TOL = {RESYNTHESIS_TOL:.0e}; the data "
                f"may hide a pole")
    return signal, tree
