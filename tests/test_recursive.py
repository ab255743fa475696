"""Tests for the full-grid recursive dimension-reduction pipeline."""

import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from expanal import (
    CoefficientSource,
    ExponentialSum,
    FullGrid,
    PoleTree,
    SparseLines,
    build_pole_tree,
    leaves_to_sum,
    peel_dimension,
    recover_recursive,
    recover_sparse,
    relative_errors,
    TreeNode,
)
from expanal.errors import (
    BadParameters,
    CoverageMismatch,
    ExpanalError,
    IllConditioned,
    NoConvergence,
    ResynthesisMismatch,
    ShapeMismatch,
)
from expanal import rational, recursive
from expanal.model import TWO_PI_I
from expanal.rational import pole_residue_from_samples
from expanal.linalg import cauchy_lstsq

from cases import (
    ALL_REFERENCE,
    BIVARIATE_5,
    QUADVARIATE_8,
    QUADVARIATE_9,
    TRIVARIATE_4,
    TRIVARIATE_6,
    TRIVARIATE_8,
    random_axis_distinct,
    random_coefficients,
    random_poles,
    signal_from_amplitudes,
    signal_from_poles,
)
from oracles import (
    dense_amplitude_coefficients,
    depth_first_pole_tree,
    grid_contracting_leaves_to_sum,
    per_node_peel_leaves_to_sum,
    sort_complex,
    with_close_pair,
)


def index_pole(frequency, P):
    return frequency * P / TWO_PI_I


def repeated_axis_signal():
    """Four terms whose first two share their axis-0 pole (three roots)."""
    rng = np.random.default_rng(9)
    shared = complex(0.6, 0.8)
    col0 = np.concatenate([[shared, shared], random_poles(rng, 2, 2.5)])
    col1 = random_poles(rng, 4, 2.5)
    col2 = random_poles(rng, 4, 2.5)
    poles = np.column_stack([col0, col1, col2])
    return signal_from_amplitudes(poles, random_coefficients(rng, 4), 2.0)


def peak_grids(call, *args, grid):
    """Peak traced allocation of call(*args), in units of grid's bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1] / grid.nbytes
    finally:
        tracemalloc.stop()


def noisy_repeated_axis_grid(clean, level=1e-3):
    """The repeated-axis grid with relative noise `level`, seeded."""
    rng = np.random.default_rng(30)
    noise = rng.standard_normal(clean.grid().shape) + 1j * rng.standard_normal(clean.grid().shape)
    return CoefficientSource(3, 2.0, 10, FullGrid(),
                             clean.grid() + level * np.abs(clean.grid()).max() * noise)


def hand_tree(paths, d):
    """A validated tree with one root-to-leaf path per row of paths."""

    def node(path):
        below = (node(path[1:]),) if len(path) > 1 else ()
        return TreeNode(pole=complex(path[0]), children=below)

    return PoleTree(roots=tuple(node(path) for path in paths), dimension=d).validate()


def root_poles(source):
    return np.array([root.pole for root in build_pole_tree(source).roots])


def line_poles(line):
    return pole_residue_from_samples(line)[0].poles


class TestDistinctPoles:
    """The roots of the pole tree: the distinct poles of the first axis line."""

    def test_reference_roots(self):
        case = QUADVARIATE_9
        poles = root_poles(case.signal.synthesize(case.P, case.N, FullGrid()))
        expected = sort_complex(index_pole(np.array([2 + 2j, 3 + 1j]), case.P))
        assert len(poles) == 2
        assert np.abs(poles - expected).max() <= 1e-10

    def test_single_term(self):
        rng = np.random.default_rng(0)
        sig, poles = random_axis_distinct(rng, 1, 2, tau=3)
        fitted = root_poles(sig.synthesize(2.0, 8, FullGrid()))
        assert len(fitted) == 1 and abs(fitted[0] - poles[0, 0]) <= 1e-10

    def test_two_distinct(self):
        rng = np.random.default_rng(1)
        sig, poles = random_axis_distinct(rng, 2, 1, tau=3)
        fitted = root_poles(sig.synthesize(2.0, 10, FullGrid()))
        assert len(fitted) == 2
        assert np.abs(fitted - sort_complex(poles[:, 0])).max() <= 1e-10

    def test_order_cap_failure(self):
        # the fit may take at most N = 10 poles on 21 samples of noise
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        with pytest.raises(NoConvergence):
            build_pole_tree(CoefficientSource(1, 2.0, 10, FullGrid(), noise))


class TestPeelDimension:
    def test_single_pole(self):
        # one pole: each tail's child value is the exact numerator
        rng = np.random.default_rng(2)
        b = 0.4 + 0.7j
        child_truth = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        k = np.arange(-4, 5, dtype=float)
        parent = child_truth[None, :] / (k[:, None] - b)
        pieces = peel_dimension([b], parent)
        assert pieces.shape == (1, 9)
        assert np.abs(pieces[0] - child_truth).max() <= 1e-12

    def test_two_pole_synthetic(self):
        rng = np.random.default_rng(3)
        b_first = np.array([0.5 + 0.6j, -0.9 - 0.4j])
        b_second = np.array([0.2 + 0.9j, -0.6 + 1.2j])
        amps = random_coefficients(rng, 2)
        n = 8
        k = np.arange(-n, n + 1, dtype=float)
        parent = sum(
            a / np.multiply.outer(k - p, k - q)
            for a, p, q in zip(amps, b_first, b_second)
        )
        pieces = peel_dimension(b_first, parent)
        assert pieces.shape == (2, 2 * n + 1)
        for piece, a, q in zip(pieces, amps, b_second):
            expected = a / (k - q)
            assert np.abs(piece - expected).max() <= 1e-11

    def test_reference_level_one(self):
        case = QUADVARIATE_9
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        pieces = peel_dimension(line_poles(src.axis_line(0)), src.grid())
        assert pieces.shape == (2,) + src.grid().shape[1:]
        # roots sort with the (3+i)-image first; its children map from
        # {-pi, 0.2i}, the other root's from {0.2i, -2}
        first_kids = sort_complex(index_pole(np.array([-np.pi, 0.2j]), case.P))
        second_kids = sort_complex(index_pole(np.array([0.2j, -2.0]), case.P))
        for piece, expected in zip(pieces, (first_kids, second_kids)):
            line = piece[(slice(None),) + (case.N,) * (piece.ndim - 1)]
            assert np.abs(line_poles(line) - expected).max() <= 1e-9

    def test_even_leading_axis_rejected(self):
        with pytest.raises(ShapeMismatch, match="odd number"):
            peel_dimension([0.5], np.ones((4, 4)))

    def test_stacked_peel_pins_a_lapack_failure(self, monkeypatch):
        # an SVD failure fails the whole stacked peel; it is redone slice by
        # slice, so only the slice whose own SVD fails carries the error
        rng = np.random.default_rng(5)
        b = np.array([[0.4 + 0.7j], [-1.3 + 0.2j], [2.2 - 0.6j]])
        slices = rng.standard_normal((3, 9, 4)) + 0j
        svd = np.linalg.svd

        def failing(a, *args, **kwargs):
            if np.abs(a[..., 0, 0] - 1.0 / (-4 - b[1, 0])).min() == 0.0:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        children, errors, _ = cauchy_lstsq(b, np.arange(-4, 5, dtype=float), slices,
                                           "slice system")
        assert list(errors) == [1] and "SVD did not converge" in str(errors[1])
        monkeypatch.undo()
        for i in (0, 2):
            assert np.array_equal(children[i], peel_dimension(b[i], slices[i]))

    # checked before any division, so neither names an internal argument
    # nor warns of a division by zero
    @pytest.mark.parametrize("poles, message", [
        ([], "need at least one pole"),
        ([0.5 + 0.2j, -2.0], "sample points must be disjoint from the poles"),
    ], ids=["no-poles", "pole-on-sample"])
    def test_poles_checked_before_dividing(self, poles, message):
        with pytest.raises(BadParameters, match=message):
            peel_dimension(poles, np.ones((9, 4), dtype=complex))

    def test_non_finite_parent_refused(self):
        # the tree reads a CoefficientSource, which refuses non-finite values;
        # the public peel checks its own, instead of giving a NaN child
        values = np.ones((7, 3), dtype=complex)
        values[2, 1] = np.nan
        with pytest.raises(BadParameters, match="parent_values contains non-finite"):
            peel_dimension([0.5j], values)

    def test_pole_a_hair_off_a_sample_refused(self):
        # 1/(0 - 1e-320j) overflows: the Cauchy matrix is refused before its
        # SVD, without a RuntimeWarning, instead of giving NaN children
        with pytest.raises(BadParameters, match="slice system for 2 poles has non-finite"):
            peel_dimension([1e-320j, 1.5 + 0.2j], np.ones((7, 3)))

    # an overflowing solution is found by its values: a floating-point status
    # flag set inside a BLAS worker thread is not seen by the calling thread
    _OVERFLOW_PROBE = """
import numpy as np
from expanal.errors import BadParameters
from expanal.recursive import peel_dimension
values = np.ones((11, 60000), dtype=complex)
values[:, -1] = 1.5e308
try:
    peel_dimension([50j, 3 + 1j, -2 + 0.5j], values)
except BadParameters as exc:
    print(exc)
"""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflowing_children_refused_in_any_blas_thread(self, threads):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c",
                               self._OVERFLOW_PROBE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ("slice system for 3 poles has a solution "
                                       "outside the float range")

    def test_more_poles_than_samples_refused(self):
        with pytest.raises(IllConditioned, match=r"slice system for 4 poles .*ratio 0\.000e\+00"):
            peel_dimension([0.5j, 1.5j, -0.5j, 0.3 + 0.2j], np.ones((3, 2)))

    def test_close_poles_refused(self):
        k = np.arange(-6, 7, dtype=float)
        slice_ = (1.0 / (k - 0.5j))[:, None] * np.ones(3)
        with pytest.raises(IllConditioned, match="slice system for 2 poles is numerically"):
            peel_dimension([0.5j, 0.5j + 1e-15], slice_)


class TestBuildPoleTree:
    def test_reference_tree_shape(self):
        case = QUADVARIATE_9
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        tree = build_pole_tree(src)
        assert tree.level_sizes() == [2, 4, 5, 9]
        assert tree.order == 9

    def test_single_term_is_a_path(self):
        rng = np.random.default_rng(4)
        sig, _ = random_axis_distinct(rng, 1, 3, tau=3)
        src = sig.synthesize(2.0, 6, FullGrid())
        tree = build_pole_tree(src)
        assert tree.level_sizes() == [1, 1, 1]

    def test_shared_triple_root(self):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        tree = build_pole_tree(src)
        assert len(tree.roots) == 2
        assert tree.order == 4

    def test_requires_full_grid(self):
        rng = np.random.default_rng(5)
        sig, _ = random_axis_distinct(rng, 2, 2, tau=3)
        src = sig.synthesize(2.0, 8, SparseLines(3))
        with pytest.raises(CoverageMismatch):
            build_pole_tree(src)

    def test_tree_paths_cover_signal(self):
        rng = np.random.default_rng(6)
        sig, poles = random_axis_distinct(rng, 3, 2, tau=3)
        src = sig.synthesize(2.0, 10, FullGrid())
        tree = build_pole_tree(src)
        fitted = tree.leaf_paths()
        matched = relative_errors(
            sig,
            signal_from_poles(fitted, np.ones(len(fitted), dtype=complex), 2.0),
        )
        assert matched.frequency_error <= 1e-9

    def test_json_shape(self):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        tree = build_pole_tree(src)
        obj = tree.to_json()
        assert obj["dimension"] == 3 and len(obj["roots"]) == 2
        leaf = obj["roots"][0]["children"][0]["children"][0]
        assert leaf["multiplicity"] == 1 and leaf["children"] == []

    @pytest.mark.parametrize("roots, message", [
        ([(1j, [2j]), (1j, [3j])], "root poles"),
        ([(1j, [2j, 2j])], "sibling poles"),
        ([(1j, []), (2j, [3j])], "leaf at depth 1"),
        ([(1j, [(2j, [3j])])], "interior node at depth 2"),
    ], ids=["equal-roots", "equal-siblings", "short-path", "long-path"])
    def test_validate_refuses_malformed_trees(self, roots, message):
        def node(spec):
            pole, children = spec if isinstance(spec, tuple) else (spec, [])
            return TreeNode(pole=pole, children=tuple(map(node, children)))

        tree = PoleTree(roots=tuple(map(node, roots)), dimension=2)
        with pytest.raises(BadParameters, match=message):
            tree.validate()


def _build(build, source, **kwargs):
    """(tree or the error raised, the traces the sink received)."""
    traces = []
    try:
        return build(source, trace_sink=traces, **kwargs), traces
    except ExpanalError as exc:
        return exc, traces


def _shape(node_json):
    return [_shape(child) for child in node_json["children"]]


def assert_matches_depth_first(source, **kwargs):
    """build_pole_tree gives the depth-first tree of the oracle: the same
    shape, poles within 1e-13, the same traces in the same order (residual
    histories within 1e-13, relative, or 1e-14 of their first entry), or the
    same first error."""
    tree, traces = _build(build_pole_tree, source, **kwargs)
    ref, ref_traces = _build(depth_first_pole_tree, source, **kwargs)
    assert [(t.iterations, t.chosen_support_order, t.converged) for t in traces] \
        == [(t.iterations, t.chosen_support_order, t.converged) for t in ref_traces]
    for trace, ref_trace in zip(traces, ref_traces):
        # a converged entry is round-off, which the order of the products moves
        np.testing.assert_allclose(trace.max_residual_history,
                                   ref_trace.max_residual_history, rtol=1e-13,
                                   atol=1e-14 * ref_trace.max_residual_history[0])
    if isinstance(ref, ExpanalError):
        assert type(tree) is type(ref)
        assert str(tree) == str(ref)
        return ref
    assert [_shape(r) for r in tree.to_json()["roots"]] \
        == [_shape(r) for r in ref.to_json()["roots"]]
    paths, ref_paths = tree.leaf_paths(), ref.leaf_paths()
    assert np.abs(paths - ref_paths).max() <= 1e-13 * np.abs(ref_paths).max()
    return ref


def random_grids(count=24):
    """Seeded grids, d = 2..4, M = 1..6: per-axis poles drawn from pools of
    three, so axis values repeat; every other grid noisy, fitted at tol 1e-8."""
    rng = np.random.default_rng(77)
    grids = []
    for i in range(count):
        d, order, n_half = (int(x) for x in rng.integers((2, 1, 5), (5, 7, 9)))
        pools = [random_poles(rng, 3, 2.5) for _ in range(d)]
        rows = set()
        while len(rows) < order:
            rows.add(tuple(int(x) for x in rng.integers(0, 3, d)))
        poles = np.array([[pools[a][r[a]] for a in range(d)] for r in sorted(rows)])
        signal = signal_from_amplitudes(poles, random_coefficients(rng, order), 2.0)
        grid, tol = signal.synthesize(2.0, n_half, FullGrid()).grid(), 1e-12
        if i % 2:
            noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
            grid = grid + 10.0 ** rng.uniform(-12, -7) * np.abs(grid).max() * noise
            tol = 1e-8
        grids.append((CoefficientSource(d, 2.0, n_half, FullGrid(), grid), tol))
    return grids


class TestLevelBuild:
    """build_pole_tree, one level at a time, against the depth-first oracle."""

    @pytest.mark.parametrize("case", ALL_REFERENCE, ids=lambda c: c.name)
    def test_reference_grids(self, case):
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        assert not isinstance(assert_matches_depth_first(src), ExpanalError)

    @pytest.mark.parametrize("case", [TRIVARIATE_4, QUADVARIATE_9], ids=lambda c: c.name)
    def test_reference_grids_pencil(self, case):
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        assert not isinstance(assert_matches_depth_first(src, method="pencil"),
                              ExpanalError)

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    def test_random_grids(self, method):
        outcomes = [assert_matches_depth_first(src, tol=tol, method=method)
                    for src, tol in random_grids()]
        failed = sum(isinstance(out, ExpanalError) for out in outcomes)
        assert 0 < failed < len(outcomes)

    def test_first_error_of_two_failing_subtrees(self):
        # the second root's slice fails on its own line at depth 2, the first
        # root's at depth 3 below its first child: the level build meets the
        # depth-2 failure first, yet must raise the depth-3 one that a
        # depth-first build meets first
        rng = np.random.default_rng(8)
        n_half = 8
        k = np.arange(-n_half, n_half + 1, dtype=float)
        noise = rng.standard_normal((2, 2 * n_half + 1, 2 * n_half + 1)) * (1 + 1j)
        first = (np.multiply.outer(1.0 / (k - (0.3 + 0.6j)), noise[0, 0])
                 + np.multiply.outer(1.0 / (k - (1.4 - 0.5j)), 0.7 / (k - (-0.8 + 0.9j))))
        grid = (np.multiply.outer(1.0 / (k - (-1.5 + 0.4j)), first)
                + np.multiply.outer(1.0 / (k - (2.1 - 0.7j)), noise[1]))
        src = CoefficientSource(3, 2.0, n_half, FullGrid(), grid)
        ref = assert_matches_depth_first(src)
        assert isinstance(ref, ExpanalError)
        # the pole path of the first root's first child: (-1.5+0.4j, 0.3+0.6j)
        assert str(ref).startswith("at pole path ((-1.5")
        assert "), (0.3" in str(ref).split(": ")[0]

    def test_nodes_after_the_first_failure_are_not_fitted(self, monkeypatch):
        # the first root's slice fails at depth 2; the second root's child
        # line at depth 3 comes after it depth first and is never fitted
        rng = np.random.default_rng(3)
        n_half = 6
        k = np.arange(-n_half, n_half + 1, dtype=float)
        noise = rng.standard_normal((2 * n_half + 1,) * 2) * (1 + 1j)
        good = np.multiply.outer(1.0 / (k - (0.4 + 0.9j)), 1.0 / (k - (-1.1 + 0.3j)))
        grid = (np.multiply.outer(1.0 / (k - (-1.5 + 0.4j)), noise)
                + np.multiply.outer(1.0 / (k - (2.1 - 0.7j)), good))
        src = CoefficientSource(3, 2.0, n_half, FullGrid(), grid)
        fit, stacks = recursive._fit_lines, []

        def counted(lines, *args):
            stacks.append(len(lines))
            return fit(lines, *args)

        monkeypatch.setattr(recursive, "_fit_lines", counted)
        assert isinstance(assert_matches_depth_first(src), ExpanalError)
        assert stacks == [1, 2]

    def test_product_outside_the_float_range_fails_its_parent(self):
        # one term, its poles on axes 0 and 1 far from the samples, so the
        # pseudo-inverse entries reach about 3 and their Kronecker products
        # about 8; 1.7e308 off every central line leaves the fitted lines
        # finite, and the product of the depth-2 weights with the grid
        # overflows: that split is the depth-1 node's, a path of one pole
        k = np.arange(-3, 4, dtype=float)
        factors = [1.0 / (k - pole) for pole in (20j, -20j, 0.7 - 0.6j, 1.3 + 0.2j)]
        grid = np.multiply.outer(np.multiply.outer(factors[0], factors[1]),
                                 np.multiply.outer(factors[2], factors[3]))
        grid[:3, :3, :3, :3] = 1.7e308
        src = CoefficientSource(4, 2.0, 3, FullGrid(), grid)
        with pytest.raises(BadParameters, match=r"^at pole path \(\([^()]*\),\): "
                                                r"residue system has a solution outside"):
            build_pole_tree(src)

    def test_child_outside_the_float_range_fails_its_trailing_parent(self):
        # d = 3: the depth-1 slice is split by its node's pseudo-inverse,
        # whose entries for the pole 30j reach about 30; 1.7e308 off the
        # node's central line leaves its fit finite and overflows the split.
        # The build and the replay on the clean grid's tree fail that node
        # alike, and the node's own fit reaches trace_sink
        k = np.arange(-3, 4, dtype=float)
        factors = [1.0 / (k - pole) for pole in (0.7 - 0.6j, 30j, 1.3 + 0.2j)]
        grid = np.multiply.outer(np.multiply.outer(factors[0], factors[1]), factors[2])
        tree = build_pole_tree(CoefficientSource(3, 2.0, 3, FullGrid(), grid))
        grid[3, :2, 0] = 1.7e308
        src = CoefficientSource(3, 2.0, 3, FullGrid(), grid)
        expected = (f"at pole path ({tree.roots[0].pole},): residue system has a "
                    f"solution outside the float range")
        traces = []
        with pytest.raises(BadParameters) as built:
            build_pole_tree(src, trace_sink=traces)
        assert str(built.value) == expected and len(traces) == 2
        with pytest.raises(BadParameters) as replayed:
            leaves_to_sum(tree, src)
        assert str(replayed.value) == expected

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": 0.0}, "tol"), ({"method": "qz"}, "method"),
    ])
    def test_argument_errors_name_the_root(self, kwargs, match):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        ref = assert_matches_depth_first(src, **kwargs)
        assert isinstance(ref, BadParameters)
        assert str(ref).startswith("at pole path (): ") and match in str(ref)


def _slices(tree):
    """(depth, pole count) of every fitted slice, in depth-first pre-order."""
    out = [(1, len(tree.roots))]

    def walk(nodes, depth):
        for node in nodes:
            if node.children:
                out.append((depth + 1, len(node.children)))
                walk(node.children, depth + 1)

    walk(tree.roots, 1)
    return out


def _count_linalg(monkeypatch):
    """The counts of the np.linalg svd, eigvals and lstsq calls made from now
    on, filled in as they are made."""
    counts = {}
    for name in ("svd", "eigvals", "lstsq"):
        def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


class TestStackedCalls:
    """The LAPACK calls of a tree grow with its levels and fit steps, not with
    its nodes: trivariate-6 makes 11 svd, 1 eigvals and no lstsq call, and
    quadvariate-8 16, 2 and 0.  The pencil adds at most one svd per (level,
    support size) group (14 and 21 svd).  The replay of leaves_to_sum fits
    no line."""

    @pytest.mark.parametrize("case, method", [
        pytest.param(case, method, id=case.name + ("" if method == "eig" else "-pencil"))
        for method in ("eig", "pencil") for case in (TRIVARIATE_6, QUADVARIATE_8)
    ])
    def test_call_counts(self, case, method, monkeypatch):
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        counts = _count_linalg(monkeypatch)
        traces = []
        tree = build_pole_tree(src, method=method, trace_sink=traces)
        monkeypatch.undo()
        slices = _slices(tree)
        depths = {depth for depth, _ in slices}
        # (level, support size) groups of the fit, and the longest fit of each level
        fit_groups = {(depth, t.iterations) for (depth, _), t in zip(slices, traces)}
        steps = sum(max(t.iterations for (dd, _), t in zip(slices, traces) if dd == depth)
                    for depth in depths)
        assert counts.get("eigvals", 0) <= len(fit_groups)
        # lines whose fit kept fewer poles than its m support points give m - 1:
        # the spurious filter may have refitted their residues
        refits = sum(count < t.iterations - 1 for (_, count), t in zip(slices, traces))
        # one svd per greedy step after the first, one per fit group for the
        # residue solve, whose pseudo-inverses split the slices, and one per
        # spurious refit, and the pencil's one per fit group
        svd_bound = steps - len(depths) + len(fit_groups) + refits
        assert counts.get("svd", 0) <= svd_bound + (method == "pencil") * len(fit_groups)
        # every Cauchy system goes through the one stacked SVD solve
        assert counts.get("lstsq", 0) == 0

    @pytest.mark.parametrize("case", [TRIVARIATE_6, QUADVARIATE_8], ids=lambda c: c.name)
    def test_replay_fits_no_line(self, case, monkeypatch):
        # leaves_to_sum takes every level's poles from the tree: no line
        # fit, no eigenproblem, one svd per (level, pole count) group
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        signal, tree = recover_recursive(src)

        def no_fit(*args):
            raise AssertionError("a replay fits no line")

        monkeypatch.setattr(recursive, "_fit_lines", no_fit)
        counts = _count_linalg(monkeypatch)
        replay = leaves_to_sum(tree, src)
        monkeypatch.undo()
        assert 0 < counts.get("svd", 0) <= len(set(_slices(tree)))
        assert counts.get("eigvals", 0) == 0 and counts.get("lstsq", 0) == 0
        scale = np.abs(replay.coefficients).max()
        assert np.abs(replay.coefficients - signal.coefficients).max() <= 1e-13 * scale


class TestLeavesToSum:
    @pytest.mark.parametrize("case, method", [
        pytest.param(case, method, id=case.name + ("" if method == "eig" else "-pencil"))
        for method in ("eig", "pencil") for case in ALL_REFERENCE
    ])
    def test_replay_matches_the_build_bitwise(self, case, method):
        # the replay splits by the pseudo-inverses of the tree's poles, the
        # same ones the fits' residue solve applied, so it gives the same bits
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        signal, tree = recover_recursive(src, method=method)
        replay = leaves_to_sum(tree, src)
        assert np.array_equal(replay.frequencies, signal.frequencies)
        assert np.array_equal(replay.coefficients, signal.coefficients)

    def test_single_leaf_closed_form(self):
        rng = np.random.default_rng(7)
        sig, _ = random_axis_distinct(rng, 1, 2, tau=3)
        src = sig.synthesize(2.0, 6, FullGrid())
        tree = build_pole_tree(src)
        rec = leaves_to_sum(tree, src)
        report = relative_errors(sig, rec)
        assert report.coefficient_error <= 1e-11

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_dense_lstsq(self, d):
        # on the clean grid the peels interpolate, so they give the global
        # least squares amplitudes; noise leaves a residual, and each level
        # then solves its own least squares system, as one peel per node does
        rng = np.random.default_rng(20 + d)
        sig, _ = random_axis_distinct(rng, 4, d, tau=3)
        clean = sig.synthesize(2.0, 6, FullGrid())
        tree = build_pole_tree(clean)
        rec = leaves_to_sum(tree, clean)
        oracle = dense_amplitude_coefficients(tree.leaf_paths(), clean.grid(), 2.0)
        assert np.abs(rec.coefficients - oracle).max() <= 1e-12 * np.abs(oracle).max()
        noise = rng.standard_normal(clean.grid().shape) + 1j * rng.standard_normal(clean.grid().shape)
        noisy = clean.grid() + 1e-3 * np.abs(clean.grid()).max() * noise
        src = CoefficientSource(d, 2.0, 6, FullGrid(), noisy)
        rec = leaves_to_sum(tree, src)
        oracle = per_node_peel_leaves_to_sum(tree, src).coefficients
        assert np.abs(rec.coefficients - oracle).max() <= 1e-13 * np.abs(oracle).max()

    @pytest.mark.parametrize("case", [BIVARIATE_5, TRIVARIATE_8], ids=lambda c: c.name)
    def test_refined_reference_grids_match_dense_lstsq(self, case):
        # the global solve the tests take as reference: its normal system
        # alone lands 4e-14 to 9e-14 from the dense solution here, and its
        # one refinement step brings it to about 1e-15
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        tree = build_pole_tree(src)
        rec = grid_contracting_leaves_to_sum(tree, src)
        oracle = dense_amplitude_coefficients(tree.leaf_paths(), src.grid(), case.P)
        assert np.abs(rec.coefficients - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_repeated_axis_pole_matches_dense_lstsq(self):
        # the shared root pole splits its slice into one child per leaf pole
        # below it; on the noisy grid the amplitudes are the level-wise fit
        clean = repeated_axis_signal().synthesize(2.0, 10, FullGrid())
        tree = build_pole_tree(clean)
        assert len(tree.roots) == 3 and tree.order == 4
        rec = leaves_to_sum(tree, clean)
        oracle = dense_amplitude_coefficients(tree.leaf_paths(), clean.grid(), 2.0)
        assert np.abs(rec.coefficients - oracle).max() <= 1e-12 * np.abs(oracle).max()
        noisy = noisy_repeated_axis_grid(clean)
        rec = leaves_to_sum(tree, noisy)
        oracle = per_node_peel_leaves_to_sum(tree, noisy).coefficients
        assert np.abs(rec.coefficients - oracle).max() <= 1e-13 * np.abs(oracle).max()

    def test_quadvariate_9_matches_dense_lstsq(self):
        # the worst-conditioned reference grid: the level-wise fit lands
        # 1.6e-13 from the dense solution
        case = QUADVARIATE_9
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        tree = build_pole_tree(src)
        rec = leaves_to_sum(tree, src)
        oracle = dense_amplitude_coefficients(tree.leaf_paths(), src.grid(), case.P)
        assert np.abs(rec.coefficients - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @staticmethod
    def _near_duplicate_roots(gap):
        """A one-term bivariate grid and a tree with its root pole twice, the
        second copy `gap` away, each above the term's leaf pole."""
        rng = np.random.default_rng(12)
        sig, poles = random_axis_distinct(rng, 1, 2, tau=3)
        src = sig.synthesize(2.0, 8, FullGrid())

        def path(p):
            leaf = TreeNode(pole=complex(p[1]), children=())
            return TreeNode(pole=complex(p[0]), children=(leaf,))

        tree = PoleTree(roots=(path(poles[0]), path(poles[0] + gap)), dimension=2)
        return sig, src, tree.validate()

    def test_near_duplicate_paths_ill_conditioned(self):
        # the root peel's Cauchy matrix has a singular value ratio of about
        # 1.8e-15 for roots 1e-14 apart, below the rank rule's RCOND; the
        # refusal names the pole path of the slice, as in a build
        _, src, tree = self._near_duplicate_roots(1e-14)
        with pytest.raises(IllConditioned, match=r"^at pole path \(\): slice system for 2 "
                                                 r"poles is numerically"):
            leaves_to_sum(tree, src)

    # a second copy of the first root's first child, 1e-14 away: the split of
    # the first root's slice (level 1) is rank deficient, in the leading half
    # of the axes on quadvariate-8 (a pseudo-inverse) and in the trailing half
    # on bivariate-5 (a peel of the slice)
    @pytest.mark.parametrize("case", [QUADVARIATE_8, BIVARIATE_5], ids=lambda c: c.name)
    def test_near_duplicate_child_names_its_pole_path(self, case):
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        built = build_pole_tree(src)
        first = built.roots[0]
        child = first.children[0]
        twin = TreeNode(pole=child.pole + 1e-14, children=child.children)
        root = TreeNode(pole=first.pole, children=(child, twin) + first.children[1:])
        tree = PoleTree(roots=(root,) + built.roots[1:], dimension=built.dimension).validate()
        with pytest.raises(IllConditioned) as info:
            leaves_to_sum(tree, src)
        assert str(info.value).startswith(
            f"at pole path {(first.pole,)}: slice system for {len(root.children)} poles "
            f"is numerically rank deficient")

    def test_near_duplicate_paths_1e9_apart_solved(self):
        # 1e-9 apart the ratio is about 1.7e-10, above RCOND: the root peel
        # puts the term on the first copy (1.5e-7 off, relative) and next to
        # nothing (8e-8 of it) on the second
        sig, src, tree = self._near_duplicate_roots(1e-9)
        rec = leaves_to_sum(tree, src)
        truth = sig.coefficients[0]
        assert abs(rec.coefficients[0] - truth) <= 1e-6 * abs(truth)
        assert abs(rec.coefficients[1]) <= 1e-6 * abs(truth)

    def test_overflow_refused_in_the_words_of_a_build(self):
        # the replay range-checks only what the level walk makes with the
        # tree's pseudo-inverses, as a build does, so both refuse alike
        k = np.arange(-3, 4)
        grid = sum(1 / (k[:, None] - a) / (k[None, :] - b)
                   for a, b in [(20j, 0.7 - 0.6j), (-20j, 1.3 + 0.2j)])
        grid = grid / np.abs(grid).max()
        tree = build_pole_tree(CoefficientSource(2, 1.0, 3, FullGrid(), grid))
        huge = CoefficientSource(2, 1.0, 3, FullGrid(), grid * 3e307)
        words = r"^at pole path \(\): residue system has a solution outside the float range$"
        with pytest.raises(BadParameters, match=words):
            build_pole_tree(huge)
        with pytest.raises(BadParameters, match=words):
            leaves_to_sum(tree, huge)

    @pytest.mark.parametrize("case", ALL_REFERENCE + ("univariate", "noisy-repeated-axis",
                                                      "unsorted-roots"),
                             ids=lambda c: getattr(c, "name", c))
    def test_carried_one_call_and_grid_contracting_agree(self, case):
        # the replay reads the grid through the source alone, so an equal
        # grid held by another source gives the same amplitudes; they are the
        # level-wise fit of one peel per node, and on clean grids they are
        # within 1e-12 of the global fit (quadvariate-9 lands 1.6e-13 away)
        if case == "univariate":
            sig, _ = random_axis_distinct(np.random.default_rng(40), 4, 1, tau=3)
            src = sig.synthesize(2.0, 8, FullGrid())
            tree = build_pole_tree(src)
        elif case == "noisy-repeated-axis":
            clean = repeated_axis_signal().synthesize(2.0, 10, FullGrid())
            src = noisy_repeated_axis_grid(clean)
            tree = build_pole_tree(clean)
        elif case == "unsorted-roots":
            # the peels follow the tree's root order, not sorted order
            src = TRIVARIATE_6.signal.synthesize(TRIVARIATE_6.P, TRIVARIATE_6.N, FullGrid())
            built = build_pole_tree(src)
            tree = PoleTree(roots=built.roots[::-1], dimension=3)
        else:
            src = case.signal.synthesize(case.P, case.N, FullGrid())
            tree = build_pole_tree(src)
        twin = CoefficientSource(src.d, src.P, src.N, FullGrid(), src.grid().copy())
        rec = leaves_to_sum(tree, src).coefficients
        assert np.array_equal(leaves_to_sum(tree, twin).coefficients, rec)
        oracle = per_node_peel_leaves_to_sum(tree, src).coefficients
        assert np.abs(rec - oracle).max() <= 1e-13 * np.abs(oracle).max()
        if case != "noisy-repeated-axis":
            oracle = grid_contracting_leaves_to_sum(tree, src).coefficients
            assert np.abs(rec - oracle).max() <= 1e-12 * np.abs(oracle).max()

    # bivariate-5 grid, hand-built validated trees; checked before anything
    # is solved, so no RuntimeWarning and no error from inside a solver
    @pytest.mark.parametrize("paths", [
        [[2.0, 1.1 - 0.4j], [-1.2 + 0.5j, 0.4 + 0.3j]],
        [[0.3 + 0.2j, -3.0], [-1.2 + 0.5j, 0.4 + 0.3j]],
        [[2.0 + 1e-320j, 1.1 - 0.4j], [-1.2 + 0.5j, 0.4 + 0.3j]],
        [[0.3 + 0.2j, -3.0 + 1e-320j], [-1.2 + 0.5j, 0.4 + 0.3j]],
        [[complex(np.nan, 0.0), 1.1 - 0.4j], [-1.2 + 0.5j, 0.4 + 0.3j]],
        [[0.3 + 0.2j, complex(np.inf, 0.0)], [-1.2 + 0.5j, 0.4 + 0.3j]],
    ], ids=["root-on-sample", "leaf-on-sample", "root-a-hair-off", "leaf-a-hair-off",
            "nan-root", "infinite-leaf"])
    def test_bad_poles_refused(self, paths):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        with pytest.raises(BadParameters, match="amplitude system has non-finite entries: "
                                                "poles must be finite, and sample points"):
            leaves_to_sum(hand_tree(paths, 2), src)

    @pytest.mark.parametrize("paths, grid_d", [
        ([[0.3 + 0.2j, 1.1 - 0.4j, 0.5 + 0.5j]], 2),
        ([[0.3 + 0.2j, 1.1 - 0.4j], [-1.2 + 0.5j, 0.4 + 0.3j]], 3),
    ], ids=["3-tree-on-2-grid", "2-tree-on-3-grid"])
    def test_dimension_mismatch_refused(self, paths, grid_d):
        case = BIVARIATE_5 if grid_d == 2 else TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        with pytest.raises(ShapeMismatch, match=f"pole tree of dimension {len(paths[0])} "
                                                f"does not match a {grid_d}-dimensional"):
            leaves_to_sum(hand_tree(paths, len(paths[0])), src)


class TestRecoverRecursive:
    def test_repeated_axis_value(self):
        sig = repeated_axis_signal()
        src = sig.synthesize(2.0, 10, FullGrid())
        rec, tree = recover_recursive(src)
        report = relative_errors(sig, rec)
        assert report.frequency_error <= 1e-8
        assert report.coefficient_error <= 1e-8
        assert len(tree.roots) == 3

    def test_resynthesis_invariant(self):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        rec, _ = recover_recursive(src)
        rng = np.random.default_rng(10)
        picks = rng.integers(-case.N, case.N + 1, size=(100, 3))
        data = np.array([src.value(row) for row in picks])
        model = np.array([rec.fourier_coefficient(row, case.P) for row in picks])
        assert np.abs(model - data).max() <= 1e-8 * np.abs(data).max()

    def test_hidden_pole_reported(self):
        # amplitudes tuned so one root's slice vanishes at the origin: the
        # axis line cannot see that root, and the spot check must refuse
        b_shared, b_other = 0.5 + 0.7j, -1.1 + 0.9j
        tails = np.array([0.3 + 0.6j, -0.7 - 0.8j, 1.4 + 0.5j])
        a1 = 1.0 + 0.5j
        amps = np.array([a1, -a1 * tails[1] / tails[0], 0.8 - 0.3j])
        poles = np.column_stack([[b_shared, b_shared, b_other], tails])
        freqs = TWO_PI_I * poles / 2.0
        gamma = amps * TWO_PI_I ** 2 / np.prod(1 - np.exp(freqs * 2.0), axis=1)
        sig = ExponentialSum(freqs, gamma)
        src = sig.synthesize(2.0, 10, FullGrid())
        with pytest.raises(ResynthesisMismatch,
                           match=r"relative \d\.\d{3}e-01 > RESYNTHESIS_TOL = 1e-06"):
            recover_recursive(src)

    @pytest.mark.parametrize("case", ALL_REFERENCE, ids=lambda c: c.name)
    def test_spot_check_reads_the_leaf_fits(self, case, monkeypatch):
        # the check evaluates the build's own leaf paths and amplitudes in
        # the index domain: no second walk of the tree, and no resynthesis of
        # the result through the frequency-domain coefficient formula
        def refused(*args, **kwargs):
            raise AssertionError("recover_recursive must not call this")

        src = case.signal.synthesize(case.P, case.N, FullGrid())
        monkeypatch.setattr(ExponentialSum, "fourier_coefficients", refused)
        monkeypatch.setattr(PoleTree, "leaf_paths", refused)
        rec, _ = recover_recursive(src)
        # the acceptance criteria's reference tolerance
        report = relative_errors(case.signal, rec)
        assert report.frequency_error <= 1e-8
        assert report.coefficient_error <= 1e-8

    def test_one_sample_per_side_is_unconverged(self):
        # N = 1 caps every line at one support point: the root fit stops
        # there with its tolerance missed, which is no constant line
        src = BIVARIATE_5.signal.synthesize(BIVARIATE_5.P, 1, FullGrid())
        with pytest.raises(NoConvergence, match=r"^at pole path \(\): greedy fit did not "
                                                r"reach tolerance within 1 steps$"):
            recover_recursive(src)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_rejected(self, seed):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        with pytest.raises(BadParameters, match="seed"):
            recover_recursive(src, seed=seed)

    def test_pencil_engine(self):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        rec, tree = recover_recursive(src, method="pencil")
        assert relative_errors(case.signal, rec).frequency_error <= 1e-8
        assert len(tree.roots) == 2

    def test_agrees_with_sparse_method(self):
        rng = np.random.default_rng(11)
        sig, _ = random_axis_distinct(rng, 3, 2, tau=3)
        sparse_rec, _ = recover_sparse(sig.synthesize(2.0, 10, SparseLines(3)))
        full_rec, _ = recover_recursive(sig.synthesize(2.0, 10, FullGrid()))
        cross = relative_errors(sparse_rec, full_rec)
        assert cross.frequency_error <= 1e-8


class TestSpotCheckPicks:
    """The spot check's indices are the R_d low-discrepancy walk, offset by
    the seed: pick i = 1..100 has coordinates
    floor(frac(frac((seed mod 2^32) alpha_a) + i alpha_a) (2N + 1)) - N."""

    @staticmethod
    def reference(seed, N, d):
        steps = recursive._weyl_steps(d)
        return np.array([[math.floor(math.modf(math.modf((seed % 2 ** 32) * alpha)[0]
                                               + i * alpha)[0] * (2 * N + 1)) - N
                          for alpha in steps.tolist()]
                         for i in range(1, recursive.SPOT_CHECK_POINTS + 1)])

    @pytest.mark.parametrize("d", range(1, 9))
    def test_steps_are_powers_of_the_generalized_golden_ratio(self, d):
        steps = recursive._weyl_steps(d)
        roots = np.roots([1] + [0] * (d - 1) + [-1, -1])  # x^(d+1) - x - 1
        phi = max(r.real for r in roots if abs(r.imag) < 1e-12)
        assert np.allclose(steps, phi ** -np.arange(1.0, d + 1), rtol=1e-14, atol=0)
        assert not steps.flags.writeable

    @pytest.mark.parametrize("N", [1, 15])
    @pytest.mark.parametrize("d", range(1, 9))
    def test_walk_inside_the_grid_and_seeded(self, d, N):
        picks = {seed: recursive._spot_check_picks(seed, N, d) for seed in (0, 1, 2 ** 80)}
        for seed, walk in picks.items():
            assert walk.shape == (recursive.SPOT_CHECK_POINTS, d)
            assert walk.dtype.kind == "i"
            assert -N <= walk.min() and walk.max() <= N
            assert np.array_equal(walk, recursive._spot_check_picks(seed, N, d))
            assert np.array_equal(walk, self.reference(seed, N, d))
        assert not np.array_equal(picks[0], picks[1])

    def test_huge_seed_recovers(self):
        case = BIVARIATE_5
        rec, _ = recover_recursive(case.signal.synthesize(case.P, case.N, FullGrid()),
                                   seed=2 ** 80)
        report = relative_errors(case.signal, rec)
        assert report.frequency_error <= 1e-8
        assert report.coefficient_error <= 1e-8

    def test_recovery_loads_no_numpy_random(self):
        # the walk is float arithmetic, so a CLI recovery does not pay for
        # importing numpy.random (and through it secrets, hmac and OpenSSL)
        tests = pathlib.Path(__file__).resolve().parent
        probe = ("import sys; sys.path.insert(0, sys.argv[1])\n"
                 "from cases import TRIVARIATE_8 as c\n"
                 "from expanal import FullGrid, recover_recursive\n"
                 "recover_recursive(c.signal.synthesize(c.P, c.N, FullGrid()))\n"
                 "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
        proc = subprocess.run([sys.executable, "-c", probe, str(tests)],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestNearlyCollidingPoles:
    """Two of three terms share their axis-0 pole up to delta * (1 + 1j).
    Every input must end in the true order or a typed error."""

    @pytest.mark.xfail(strict=True, reason=(
        "the root fit returns one pole for the pair, and the split on it leaks "
        "the pair's terms into the other root's slice, whose leaf line takes 3 "
        "poles where it holds 1: order 5 against 3 with exit 0"))
    @pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10])
    @pytest.mark.parametrize("N", [8, 12])
    def test_true_order_or_typed_error(self, N, delta):
        poles = np.array([[-0.7 + 0.4j, 0.3 - 0.2j],
                          [-0.7 + 0.4j + delta * (1 + 1j), -0.9 + 0.3j],
                          [1.1 - 0.3j, 0.6 + 0.5j]])
        sig = signal_from_amplitudes(poles, np.array([1 + 0.5j, -0.8 + 0.2j, 0.6 - 0.3j]), 2.0)
        try:
            rec, _ = recover_recursive(sig.synthesize(2.0, N, FullGrid()))
        except ExpanalError:
            return
        assert rec.order == sig.order


class TestLeafResidues:
    """recover_recursive takes the amplitudes from the residues of the leaf
    fits, in depth-first leaf order, instead of solving for them again."""

    @pytest.mark.parametrize("case", ALL_REFERENCE + ("repeated-axis",),
                             ids=lambda c: getattr(c, "name", c))
    def test_match_the_replay_and_the_dense_fit(self, case):
        if case == "repeated-axis":
            P, src = 2.0, repeated_axis_signal().synthesize(2.0, 10, FullGrid())
        else:
            P, src = case.P, case.signal.synthesize(case.P, case.N, FullGrid())
        rec, tree = recover_recursive(src)
        assert tree == build_pole_tree(src)
        replay = leaves_to_sum(tree, src)
        assert np.array_equal(replay.frequencies, rec.frequencies)
        scale = np.abs(replay.coefficients).max()
        assert np.abs(rec.coefficients - replay.coefficients).max() <= 1e-13 * scale
        dense = dense_amplitude_coefficients(tree.leaf_paths(), src.grid(), P)
        assert np.abs(rec.coefficients - dense).max() <= 1e-12 * np.abs(dense).max()

    @pytest.mark.parametrize("case, level", [
        (BIVARIATE_5, 1), (BIVARIATE_5, 2), (QUADVARIATE_8, 1),
    ], ids=["root", "leaves", "root-d4"])
    def test_merged_poles_are_solved_again(self, case, level, monkeypatch):
        # every line fit of the root level (1) or of the leaf level (2)
        # reports its first pole as two copies 1e-10 apart (relative): the
        # separation rule of the line fit refuses them, with no merge, and the
        # recovery fails at the first node of that level, depth first (in the
        # leading half of the axes at the root of quadvariate-8)
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        path = () if level == 1 else (build_pole_tree(src).roots[0].pole,)
        fit, stacks = recursive._fit_lines, []

        def counted(lines, *args):
            stacks.append(len(lines))
            return fit(lines, *args)

        monkeypatch.setattr(recursive, "_fit_lines", counted)
        monkeypatch.setattr(rational, "_arrowhead_poles", with_close_pair(
            rational._arrowhead_poles, lambda: len(stacks) == level))
        with pytest.raises(IllConditioned) as info:
            recover_recursive(src)
        assert len(stacks) == level
        assert str(info.value).startswith(f"at pole path {path}: two fitted poles lie ")
        assert str(info.value).endswith(" within POLE_SEPARATION_RTOL = 1e-08")

    def test_noisy_repeated_axis_within_3x_of_the_global_fit(self):
        # the repeated-axis tree is no full tensor product, so the level-wise
        # fit is not the global least squares fit: at noise 1e-12 its
        # coefficient error is about twice the global fit's
        sig = repeated_axis_signal()
        src = noisy_repeated_axis_grid(sig.synthesize(2.0, 10, FullGrid()), level=1e-12)
        rec, tree = recover_recursive(src, tol=1e-8)
        assert tree.order == sig.order
        dense = dense_amplitude_coefficients(tree.leaf_paths(), src.grid(), 2.0)
        level_wise = relative_errors(sig, rec).coefficient_error
        global_fit = relative_errors(sig, ExponentialSum(rec.frequencies, dense)).coefficient_error
        assert level_wise <= 3 * global_fit


class TestGridPasses:
    """A recovery reads the grid through its two halves: the leading d // 2
    levels fit central lines, read through the pseudo-inverses above them,
    and one product of their Kronecker rows with the grid, seen as
    (n^(d//2), n^(d - d//2)), gives the slices of the trailing levels.  The
    amplitudes come from the leaf fits.  The recovery, the root peel and the
    replay in leaves_to_sum each allocate well under one grid's worth of
    memory, and on quadvariate-8 (depth-2 slices of 31^2 values, against
    the 7 x 31^3 array of a root split) under a tenth of a grid."""

    @pytest.fixture(scope="class")
    def trivariate_8(self):
        case = TRIVARIATE_8
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        return src, build_pole_tree(src)

    @pytest.fixture(scope="class")
    def quadvariate_8(self):
        case = QUADVARIATE_8
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        return src, build_pole_tree(src)

    def test_amplitude_solve_peak_allocation(self, trivariate_8):
        src, tree = trivariate_8
        assert peak_grids(leaves_to_sum, tree, src, grid=src.grid()) < 0.75

    def test_recovery_peak_allocation(self, trivariate_8):
        # the root's split is one product with the grid, read in place: a
        # copy of the grid would add a whole one
        src, _ = trivariate_8
        assert peak_grids(recover_recursive, src, grid=src.grid()) < 0.75

    @pytest.mark.parametrize("replay", [False, True], ids=["recovery", "replay"])
    def test_halves_read_peak_allocation(self, quadvariate_8, replay):
        # a root split on the whole grid made 0.459 grids in the recovery
        # and 0.439 in the replay
        src, tree = quadvariate_8
        args = (leaves_to_sum, tree, src) if replay else (recover_recursive, src)
        assert peak_grids(*args, grid=src.grid()) < 0.1

    def test_root_peel_peak_allocation(self, trivariate_8):
        src, tree = trivariate_8
        roots = [root.pole for root in tree.roots]
        assert peak_grids(peel_dimension, roots, src.grid(), grid=src.grid()) < 0.4

    @pytest.mark.parametrize("case", [TRIVARIATE_8, QUADVARIATE_8], ids=lambda c: c.name)
    def test_recovery_makes_one_grid_sized_product(self, case):
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        size, products = src.grid().size, []

        class CountingGrid(np.ndarray):
            """Grid values that count the matmuls with a grid-sized operand;
            every ufunc runs on plain arrays and returns plain arrays."""

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                plain = [x.view(np.ndarray) if isinstance(x, CountingGrid) else x
                         for x in inputs]
                if ufunc is np.matmul and any(x.size == size for x in plain
                                              if isinstance(x, np.ndarray)):
                    products.append(ufunc)
                return getattr(ufunc, method)(*plain, **kwargs)

        src.values = src.grid().view(CountingGrid)
        recover_recursive(src)
        assert len(products) == 1
