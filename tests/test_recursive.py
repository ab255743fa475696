"""Tests for the full-grid recursive dimension-reduction pipeline."""

import numpy as np
import pytest

from expanal import (
    CoefficientSource,
    ExponentialSum,
    FullGrid,
    PoleTree,
    SparseLines,
    build_pole_tree,
    distinct_poles,
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
    IllConditioned,
    NoConvergence,
    ResynthesisWarning,
    ShapeMismatch,
)
from expanal.linalg import sort_complex
from expanal.model import TWO_PI_I
from expanal.recursive import _merge_close

from cases import (
    BIVARIATE_5,
    QUADVARIATE_9,
    TRIVARIATE_4,
    TRIVARIATE_8,
    random_axis_distinct,
    random_coefficients,
    random_poles,
    signal_from_amplitudes,
    signal_from_poles,
)
from oracles import dense_amplitude_coefficients


def index_pole(frequency, P):
    return frequency * P / TWO_PI_I


class TestDistinctPoles:
    def test_reference_roots(self):
        case = QUADVARIATE_9
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        count, poles = distinct_poles(src.axis_line(0))
        assert count == 2
        expected = sort_complex(index_pole(np.array([2 + 2j, 3 + 1j]), case.P))
        assert np.abs(poles - expected).max() <= 1e-10

    def test_single_term(self):
        rng = np.random.default_rng(0)
        sig, poles = random_axis_distinct(rng, 1, 2, tau=3)
        src = sig.synthesize(2.0, 8, FullGrid())
        count, fitted = distinct_poles(src.axis_line(0))
        assert count == 1 and abs(fitted[0] - poles[0, 0]) <= 1e-10

    def test_two_distinct(self):
        rng = np.random.default_rng(1)
        sig, poles = random_axis_distinct(rng, 2, 1, tau=3)
        src = sig.synthesize(2.0, 10, FullGrid())
        count, fitted = distinct_poles(src.axis_line(0))
        assert count == 2
        assert np.abs(fitted - sort_complex(poles[:, 0])).max() <= 1e-10

    def test_order_cap_failure(self):
        rng = np.random.default_rng(2)
        noise = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        with pytest.raises(NoConvergence):
            distinct_poles(noise, max_order=4)


class TestPeelDimension:
    def test_single_pole(self):
        # one pole: each tail's child value is the exact numerator
        rng = np.random.default_rng(2)
        b = 0.4 + 0.7j
        child_truth = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        k = np.arange(-4, 5, dtype=float)
        parent = child_truth[None, :] / (k[:, None] - b)
        pieces = peel_dimension([b], parent)
        assert len(pieces) == 1
        assert np.abs(pieces[0].values - child_truth).max() <= 1e-12

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
        for piece, a, q in zip(pieces, amps, b_second):
            expected = a / (k - q)
            assert np.abs(piece.values - expected).max() <= 1e-11

    def test_reference_level_one(self):
        case = QUADVARIATE_9
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        _, roots = distinct_poles(src.axis_line(0))
        pieces = peel_dimension(roots, src.grid())
        # roots sort with the (3+i)-image first; its children map from
        # {-pi, 0.2i}, the other root's from {0.2i, -2}
        first_kids = sort_complex(index_pole(np.array([-np.pi, 0.2j]), case.P))
        second_kids = sort_complex(index_pole(np.array([0.2j, -2.0]), case.P))
        for piece, expected in zip(pieces, (first_kids, second_kids)):
            line = piece.values[(slice(None),) + (case.N,) * (piece.values.ndim - 1)]
            _, kids = distinct_poles(line)
            assert np.abs(kids - expected).max() <= 1e-9

    def test_even_leading_axis_rejected(self):
        with pytest.raises(ShapeMismatch, match="odd number"):
            peel_dimension([0.5], np.ones((4, 4)))


class TestMergeClose:
    def test_no_close_pair_unchanged(self):
        poles = np.array([1.0 + 0.5j, -2.0 + 0.1j, 0.3 - 1.0j])
        assert np.array_equal(_merge_close(poles), sort_complex(poles))

    def test_close_pair_merged_to_its_mean(self):
        pair = np.array([1.0 + 0.5j, 1.0 + 0.5j + 1e-10])
        merged = _merge_close(np.array([pair[0], -2.0 + 0.1j, pair[1]]))
        assert np.array_equal(merged, [-2.0 + 0.1j, np.mean(pair)])

    def test_single_pole(self):
        assert np.array_equal(_merge_close(np.array([0.4 - 0.2j])), [0.4 - 0.2j])


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


class TestLeavesToSum:
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
        # noise leaves a nonzero least squares residual, so the normal-system
        # solve must reproduce the dense solution, not just interpolate
        rng = np.random.default_rng(20 + d)
        sig, _ = random_axis_distinct(rng, 4, d, tau=3)
        clean = sig.synthesize(2.0, 6, FullGrid())
        tree = build_pole_tree(clean)
        noise = rng.standard_normal(clean.grid().shape) + 1j * rng.standard_normal(clean.grid().shape)
        noisy = clean.grid() + 1e-3 * np.abs(clean.grid()).max() * noise
        src = CoefficientSource(d, 2.0, 6, FullGrid(), grid=noisy)
        rec = leaves_to_sum(tree, src)
        oracle = dense_amplitude_coefficients(tree.leaf_paths(), noisy, 2.0)
        assert np.abs(rec.coefficients - oracle).max() <= 1e-12 * np.abs(oracle).max()

    @pytest.mark.parametrize("case", [BIVARIATE_5, TRIVARIATE_8], ids=lambda c: c.name)
    def test_refined_reference_grids_match_dense_lstsq(self, case):
        # the normal system alone lands 4e-14 to 9e-14 from the dense
        # solution here; its one refinement step brings it to about 1e-15
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        tree = build_pole_tree(src)
        rec = leaves_to_sum(tree, src)
        oracle = dense_amplitude_coefficients(tree.leaf_paths(), src.grid(), case.P)
        assert np.abs(rec.coefficients - oracle).max() <= 1e-14 * np.abs(oracle).max()

    def test_near_duplicate_paths_ill_conditioned(self):
        rng = np.random.default_rng(12)
        sig, poles = random_axis_distinct(rng, 1, 2, tau=3)
        src = sig.synthesize(2.0, 8, FullGrid())

        def path(p):
            leaf = TreeNode(pole=complex(p[1]), depth=2, children=(), leaf_multiplicity=1)
            return TreeNode(pole=complex(p[0]), depth=1, children=(leaf,))

        tree = PoleTree(roots=(path(poles[0]), path(poles[0] + 1e-9)), dimension=2)
        with pytest.raises(IllConditioned):
            leaves_to_sum(tree.validate(), src)


class TestRecoverRecursive:
    def test_repeated_axis_value(self):
        rng = np.random.default_rng(9)
        shared = complex(0.6, 0.8)
        col0 = np.concatenate([[shared, shared], random_poles(rng, 2, 2.5)])
        col1 = random_poles(rng, 4, 2.5)
        col2 = random_poles(rng, 4, 2.5)
        poles = np.column_stack([col0, col1, col2])
        sig = signal_from_amplitudes(poles, random_coefficients(rng, 4), 2.0)
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
        # axis line cannot see that root, and the spot check must say so
        b_shared, b_other = 0.5 + 0.7j, -1.1 + 0.9j
        tails = np.array([0.3 + 0.6j, -0.7 - 0.8j, 1.4 + 0.5j])
        a1 = 1.0 + 0.5j
        amps = np.array([a1, -a1 * tails[1] / tails[0], 0.8 - 0.3j])
        poles = np.column_stack([[b_shared, b_shared, b_other], tails])
        freqs = TWO_PI_I * poles / 2.0
        gamma = amps * TWO_PI_I ** 2 / np.prod(1 - np.exp(freqs * 2.0), axis=1)
        sig = ExponentialSum(freqs, gamma)
        src = sig.synthesize(2.0, 10, FullGrid())
        with pytest.warns(ResynthesisWarning):
            recover_recursive(src)

    def test_zero_check_points_skips_spot_check(self):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        checked, _ = recover_recursive(src)
        unchecked, _ = recover_recursive(src, check_points=0)
        assert np.array_equal(unchecked.coefficients, checked.coefficients)
        assert np.array_equal(unchecked.frequencies, checked.frequencies)

    @pytest.mark.parametrize("check_points", [-1, 2.5, True])
    def test_bad_check_points_rejected(self, check_points):
        case = TRIVARIATE_4
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        with pytest.raises(BadParameters):
            recover_recursive(src, check_points=check_points)

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
