"""Tests for the signal model, coefficient synthesis and error metrics."""

import json

import numpy as np
import pytest

from expanal import (
    CoefficientSource,
    ExponentialSum,
    FullGrid,
    SparseLines,
    parse_coverage,
    relative_errors,
    signal_from_json,
    signal_to_json,
    source_from_json,
    source_to_json,
)
from expanal.errors import BadParameters, DegenerateFrequency, ShapeMismatch

from cases import BIVARIATE_5, QUADVARIATE_9, TRIVARIATE_6, random_univariate
from oracles import box_quadrature_coefficient, factor_quadrature_coefficient


class TestExponentialSum:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(BadParameters):
            ExponentialSum(np.array([[1j], [2j]]), np.array([1.0, 0.0]))

    def test_rejects_duplicate_rows(self):
        with pytest.raises(BadParameters):
            ExponentialSum(np.array([[1j, 2j], [1j, 2j]]), np.array([1.0, 2.0]))

    def test_constant_exponent(self):
        sig = ExponentialSum(np.zeros((1, 3)), np.array([1.0]))
        assert sig.evaluate(np.array([0.3, -2.0, 5.5])) == 1.0

    def test_opposite_rows_cancel(self):
        sig = ExponentialSum(np.array([[1j, 0.0], [-1j, 0.0]]), np.array([1.0, 1.0]))
        value = sig.evaluate(np.array([np.pi, 0.0]))
        assert abs(value - (-2.0)) <= 1e-12

    def test_reference_at_origin(self):
        assert abs(BIVARIATE_5.signal.evaluate(np.zeros(2)) - 9.0) <= 1e-12

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(11, 3))
        sig = TRIVARIATE_6.signal
        batch = sig.evaluate(pts)
        singles = np.array([sig.evaluate(p) for p in pts])
        assert np.abs(batch - singles).max() <= 1e-12 * np.abs(singles).max()


class TestFourierCoefficient:
    def test_degenerate_branch_at_zero(self):
        sig = ExponentialSum(np.zeros((1, 1)), np.array([2.0]))
        assert sig.fourier_coefficient([0], 1.0) == 2.0

    def test_vanishing_numerator(self):
        sig = ExponentialSum(np.zeros((1, 1)), np.array([1.0]))
        assert sig.fourier_coefficient([3], 1.0) == 0.0

    def test_square_of_e_minus_one(self):
        sig = ExponentialSum(np.array([[1.0, 1.0]], dtype=complex), np.array([1.0]))
        value = sig.fourier_coefficient([0, 0], 1.0)
        assert abs(value - (np.e - 1.0) ** 2) <= 1e-12
        oracle = box_quadrature_coefficient(sig, [0, 0], 1.0)
        assert abs(value - oracle) <= 1e-10

    def test_linear_in_coefficients(self):
        rng = np.random.default_rng(5)
        (f, _), (g, _) = random_univariate(rng, 2), random_univariate(rng, 3)
        alpha, beta = 1.3 - 0.7j, -0.2 + 2.1j
        combined = ExponentialSum(
            np.vstack([f.frequencies, g.frequencies]),
            np.concatenate([alpha * f.coefficients, beta * g.coefficients]),
        )
        for k in ([0], [2], [-5]):
            left = combined.fourier_coefficient(k, 2.0)
            right = (alpha * f.fourier_coefficient(k, 2.0)
                     + beta * g.fourier_coefficient(k, 2.0))
            assert abs(left - right) <= 1e-12 * max(1.0, abs(left))


class TestSynthesize:
    def test_sparse_sample_accounting(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        assert src.counted_samples == 3 * (2 * case.N + 1) - 2 * case.tau == 79

    def test_degenerate_refusal(self):
        sig = ExponentialSum(np.array([[0.0, 1j]]), np.array([1.0]))
        with pytest.raises(DegenerateFrequency):
            sig.synthesize(1.0, 5, FullGrid())

    @pytest.mark.parametrize("P", [np.nan, np.inf, -np.inf, 0.0])
    def test_period_must_be_finite_and_positive(self, P):
        case = BIVARIATE_5
        with pytest.raises(BadParameters, match="period"):
            case.signal.synthesize(P, 3, FullGrid())
        with pytest.raises(BadParameters, match="period"):
            case.signal.synthesize(P, 3, SparseLines(2))
        with pytest.raises(BadParameters, match="period"):
            CoefficientSource(1, P, 1, FullGrid(), grid=np.ones(3))

    def test_full_grid_against_factor_quadrature(self):
        case = TRIVARIATE_6
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        assert src.grid().size == 31 ** 3
        rng = np.random.default_rng(3)
        for _ in range(5):
            k = rng.integers(-case.N, case.N + 1, size=3)
            oracle = factor_quadrature_coefficient(case.signal, k, case.P)
            assert abs(src.value(k) - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_lookup_matches_formula_bitwise(self):
        case = BIVARIATE_5
        sparse = case.signal.synthesize(case.P, 6, SparseLines(2))
        for idx, value in sparse.items():
            assert value == case.signal.fourier_coefficient(idx, case.P)
        full = case.signal.synthesize(case.P, 3, FullGrid())
        for idx, value in full.items():
            assert value == case.signal.fourier_coefficient(idx, case.P)

    def test_batch_lookup_matches_grid_bitwise(self):
        case = QUADVARIATE_9
        full = case.signal.synthesize(case.P, case.N, FullGrid())
        picks = np.random.default_rng(4).integers(-case.N, case.N + 1, size=(200, 4))
        batch = case.signal.fourier_coefficients(picks, case.P)
        assert np.array_equal(batch, full.grid()[tuple((picks + case.N).T)])
        for k, value in zip(picks[:20], batch):
            assert value == case.signal.fourier_coefficient(k, case.P)

    def test_axis_and_diagonal_slices(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        line = src.axis_line(1)
        assert len(line) == 2 * case.N + 1
        assert line[case.N] == case.signal.fourier_coefficient([0, 0], case.P)
        diag = src.diagonal_line(1)
        assert len(diag) == 2 * case.N + 1 - 2 * case.tau
        assert diag[0] == case.signal.fourier_coefficient(
            [-case.N, -case.N + 2 * case.tau], case.P
        )

    def test_uncovered_index_raises(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        with pytest.raises(KeyError):
            src.value([1, 1])


class TestRelativeErrors:
    def test_identity_is_zero(self):
        sig = BIVARIATE_5.signal
        report = relative_errors(sig, sig)
        assert report.frequency_error == 0.0
        assert report.coefficient_error == 0.0
        assert report.signal_error == 0.0

    def test_permutation_invariance(self):
        sig = BIVARIATE_5.signal
        perm = [3, 0, 4, 1, 2]
        shuffled = ExponentialSum(sig.frequencies[perm], sig.coefficients[perm])
        report = relative_errors(sig, shuffled)
        assert report.frequency_error == 0.0
        assert report.coefficient_error == 0.0
        assert tuple(report.matched_permutation) == (1, 3, 4, 0, 2)

    def test_order_mismatch_reported(self):
        sig = BIVARIATE_5.signal
        truncated = ExponentialSum(sig.frequencies[:3], sig.coefficients[:3])
        report = relative_errors(sig, truncated)
        assert report.order_mismatch
        assert report.truth_order == 5 and report.recovered_order == 3
        assert report.frequency_error == 0.0
        assert report.matched_permutation[3:] == (None, None)

    def test_optimal_not_greedy_matching(self):
        # greedy takes the closest pair (1, 0.6) first and leaves (0, 1.7)
        truth = ExponentialSum(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        rec = ExponentialSum(np.array([[0.6], [1.7]]), np.array([1.0, 1.0]))
        report = relative_errors(truth, rec)
        assert report.matched_permutation == (0, 1)
        assert abs(report.frequency_error - 0.7) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatch):
            relative_errors(BIVARIATE_5.signal, TRIVARIATE_6.signal)

    @pytest.mark.parametrize("seed", [-1, 0.5, True])
    def test_bad_seed_rejected(self, seed):
        # d=4: the check comes before the 2M-point lattice
        sig = QUADVARIATE_9.signal
        with pytest.raises(BadParameters, match="seed"):
            relative_errors(sig, sig, seed=seed)

    def test_grid_override(self):
        # the subsampled estimate normalizes by its own sup, so it tracks the
        # full-lattice value only up to a modest factor
        sig = BIVARIATE_5.signal
        other = ExponentialSum(sig.frequencies * (1 + 1e-10), sig.coefficients)
        full = relative_errors(sig, other, points_per_axis=21)
        sub = relative_errors(sig, other, points_per_axis=21, max_signal_points=50)
        assert full.signal_error > 0.0
        assert 0.1 * full.signal_error <= sub.signal_error <= 10.0 * full.signal_error


    @pytest.mark.parametrize(
        "sig, points, cap",
        [(BIVARIATE_5.signal, 51, 2_000_000), (QUADVARIATE_9.signal, 21, 20_000)],
        ids=["full-lattice-d2", "subsample-d4"],
    )
    def test_signal_error_matches_evaluate(self, sig, points, cap):
        other = ExponentialSum(sig.frequencies * (1 + 1e-9), sig.coefficients * (1 - 1e-9))
        axis = np.linspace(-10.0, 10.0, points)
        if points ** sig.d <= cap:
            mesh = np.meshgrid(*([axis] * sig.d), indexing="ij")
            pts = np.stack(mesh, axis=-1).reshape(-1, sig.d)
        else:
            pts = axis[np.random.default_rng(0).integers(0, points, size=(cap, sig.d))]
        f, g = sig.evaluate(pts), other.evaluate(pts)
        expected = np.abs(f - g).max() / np.abs(f).max()
        report = relative_errors(sig, other, points_per_axis=points, max_signal_points=cap)
        assert expected > 0.0
        assert abs(report.signal_error - expected) <= 1e-13


class TestJson:
    def test_signal_roundtrip(self):
        sig = TRIVARIATE_6.signal
        back, period = signal_from_json(signal_to_json(sig, TRIVARIATE_6.P))
        assert period == TRIVARIATE_6.P
        assert np.array_equal(back.frequencies, sig.frequencies)
        assert np.array_equal(back.coefficients, sig.coefficients)

    def test_coverage_strings(self):
        assert parse_coverage("full") == FullGrid()
        assert parse_coverage("sparse:7") == SparseLines(7)
        with pytest.raises(BadParameters):
            parse_coverage("sparse:x")

    def test_source_roundtrip_sparse(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 6, SparseLines(2))
        back = source_from_json(source_to_json(src))
        assert back.coverage == src.coverage
        assert all(back.value(idx) == value for idx, value in src.items())

    def test_source_roundtrip_full(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 3, FullGrid())
        back = source_from_json(source_to_json(src))
        assert np.array_equal(back.grid(), src.grid())

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_full_grid_wire_roundtrip_bitwise(self, d):
        N = 2
        rng = np.random.default_rng(d)
        shape = (2 * N + 1,) * d
        grid = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        grid.flat[1] = complex(0.25, -0.0)
        src = CoefficientSource(d, 1.5, N, FullGrid(), grid=grid)
        obj = json.loads(json.dumps(source_to_json(src)))
        assert sorted(obj) == ["N", "P", "coverage", "d", "im", "re"]
        # C order over [-N..N]^d: index k at position k+N, axis 0 slowest
        k = np.arange(d) % (2 * N + 1) - N
        position = int(np.ravel_multi_index(tuple(k + N), shape))
        assert complex(obj["re"][position], obj["im"][position]) == src.value(k)
        back = source_from_json(obj)
        assert back.grid().tobytes() == src.grid().tobytes()
        assert np.signbit(back.grid().flat[1].imag)

    def test_sparse_wire_layout_unchanged(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 15, SparseLines(7))
        entries = [
            {"k": [k0, k1], "c": [src.value((k0, k1)).real, src.value((k0, k1)).imag]}
            for k0, k1 in sorted(SparseLines(7).unique_indices(2, 15))
        ]
        assert source_to_json(src) == {
            "d": 2, "P": case.P, "N": 15, "coverage": "sparse:7", "entries": entries,
        }

    @pytest.mark.parametrize("text", [
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1, 2, 3]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1, 2, 3], "im": [0, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1, NaN, 3], "im": [0, 0, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": ["1", "2", "3"], "im": [0, 0, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1.0, true, 2.0], "im": [0, 0, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1, 2, 3], "im": [0, false, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1, null, 3], "im": [0, 0, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1, [2], 3], "im": [0, 0, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "re": [1, 1' + '0' * 400 + ', 3], '
        '"im": [0, 0, 0]}',
        '{"d": 1, "P": 1.0, "N": 1, "coverage": "full", "entries": ['
        '{"k": [-1], "c": [1, 0]}, {"k": [0], "c": [1, 0]}, {"k": [1], "c": [1, 0]}]}',
    ], ids=["missing-im", "wrong-length", "nan", "strings", "bool-in-re", "bool-in-im",
            "null", "nested", "huge-int", "per-entry"])
    def test_malformed_full_grid(self, text):
        with pytest.raises(BadParameters):
            source_from_json(json.loads(text))

    # one bad token per wire field of a sparse-lines file: values and P take
    # JSON numbers only, d, N and each index k JSON integers only; the refusal
    # must come from the type check, not from a later mismatch
    @pytest.mark.parametrize("field, token", [
        ("d", True), ("d", "2"), ("d", 2.5),
        ("N", True), ("N", "6"), ("N", 6.9),
        ("P", True), ("P", "4.0"),
        ("k", True), ("k", "1"), ("k", 1.5),
        ("c", True), ("c", "1.0"),
    ])
    def test_sparse_wire_fields_take_numbers_only(self, field, token):
        case = BIVARIATE_5
        obj = source_to_json(case.signal.synthesize(case.P, 6, SparseLines(2)))
        entry = next(e for e in obj["entries"] if e["k"][0] == 1)
        if field == "k":
            entry["k"][0] = token
        elif field == "c":
            entry["c"][0] = token
        else:
            obj[field] = token
        with pytest.raises(BadParameters, match="JSON"):
            source_from_json(obj)

    def test_sparse_wire_integral_floats_accepted(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 6, SparseLines(2))
        obj = source_to_json(src)
        obj["d"], obj["N"] = 2.0, 6.0
        for entry in obj["entries"]:
            entry["k"] = [float(x) for x in entry["k"]]
        back = source_from_json(obj)
        assert all(back.value(idx) == value for idx, value in src.items())

    @pytest.mark.parametrize("field, token", [
        ("d", True), ("d", 1.5), ("P", True), ("P", "2"), ("gamma", True), ("lambda", "1"),
    ])
    def test_signal_wire_fields_take_numbers_only(self, field, token):
        obj = signal_to_json(BIVARIATE_5.signal, BIVARIATE_5.P)
        if field == "gamma":
            obj["gamma"][0][0] = token
        elif field == "lambda":
            obj["lambda"][0][1][1] = token
        else:
            obj[field] = token
        with pytest.raises(BadParameters, match="JSON"):
            signal_from_json(obj)

    def test_malformed_signal(self):
        with pytest.raises(BadParameters):
            signal_from_json({"d": 2, "P": 1.0, "gamma": [[1, 0]]})
