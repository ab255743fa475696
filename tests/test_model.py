"""Tests for the signal model, coefficient synthesis and error metrics."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expanal import model
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
from expanal.errors import (
    BadParameters,
    CoverageMismatch,
    DegenerateFrequency,
    ShapeMismatch,
)

from cases import (
    ALL_REFERENCE,
    BIVARIATE_5,
    QUADVARIATE_9,
    TRIVARIATE_6,
    random_axis_distinct,
    random_univariate,
)
from oracles import box_quadrature_coefficient, einsum_full_grid, factor_quadrature_coefficient


class TestExponentialSum:
    def test_rejects_zero_coefficient(self):
        with pytest.raises(BadParameters):
            ExponentialSum(np.array([[1j], [2j]]), np.array([1.0, 0.0]))

    def test_rejects_duplicate_rows(self):
        # rows that differ only in the sign of a zero are equal
        for rows in ([[1j, 2j], [1j, 2j]], [[0.0, 2j], [-0.0, 2j]]):
            with pytest.raises(BadParameters, match="pairwise distinct"):
                ExponentialSum(np.array(rows), np.array([1.0, 2.0]))

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
            CoefficientSource(1, P, 1, FullGrid(), np.ones(3))

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
        full = case.signal.synthesize(case.P, 3, FullGrid())
        # both stores list their values in lexicographic index order
        full_rows = np.array(list(np.ndindex(7, 7))) - 3
        for src, rows in ((sparse, sparse.coverage.unique_indices(2, 6)), (full, full_rows)):
            assert len(rows) == src.values.size
            for idx, value in zip(rows, src.values.ravel()):
                assert value == case.signal.fourier_coefficient(idx, case.P)
                assert src.value(idx) == value

    def test_batch_lookup_matches_grid_bitwise(self):
        case = QUADVARIATE_9
        full = case.signal.synthesize(case.P, case.N, FullGrid())
        picks = np.random.default_rng(4).integers(-case.N, case.N + 1, size=(200, 4))
        batch = case.signal.fourier_coefficients(picks, case.P)
        assert np.array_equal(batch, full.grid()[tuple((picks + case.N).T)])
        for k, value in zip(picks[:20], batch):
            assert value == case.signal.fourier_coefficient(k, case.P)

    @pytest.mark.parametrize("case", ALL_REFERENCE, ids=lambda case: case.name)
    def test_full_grid_matches_plain_einsum(self, case):
        # the two contractions sum each entry's terms in different orders
        grid = case.signal.synthesize(case.P, case.N, FullGrid()).grid()
        oracle = einsum_full_grid(case.signal, case.P, case.N)
        assert np.abs(grid - oracle).max() <= 1e-15 * np.abs(oracle).max()

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


class TestSeparableSum:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           lengths=st.lists(st.integers(1, 5), min_size=1, max_size=6),
           terms=st.integers(1, 10), count=st.integers(1, 40), chunk=st.integers(1, 7))
    def test_lookup_matches_grid_bitwise(self, seed, lengths, terms, count, chunk):
        rng = np.random.default_rng(seed)
        tables = [rng.standard_normal((n, terms)) + 1j * rng.standard_normal((n, terms))
                  for n in lengths]
        weights = rng.standard_normal(terms) + 1j * rng.standard_normal(terms)
        rows = np.column_stack([rng.integers(0, n, count) for n in lengths])
        separable = model._SeparableSum(tables)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(model, "_EVAL_CHUNK", chunk)
            values = separable.at(rows, weights)
        assert np.array_equal(values, separable.grid(weights)[tuple(rows.T)])


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

    def test_grid_override(self, monkeypatch):
        # the subsampled estimate normalizes by its own sup, so it tracks the
        # full-lattice value only up to a modest factor
        sig = BIVARIATE_5.signal
        other = ExponentialSum(sig.frequencies * (1 + 1e-10), sig.coefficients)
        monkeypatch.setattr(model, "SIGNAL_POINTS_PER_AXIS", 21)
        full = relative_errors(sig, other)
        monkeypatch.setattr(model, "MAX_SIGNAL_POINTS", 50)
        sub = relative_errors(sig, other)
        assert full.signal_error > 0.0
        assert 0.1 * full.signal_error <= sub.signal_error <= 10.0 * full.signal_error


    @pytest.mark.parametrize(
        "sig, points, cap",
        [(BIVARIATE_5.signal, 51, 2_000_000), (QUADVARIATE_9.signal, 21, 20_000)],
        ids=["full-lattice-d2", "subsample-d4"],
    )
    def test_signal_error_matches_evaluate(self, sig, points, cap, monkeypatch):
        other = ExponentialSum(sig.frequencies * (1 + 1e-9), sig.coefficients * (1 - 1e-9))
        axis = np.linspace(-10.0, 10.0, points)
        if points ** sig.d <= cap:
            mesh = np.meshgrid(*([axis] * sig.d), indexing="ij")
            pts = np.stack(mesh, axis=-1).reshape(-1, sig.d)
        else:
            pts = axis[np.random.default_rng(0).integers(0, points, size=(cap, sig.d))]
        f, g = sig.evaluate(pts), other.evaluate(pts)
        expected = np.abs(f - g).max() / np.abs(f).max()
        monkeypatch.setattr(model, "SIGNAL_POINTS_PER_AXIS", points)
        monkeypatch.setattr(model, "MAX_SIGNAL_POINTS", cap)
        report = relative_errors(sig, other)
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
        assert back.values.tobytes() == src.values.tobytes()

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
        src = CoefficientSource(d, 1.5, N, FullGrid(), grid)
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
        # pins the sparse layout: re/im over the covered indices, each once,
        # in lexicographic order
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 15, SparseLines(7))
        rows = sorted({tuple(row) for _, line in SparseLines(7).line_indices(2, 15)
                       for row in line.tolist()})
        values = [case.signal.fourier_coefficient(k, case.P) for k in rows]
        assert len(rows) == 76
        assert source_to_json(src) == {
            "d": 2, "P": case.P, "N": 15, "coverage": "sparse:7",
            "re": [z.real for z in values], "im": [z.imag for z in values],
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

    # one bad token per wire field of a sparse-lines file: P and each value c
    # (a token of re) take JSON numbers only, d and N JSON integers only; the
    # refusal must come from the type check, not from a later mismatch
    @pytest.mark.parametrize("field, token", [
        ("d", True), ("d", "2"), ("d", 2.5),
        ("N", True), ("N", "6"), ("N", 6.9),
        ("P", True), ("P", "4.0"),
        ("c", True), ("c", "1.0"),
    ])
    def test_sparse_wire_fields_take_numbers_only(self, field, token):
        case = BIVARIATE_5
        obj = source_to_json(case.signal.synthesize(case.P, 6, SparseLines(2)))
        if field == "c":
            obj["re"][1] = token
        else:
            obj[field] = token
        with pytest.raises(BadParameters, match="JSON"):
            source_from_json(obj)

    # each coverage stores the 2dN+1 indices of its axis lines, so a d or N
    # that asks for more values than the file holds is refused before any
    # work sized by them: (2N+1)^d has more digits than Python prints, and
    # the sparse layout costs O(d^2 N)
    @pytest.mark.parametrize("d, N, coverage, count", [
        (10000, 1, "full", 0),
        (10000, 1, "full", 20001),
        (1000, 2, "sparse:1", 0),
    ], ids=["full-empty", "full-axis-lines", "sparse-empty"])
    def test_impossible_d_and_N_refused_cheaply(self, d, N, coverage, count):
        obj = {"d": d, "P": 1.0, "N": N, "coverage": coverage,
               "re": [0.0] * count, "im": [0.0] * count}
        tracemalloc.start()
        try:
            with pytest.raises(BadParameters, match="JSON numbers"):
                source_from_json(obj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_sparse_wire_integral_floats_accepted(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 6, SparseLines(2))
        obj = source_to_json(src)
        obj["d"], obj["N"] = 2.0, 6.0
        back = source_from_json(obj)
        assert back.values.tobytes() == src.values.tobytes()

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


class TestSparseStore:
    """Sparse lines are one flat array over the covered indices."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1, 3])
    def test_wire_roundtrip_bitwise(self, d, tau):
        N = 4
        coverage = SparseLines(tau)
        n = len(coverage.unique_indices(d, N))
        rng = np.random.default_rng(10 * d + tau)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        values[0] = complex(0.25, -0.0)
        src = CoefficientSource(d, 1.5, N, coverage, values)
        obj = json.loads(json.dumps(source_to_json(src)))
        assert sorted(obj) == ["N", "P", "coverage", "d", "im", "re"]
        assert len(obj["re"]) == len(obj["im"]) == n
        back = source_from_json(obj)
        assert back.coverage == coverage
        assert back.values.tobytes() == src.values.tobytes()
        assert np.signbit(back.values[0].imag)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1, 3])
    def test_lines_match_formula_bitwise(self, d, tau):
        sig, _ = random_axis_distinct(np.random.default_rng(d + tau), 2, d, tau=3)
        src = sig.synthesize(2.0, 8, SparseLines(tau))
        reads = [src.axis_line(m) for m in range(d)]
        reads += [src.diagonal_line(m) for m in range(1, d)]
        lines = src.coverage.line_indices(d, 8)
        assert len(reads) == len(lines) == 2 * d - 1
        for got, (_, line) in zip(reads, lines):
            assert got.tobytes() == sig.fourier_coefficients(line, 2.0).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("tau", [1, 3])
    def test_rows_unique_and_lexicographic(self, d, tau):
        coverage = SparseLines(tau)
        rows = [tuple(row) for row in coverage.unique_indices(d, 5).tolist()]
        covered = {tuple(row) for _, line in coverage.line_indices(d, 5)
                   for row in line.tolist()}
        assert rows == sorted(covered)
        sig, _ = random_axis_distinct(np.random.default_rng(d), 1, d, tau=3)
        assert sig.synthesize(2.0, 5, coverage).values.shape == (len(rows),)

    # d and N must be integers of at least 1, not truncated to one
    @pytest.mark.parametrize("d, N", [(1.5, 1), (0, 1), (-1, 1), (True, 1), (1, 2.7)])
    def test_non_integer_or_small_d_and_N_refused(self, d, N):
        with pytest.raises(BadParameters, match="positive integer"):
            CoefficientSource(d, 1.0, N, FullGrid(), np.ones(3))

    def test_wrong_length_refused(self):
        coverage = SparseLines(2)
        with pytest.raises(ShapeMismatch):
            CoefficientSource(2, 1.0, 6, coverage, np.ones(3))
        with pytest.raises(ShapeMismatch):
            CoefficientSource(2, 1.0, 6, FullGrid(), np.ones(len(coverage.unique_indices(2, 6))))

    # a non-finite value must fail where the source is built, not later in
    # the pairing (NaN on a diagonal) or in the slice peel (inf off the axes)
    @pytest.mark.parametrize("where", ["nan-on-diagonal", "inf-off-axes"])
    def test_non_finite_values_refused_at_construction(self, where):
        case = BIVARIATE_5
        if where == "nan-on-diagonal":
            src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
            values = src.values.copy()
            values[src.coverage.layout(2, case.N)[1][("diagonal", 1)][3]] = np.nan
        else:
            src = case.signal.synthesize(case.P, 6, FullGrid())
            values = src.values.copy()
            values[1, 2] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameters, match="finite"):
                CoefficientSource(2, case.P, src.N, src.coverage, values)

    def test_diagonal_line_of_full_grid_refused(self):
        src = BIVARIATE_5.signal.synthesize(BIVARIATE_5.P, 6, FullGrid())
        with pytest.raises(CoverageMismatch):
            src.diagonal_line(1)

    def test_line_outside_the_coverage_refused(self):
        src = BIVARIATE_5.signal.synthesize(BIVARIATE_5.P, 6, SparseLines(2))
        with pytest.raises(BadParameters):
            src.axis_line(2)
        with pytest.raises(BadParameters):
            src.diagonal_line(0)

    @pytest.mark.parametrize("edit", [
        "short-re", "long-im", "bool-in-re", "bool-in-im", "string-in-re", "nan-in-im",
        "per-entry",
    ])
    def test_malformed_sparse_object(self, edit):
        case = BIVARIATE_5
        obj = json.loads(json.dumps(
            source_to_json(case.signal.synthesize(case.P, 6, SparseLines(2)))
        ))
        if edit == "short-re":
            obj["re"].pop()
        elif edit == "long-im":
            obj["im"].append(0.0)
        elif edit == "bool-in-re":
            obj["re"][3] = True
        elif edit == "bool-in-im":
            obj["im"][3] = False
        elif edit == "string-in-re":
            obj["re"][3] = "1.0"
        elif edit == "nan-in-im":
            obj["im"][3] = float("nan")
        else:
            rows = SparseLines(2).unique_indices(2, 6).tolist()
            obj["entries"] = [{"k": k, "c": [re, im]}
                              for k, re, im in zip(rows, obj.pop("re"), obj.pop("im"))]
        with pytest.raises(BadParameters):
            source_from_json(obj)

    @pytest.mark.parametrize("coverage", [5, ["sparse:2"], None, True])
    def test_coverage_must_be_a_string(self, coverage):
        with pytest.raises(BadParameters, match="string"):
            parse_coverage(coverage)
        with pytest.raises(BadParameters, match="string"):
            source_from_json({"d": 1, "P": 1.0, "N": 1, "coverage": coverage})

    @pytest.mark.parametrize("tau", [True, False, 1.0, 0, -2])
    def test_tau_must_be_a_positive_integer(self, tau):
        with pytest.raises(BadParameters, match="tau"):
            SparseLines(tau)
