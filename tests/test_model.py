"""Tests for the signal model, coefficient synthesis and error metrics."""

import base64
import json
import os
import pathlib
import subprocess
import sys
import time
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
    QUADVARIATE_8,
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

    # The probe synthesizes a one-term grid of dimension argv[1] and
    # half-width argv[2] under a 4 GiB address-space limit, so that an
    # allocation it should not make fails instead of filling memory.  It
    # reports the resident peak of its own address space (Linux VmHWM):
    # ru_maxrss starts from the parent's peak, and tracemalloc counts the
    # refused request.
    _HUGE_GRID_PROBE = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
import numpy as np
from expanal import ExponentialSum, FullGrid
from expanal.errors import BadParameters
d, N = int(sys.argv[1]), int(sys.argv[2])
try:
    ExponentialSum(np.full((1, d), -0.3 + 0.7j), [1.0]).synthesize(2.0, N, FullGrid())
except BadParameters as exc:
    print(exc)
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""

    # d = 10 at N = 10: 21^10 values (243 TiB), which malloc refuses; the
    # Khatri-Rao halves, formed before the output, peaked at 284 MB.  d = 4
    # at N = 20000: 16 * 40001^4 bytes, past numpy's index range (its
    # ValueError), with 51 GB halves.
    @pytest.mark.parametrize("d, N", [(10, 10), (4, 20000)])
    def test_unallocatable_grid_refused_before_any_work(self, d, N):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", self._HUGE_GRID_PROBE, str(d), str(N)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        message, peak_kb = proc.stdout.splitlines()
        assert message == (f"a full grid of shape {(2 * N + 1,) * d} needs "
                           f"{16 * (2 * N + 1) ** d} bytes, which cannot be allocated")
        assert int(peak_kb) < 100 * 1024


def wire_text(values):
    """The base64 text of values, as the wire format stores them."""
    return base64.b64encode(np.asarray(values, dtype="<c16")).decode("ascii")


def wire_values(obj):
    """The values of a wire object, decoded."""
    return np.frombuffer(base64.b64decode(obj["values"]), dtype="<c16").copy()


def wire_object(N, text, dtype="<c16"):
    """The JSON text of a d = 1 full-grid wire object."""
    return json.dumps({"d": 1, "P": 1.0, "N": N, "coverage": "full", "dtype": dtype,
                       "values": text})


def peak_allocation(call, *args):
    """call(*args) and its peak traced allocation in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestOneGrid:
    """Synthesis and the wire reader build one array that the source keeps;
    the constructor keeps a copy of the caller's array."""

    def test_synthesis_peak_allocation(self):
        # a reshaped einsum result copied by the constructor made 2.06 grids
        case = QUADVARIATE_8
        src, peak = peak_allocation(case.signal.synthesize, case.P, case.N, FullGrid())
        assert peak <= 1.1 * src.values.nbytes

    def test_wire_read_peak_allocation(self):
        # a whole-list conversion, then the constructor's copy, made 2.07 grids
        case = QUADVARIATE_9
        obj = source_to_json(case.signal.synthesize(case.P, case.N, FullGrid()))
        src, peak = peak_allocation(source_from_json, obj)
        assert peak <= 1.1 * src.values.nbytes

    def test_wire_write_peak_allocation(self):
        # the base64 bytes and their text are 4/3 grid each; the re/im lists
        # of Python floats made 4.00 grids
        case = QUADVARIATE_9
        src = case.signal.synthesize(case.P, case.N, FullGrid())
        _, peak = peak_allocation(source_to_json, src)
        assert peak <= 3 * src.values.nbytes

    @pytest.mark.parametrize("coverage", [FullGrid(), SparseLines(2)], ids=["full", "sparse"])
    def test_constructor_copies(self, coverage):
        case = BIVARIATE_5
        values = case.signal.synthesize(case.P, 6, coverage).values.copy()
        src = CoefficientSource(2, case.P, 6, coverage, values)
        before = src.values.copy()
        values[(0,) * values.ndim] = 7.0
        assert np.array_equal(src.values, before)

    @pytest.mark.parametrize("path", ["constructor", "synthesize-full", "synthesize-sparse",
                                      "wire-full", "wire-sparse"])
    def test_values_read_only(self, path):
        case = BIVARIATE_5
        coverage = SparseLines(2) if path.endswith("sparse") else FullGrid()
        src = case.signal.synthesize(case.P, 6, coverage)
        if path == "constructor":
            src = CoefficientSource(2, case.P, 6, coverage, src.values.tolist())
        elif path.startswith("wire"):
            src = source_from_json(source_to_json(src))
        # the array owns its buffer, so no writable base reaches it either
        assert src.values.base is None
        assert not src.values.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            src.values[(0,) * src.values.ndim] = 1.0


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
        # one fixed lattice for every d: relative_errors takes no seed at all
        sig = QUADVARIATE_9.signal
        with pytest.raises(TypeError, match="seed"):
            relative_errors(sig, sig, seed=seed)

    @pytest.mark.parametrize("d, points", [(1, 51), (4, 51), (5, 23), (6, 13), (7, 9),
                                           (14, 3)])
    def test_lattice_points(self, d, points):
        # the largest odd count within the budget
        n = model._lattice_points(d)
        assert n == points and n % 2 == 1
        assert n ** d <= model.MAX_SIGNAL_POINTS
        assert n == model.SIGNAL_POINTS_PER_AXIS or (n + 2) ** d > model.MAX_SIGNAL_POINTS

    @pytest.mark.parametrize("d", [15, 20])
    def test_lattice_refused_past_d_14(self, d):
        # 3^15 points exceed the budget; the lattice's cost would triple with
        # each further axis (about 40 s at d = 20), so the refusal comes first
        sig = ExponentialSum(np.full((1, d), 0.1j), [1.0])
        start = time.perf_counter()
        with pytest.raises(BadParameters, match=r"MAX_SIGNAL_POINTS = 8,000,000 .*"
                                                r"supports d <= 14$"):
            relative_errors(sig, sig)
        assert time.perf_counter() - start < 0.1

    def test_lattice_at_d_14_evaluated(self):
        # 3^14 = 4,782,969 points, the largest lattice of 3 per axis in the budget
        truth = ExponentialSum(np.full((1, 14), 0.01j), [1.0])
        recovered = ExponentialSum(np.full((1, 14), 0.01j), [1.0 + 1e-9])
        assert abs(relative_errors(truth, recovered).signal_error - 1e-9) <= 1e-15

    @pytest.mark.parametrize("d, axis", [(1, 0), (5, 0), (5, 4), (7, 3)])
    def test_lattice_holds_ends_and_centre(self, d, axis):
        # against a truth of 1: |1 - exp(+-0.1 t)| peaks at t = +-10 alone,
        # and 0.1 * |1 + 2 cos(0.3 t)| at t = 0 alone, over SIGNAL_BOX
        truth = ExponentialSum(np.zeros((1, d)), [1.0])
        row = np.eye(d)[axis]
        for rows, weights, expected in [
            ([0.1 * row], [1.0], np.e - 1),
            ([-0.1 * row], [1.0], np.e - 1),
            ([0 * row, 0.3j * row, -0.3j * row], [0.9, -0.1, -0.1], 0.3),
        ]:
            recovered = ExponentialSum(np.array(rows), np.array(weights))
            assert abs(relative_errors(truth, recovered).signal_error - expected) <= 1e-13

    def test_grid_override(self, monkeypatch):
        # d = 5 with the budget cut to 10^5 points: 9 per axis (11^5 > 10^5),
        # streamed in 11 blocks of 8 left-half rows (the last holds 1)
        rng = np.random.default_rng(5)
        sig = ExponentialSum(rng.uniform(-0.2, 0.2, (3, 5)) + 1j * rng.uniform(-2, 2, (3, 5)),
                             rng.standard_normal(3) + 1j * rng.standard_normal(3))
        other = ExponentialSum(sig.frequencies * (1 + 1e-9), sig.coefficients)
        monkeypatch.setattr(model, "MAX_SIGNAL_POINTS", 100_000)
        monkeypatch.setattr(model, "_LATTICE_BLOCK", 8 * 9 ** 3)
        axis = np.linspace(-10.0, 10.0, 9)
        pts = np.stack(np.meshgrid(*([axis] * 5), indexing="ij"), axis=-1).reshape(-1, 5)
        f, g = sig.evaluate(pts), other.evaluate(pts)
        expected = np.abs(f - g).max() / np.abs(f).max()
        assert model._lattice_points(5) == 9
        assert expected > 0.0
        assert abs(relative_errors(sig, other).signal_error - expected) <= 1e-13

    @pytest.mark.parametrize(
        "sig, points",
        [(BIVARIATE_5.signal, 51), (QUADVARIATE_9.signal, 21)],
        ids=["full-lattice-d2", "whole-lattice-d4"],
    )
    def test_signal_error_matches_evaluate(self, sig, points, monkeypatch):
        # brute force over every lattice point: 51^2, and 21^4 = 194,481
        other = ExponentialSum(sig.frequencies * (1 + 1e-9), sig.coefficients * (1 - 1e-9))
        axis = np.linspace(-10.0, 10.0, points)
        mesh = np.meshgrid(*([axis] * sig.d), indexing="ij")
        pts = np.stack(mesh, axis=-1).reshape(-1, sig.d)
        f, g = sig.evaluate(pts), other.evaluate(pts)
        expected = np.abs(f - g).max() / np.abs(f).max()
        monkeypatch.setattr(model, "SIGNAL_POINTS_PER_AXIS", points)
        report = relative_errors(sig, other)
        assert expected > 0.0
        assert abs(report.signal_error - expected) <= 1e-13

    # exp(100 * 10) overflows on the lattice; the refusal comes without a
    # RuntimeWarning (tier-1 turns one into an error), in the one block of
    # d = 1 and in the late blocks of d = 4 (exp(100 * t) overflows past t = 7.1)
    @pytest.mark.parametrize("d", [1, 4])
    @pytest.mark.parametrize("which", ["truth", "recovered"])
    def test_overflowing_signal_refused(self, d, which):
        big = ExponentialSum(np.array([[100 + 1j] + [0] * (d - 1), [-2 + 3j] + [1] * (d - 1)]),
                             np.array([1.0, 2.0]))
        small = ExponentialSum(big.frequencies / 100, big.coefficients)
        pair = (big, small) if which == "truth" else (small, big)
        with pytest.raises(BadParameters, match=rf"the {which} signal .*SIGNAL_BOX"):
            relative_errors(*pair)

    def test_overflowing_difference_refused(self):
        # each signal peaks at 1e308 on the lattice, their difference at 2e308
        rate = np.log(1e307) / 10
        truth = ExponentialSum(np.array([[rate]]), np.array([10.0]))
        recovered = ExponentialSum(np.array([[rate]]), np.array([-10.0]))
        with pytest.raises(BadParameters, match=r"the truth and recovered signals .*SIGNAL_BOX"):
            relative_errors(truth, recovered)

    def test_overflowing_difference_refused_in_a_late_block(self):
        # d = 4: each signal peaks at 1e308 in the last block, their
        # difference at 2e308, and the earlier blocks are finite
        rate = np.log(1e307) / 10
        truth = ExponentialSum(np.array([[rate, 0, 0, 0]]), np.array([10.0]))
        recovered = ExponentialSum(np.array([[rate, 0, 0, 0]]), np.array([-10.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BadParameters, match=r"the truth and recovered signals "):
                relative_errors(truth, recovered)

    def test_nan_difference_carried_to_the_refusal(self):
        # two equal signals that overflow in the late blocks of d = 4: there
        # f - g is inf - inf, a nan that a running max() would drop
        big = ExponentialSum(np.array([[100, 0, 0, 0]]), np.array([1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            peaks = model._lattice_peaks(big, big)
            with pytest.raises(BadParameters, match=r"the truth signal .*SIGNAL_BOX"):
                relative_errors(big, big)
        assert not np.isfinite(peaks).any() and np.isnan(peaks[2])

    def test_overflowing_magnitude_refused(self):
        # the truth's parts peak at 1.5e308 on the lattice, its modulus at
        # 2.1e308, which made a signal error of 0 against a 1e-3 misfit
        rate = np.log(1.5e307) / 10
        truth = ExponentialSum(np.array([[rate]]), np.array([10 + 10j]))
        recovered = ExponentialSum(np.array([[rate]]), np.array([(10 + 10j) * (1 + 1e-3)]))
        with pytest.raises(BadParameters, match=r"the truth signal .*SIGNAL_BOX"):
            relative_errors(truth, recovered)


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
        assert sorted(obj) == ["N", "P", "coverage", "d", "dtype", "values"]
        assert obj["dtype"] == "<c16"
        # C order over [-N..N]^d: index k at position k+N, axis 0 slowest,
        # whatever the memory order of the stored array
        k = np.arange(d) % (2 * N + 1) - N
        position = int(np.ravel_multi_index(tuple(k + N), shape))
        assert wire_values(obj)[position] == src.value(k)
        fortran = CoefficientSource(d, 1.5, N, FullGrid(), np.asfortranarray(grid))
        assert source_to_json(fortran) == source_to_json(src)
        back = source_from_json(obj)
        assert back.grid().tobytes() == src.grid().tobytes()
        assert np.signbit(back.grid().flat[1].imag)

    def test_sparse_wire_layout_unchanged(self):
        # pins the sparse layout: the values of the covered indices, each
        # once, in lexicographic order
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 15, SparseLines(7))
        rows = sorted({tuple(row) for _, line in SparseLines(7).line_indices(2, 15)
                       for row in line.tolist()})
        values = [case.signal.fourier_coefficient(k, case.P) for k in rows]
        assert len(rows) == 76
        assert source_to_json(src) == {
            "d": 2, "P": case.P, "N": 15, "coverage": "sparse:7", "dtype": "<c16",
            "values": wire_text(values),
        }

    # objects in the earlier layouts (re/im number lists, per-entry), which
    # are no longer read, then malformed objects in the current one
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
        *(wire_object(1, text, dtype) for dtype, text in [
            ("<c8", wire_text([1, 2, 3])),
            (">c16", wire_text([1, 2, 3])),
            ("<c16", None),
            ("<c16", [wire_text([1, 2, 3])]),
            ("<c16", wire_text([1, 2, 3])[:-1] + "!"),
            ("<c16", wire_text([1, 2, 3])[:-1] + "é"),
            ("<c16", wire_text([1, 2, 3])[:-4]),
            ("<c16", wire_text([1, 2, 3, 4])),
            ("<c16", wire_text([1, 2, np.inf])),
            ("<c16", wire_text([1, complex(0, np.nan), 3])),
        ]),
        # N = 2: 5 values are 80 bytes, so the text ends in one "=" of
        # padding; a data character there would decode to 81 bytes
        wire_object(2, wire_text([1, 2, 3, 4, 5])[:-1] + "A"),
    ], ids=["missing-im", "wrong-length", "nan", "strings", "bool-in-re", "bool-in-im",
            "null", "nested", "huge-int", "per-entry",
            "dtype-c8", "dtype-big-endian", "values-null", "values-list", "not-base64",
            "not-ascii", "short-text", "long-text", "inf-value", "nan-value",
            "data-in-padding"])
    def test_malformed_full_grid(self, text):
        with pytest.raises(BadParameters):
            source_from_json(json.loads(text))

    # one bad token per wire field of a sparse-lines file: P takes JSON
    # numbers only, d and N JSON integers only, and the values c a JSON
    # string; the refusal must come from the type check, not from a later
    # mismatch
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
            obj["values"] = token
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
        obj = {"d": d, "P": 1.0, "N": N, "coverage": coverage, "dtype": "<c16",
               "values": wire_text(np.zeros(count))}
        tracemalloc.start()
        try:
            with pytest.raises(BadParameters, match="the base64 text of"):
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
        assert sorted(obj) == ["N", "P", "coverage", "d", "dtype", "values"]
        assert len(wire_values(obj)) == n
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
    @pytest.mark.parametrize("N, tau", [(2, 1), (5, 2), (6, 5), (9, 3)])
    def test_line_indices_match_the_definition(self, d, N, tau):
        # axis m holds k*e_m for k = -N..N; diagonal m holds
        # k*e_(m-1) + (k+2*tau)*e_m for k = -N..N-2*tau
        coverage = SparseLines(tau)
        lines = coverage.line_indices(d, N)
        want = [("axis", [[k * (a == m) for a in range(d)] for k in range(-N, N + 1)])
                for m in range(d)]
        want += [("diagonal", [[k * (a == m - 1) + (k + 2 * tau) * (a == m) for a in range(d)]
                               for k in range(-N, N - 2 * tau + 1)])
                 for m in range(1, d)]
        assert [(kind, line.tolist()) for kind, line in lines] == want
        assert coverage.counted_samples(d, N) == sum(len(line) for _, line in want)
        # each coverage reads a line as the formula gives it, into a fresh array
        sig, _ = random_axis_distinct(np.random.default_rng(N + d), 2, d, tau=3)
        for src in (sig.synthesize(2.0, N, coverage), sig.synthesize(2.0, N, FullGrid())):
            reads = [src.axis_line(m) for m in range(d)]
            if src.coverage == coverage:
                reads += [src.diagonal_line(m) for m in range(1, d)]
            for got, (_, line) in zip(reads, lines):
                assert got.tobytes() == sig.fourier_coefficients(line, 2.0).tobytes()
                assert got.flags.writeable and not np.shares_memory(got, src.values)

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

    # both coverages check the axis alike: an integer in range, not a bool
    @pytest.mark.parametrize("coverage", [FullGrid(), SparseLines(2)],
                             ids=["full", "sparse"])
    @pytest.mark.parametrize("axis", [1.5, True, "0", -1, 2])
    def test_bad_axis_refused(self, coverage, axis):
        src = BIVARIATE_5.signal.synthesize(BIVARIATE_5.P, 6, coverage)
        with pytest.raises(BadParameters, match="no axis line"):
            src.axis_line(axis)
        assert np.array_equal(src.axis_line(np.int64(1)), src.axis_line(1))

    @pytest.mark.parametrize("axis", [0, 1.5, True, 2])
    def test_bad_diagonal_refused(self, axis):
        src = BIVARIATE_5.signal.synthesize(BIVARIATE_5.P, 6, SparseLines(2))
        with pytest.raises(BadParameters, match="no diagonal line"):
            src.diagonal_line(axis)

    @pytest.mark.parametrize("edit", [
        "short-values", "long-values", "nan-in-im", "re-im", "per-entry",
    ])
    def test_malformed_sparse_object(self, edit):
        case = BIVARIATE_5
        obj = json.loads(json.dumps(
            source_to_json(case.signal.synthesize(case.P, 6, SparseLines(2)))
        ))
        values = wire_values(obj)
        if edit == "short-values":
            obj["values"] = wire_text(values[:-1])
        elif edit == "long-values":
            obj["values"] = wire_text(np.append(values, 0))
        elif edit == "nan-in-im":
            values[3] = complex(values[3].real, np.nan)
            obj["values"] = wire_text(values)
        else:
            del obj["dtype"], obj["values"]
            if edit == "re-im":
                obj["re"], obj["im"] = values.real.tolist(), values.imag.tolist()
            else:
                rows = SparseLines(2).unique_indices(2, 6).tolist()
                obj["entries"] = [{"k": k, "c": [z.real, z.imag]}
                                  for k, z in zip(rows, values.tolist())]
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
