"""Tests for the line-sampled recovery pipeline."""

import numpy as np
import pytest

from expanal import linalg, rational, sparse
from expanal import (
    CoefficientSource,
    SparseLines,
    match_pairs,
    pairing_system,
    recover_axis,
    recover_sparse,
    relative_errors,
)
from expanal.errors import (
    AmbiguousPairing,
    AxisOrderMismatch,
    BadParameters,
    CoverageMismatch,
    DegenerateFrequency,
    ExpanalError,
    IllConditioned,
    NoConvergence,
    TauViolation,
)
from expanal.model import TWO_PI_I

from cases import (
    BIVARIATE_5,
    TRIVARIATE_6,
    random_axis_distinct,
    random_coefficients,
    random_poles,
    signal_from_poles,
    spiked_bivariate_5,
)
from oracles import brute_force_pairing, per_axis_sparse_recovery, sort_complex, with_close_pair


class TestPlan:
    """The sparse-line geometry, owned by SparseLines.line_indices."""

    def test_bivariate_lines(self):
        lines = SparseLines(7).line_indices(2, 15)
        assert [label for label, _ in lines] == ["axis", "axis", "diagonal"]
        assert [len(line) for _, line in lines] == [31, 31, 17]
        assert SparseLines(7).counted_samples(2, 15) == 79

    def test_trivariate_line_count(self):
        assert len(SparseLines(4).line_indices(3, 15)) == 5

    def test_rejects_small_half_width(self):
        with pytest.raises(BadParameters):
            SparseLines(2).line_indices(2, 2)

    def test_diagonal_geometry(self):
        lines = SparseLines(2).line_indices(3, 6)
        second = [line for label, line in lines if label == "diagonal"][1]
        assert second[0].tolist() == [0, -6, -2]
        assert second[-1].tolist() == [0, 2, 6]


class TestRecoverAxis:
    def test_reference_axis_poles(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        rec = recover_axis(src.axis_line(0), 0)
        expected = sort_complex(case.signal.frequencies[:, 0] * case.P / TWO_PI_I)
        assert rec.order == 5
        assert np.abs(rec.poles - expected).max() <= 1e-10

    def test_single_term(self):
        rng = np.random.default_rng(1)
        sig, poles = random_axis_distinct(rng, 1, 2, tau=3)
        src = sig.synthesize(2.0, 8, SparseLines(3))
        rec = recover_axis(src.axis_line(0), 0)
        assert rec.order == 1
        assert abs(rec.poles[0] - poles[0, 0]) <= 1e-10

    def test_shared_axis_value_mismatch(self):
        rng = np.random.default_rng(2)
        shared = complex(0.7, 0.9)
        col0 = random_poles(rng, 2, 2.5)
        col2 = random_poles(rng, 2, 2.5)
        poles = np.column_stack([col0, [shared, shared], col2])
        sig = signal_from_poles(poles, random_coefficients(rng, 2), 2.0)
        src = sig.synthesize(2.0, 8, SparseLines(3))
        with pytest.raises(AxisOrderMismatch):
            recover_sparse(src)

    def test_unconverged_axis_names_it(self):
        # every term shares its axis-0 and axis-1 values, so axis 0 fixes
        # order 1; axis 2 holds three distinct poles and cannot converge on
        # the cap of two support points
        rng = np.random.default_rng(0)
        poles = np.column_stack([[0.7 + 0.9j] * 3, [-1.1 + 0.4j] * 3,
                                 random_poles(rng, 3, 2.5)])
        sig = signal_from_poles(poles, random_coefficients(rng, 3), 2.0)
        src = sig.synthesize(2.0, 8, SparseLines(3))
        with pytest.raises(AxisOrderMismatch,
                           match=r"^axis 2: unconverged fit .* axis 0 fixed order 1;"):
            recover_sparse(src)


class TestPairingSystem:
    def test_single_term_sign_relation(self):
        b1, b2, tau, n = 0.4 + 0.6j, -0.8 + 1.1j, 2, 8
        amp = 1.5 - 0.5j
        k = np.arange(-n, n - 2 * tau + 1, dtype=float)
        diag = amp / ((k - b1) * (k - (b2 - 2 * tau)))
        c = pairing_system([b1], [b2], diag, tau)
        assert abs(c[0] + c[1]) <= 1e-12 * abs(c[0])
        assert abs(c[0] - amp / (b1 - b2 + 2 * tau)) <= 1e-12

    def test_two_terms_against_partial_fractions(self):
        rng = np.random.default_rng(3)
        tau, n = 3, 12
        prev = random_poles(rng, 2, 2.5)
        nxt = random_poles(rng, 2, 2.5)
        amps = random_coefficients(rng, 2)
        k = np.arange(-n, n - 2 * tau + 1, dtype=float)
        diag = sum(
            a / ((k - p) * (k - (q - 2 * tau))) for a, p, q in zip(amps, prev, nxt)
        )
        c = pairing_system(prev, nxt, diag, tau)
        expected = amps / (prev - nxt + 2 * tau)
        assert np.abs(c[:2] - expected).max() <= 1e-10
        assert np.abs(c[2:] + expected).max() <= 1e-10

    def test_matches_lstsq_oracle(self):
        # one SVD serves the rank check and the solve; the plain dense
        # least-squares solution of the same stacked system is the oracle
        rng = np.random.default_rng(12)
        for _ in range(200):
            m, tau = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            n = int(rng.integers(2 * m + tau, 3 * m + 2 * tau + 4))
            prev = random_poles(rng, m, tau / 2)
            nxt = random_poles(rng, m, tau / 2)
            k = np.arange(-n, n - 2 * tau + 1, dtype=float)
            stacked = np.hstack([1.0 / (k[:, None] - prev[None, :]),
                                 1.0 / (k[:, None] - (nxt[None, :] - 2 * tau))])
            diag = stacked @ np.concatenate([random_coefficients(rng, m)] * 2)
            diag += 1e-3 * (rng.standard_normal(len(k)) + 1j * rng.standard_normal(len(k)))
            oracle = np.linalg.lstsq(stacked, diag, rcond=None)[0]
            c = pairing_system(prev, nxt, diag, tau)
            assert np.abs(c - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_non_finite_diagonal_rejected(self):
        k = np.arange(-8, 5, dtype=float)
        diag = 1.0 / ((k - 0.4 - 0.6j) * (k - (-0.8 + 1.1j - 4)))
        diag[3] = np.nan
        with pytest.raises(BadParameters, match="diagonal values"):
            pairing_system([0.4 + 0.6j], [-0.8 + 1.1j], diag, 2)

    @pytest.mark.parametrize("tau", [0, -1, 1.5, True])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(BadParameters, match="tau"):
            pairing_system([0.5j], [0.3j], np.ones(5), tau)

    def test_overlapping_families_rejected(self):
        # next-axis poles shifted onto the previous-axis poles duplicate columns
        tau, n = 2, 10
        prev = np.array([0.5 + 0.5j, -1.0 + 0.8j])
        nxt = prev + 2 * tau
        k = np.arange(-n, n - 2 * tau + 1, dtype=float)
        diag = sum(1.0 / ((k - p) * (k - (q - 2 * tau))) for p, q in zip(prev, nxt))
        with pytest.raises(IllConditioned):
            pairing_system(prev, nxt, diag, tau)

    def test_fewer_samples_than_poles_ill_conditioned(self):
        # 4 columns on 3 samples: the rank rule's wide case, ratio 0
        with pytest.raises(IllConditioned, match=r"pairing system .*ratio 0\.000e\+00"):
            pairing_system([0.5 + 0.5j, -1.0 + 0.8j], [0.3 - 0.4j, 1.2 + 0.7j], np.ones(3), 2)

    def test_no_poles_rejected(self):
        with pytest.raises(BadParameters, match="need at least one pole"):
            pairing_system([], [], np.ones(9), 2)


class TestMatchPairs:
    def test_single_term_identity(self):
        b1, b2, tau = 0.4 + 0.6j, -0.8 + 1.1j, 2
        amp = 1.5 - 0.5j
        c1 = amp / (b1 - b2 + 2 * tau)
        perm, scores = match_pairs(
            np.array([c1, -c1]), np.array([-amp / b2]), np.array([b1]),
            np.array([b2]), tau,
        )
        assert perm.tolist() == [0]
        assert scores[0] <= 1e-12

    def test_three_terms_against_brute_force(self):
        rng = np.random.default_rng(4)
        tau, n = 3, 12
        k = np.arange(-n, n - 2 * tau + 1, dtype=float)
        for _ in range(20):
            prev = random_poles(rng, 3, 2.5)
            partners = random_poles(rng, 3, 2.5)
            amps = random_coefficients(rng, 3)
            diag = sum(
                a / ((k - p) * (k - (q - 2 * tau)))
                for a, p, q in zip(amps, prev, partners)
            )
            presented = partners[rng.permutation(3)]
            c = pairing_system(prev, presented, diag, tau)
            coeffs_prev = -amps / partners
            perm, _ = match_pairs(c, coeffs_prev, prev, presented, tau)
            oracle = brute_force_pairing(c, coeffs_prev, prev, presented, tau)
            assert perm.tolist() == oracle.tolist()
            assert np.abs(presented[perm] - partners).max() <= 1e-9

    def test_inconsistent_conditions_rejected(self):
        # no candidate satisfies the sign condition within tolerance
        tau = 2
        prev = np.array([0.5 + 0.5j, -0.9 + 0.7j])
        nxt = np.array([1.2 + 0.9j, -0.4 - 0.8j])
        c = np.array([1.0, 1.0, -1.0, -0.5])
        with pytest.raises(AmbiguousPairing):
            match_pairs(c, np.array([1.0, 1.0]), prev, nxt, tau)

    def test_near_tie_without_margin_rejected(self):
        # next-axis poles 1e-9 apart with compensated amplitudes: after a tiny
        # perturbation both candidates score alike, so no 10x margin exists
        tau = 2
        prev = np.array([0.5 + 0.5j, -0.9 + 0.7j])
        close = 1.2 + 0.9j
        nxt = np.array([close, close + 1e-9])
        amp0 = 1.0 + 0.3j
        amp1 = amp0 * (prev[1] - nxt[1] + 2 * tau) / (prev[0] - nxt[0] + 2 * tau)
        amps = np.array([amp0, amp1])
        c1 = amps / (prev - nxt + 2 * tau)
        c = np.concatenate([c1, -c1]) * (1.0 + 1e-8)
        coeffs_prev = -amps / nxt
        with pytest.raises(AmbiguousPairing):
            match_pairs(c, coeffs_prev, prev, nxt, tau)


class RecordingSource(CoefficientSource):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads = []

    def value(self, k):
        self.reads.append(("value", tuple(np.asarray(k).tolist())))
        return super().value(k)

    def axis_line(self, axis):
        self.reads.append(("axis", axis))
        return super().axis_line(axis)

    def diagonal_line(self, axis):
        self.reads.append(("diagonal", axis))
        return super().diagonal_line(axis)


class TestRecoverSparse:
    def test_reference_bivariate(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        rec, cert = recover_sparse(src)
        report = relative_errors(case.signal, rec)
        assert report.frequency_error <= 1e-8
        assert report.coefficient_error <= 1e-8
        assert len(cert.permutations) == 1

    def test_close_poles_on_a_stacked_axis_refused(self, monkeypatch):
        # the first engine call fits axis 0; from the second on (the stacked
        # fit of the other axes) the engine reports each line's first pole as
        # two copies 1e-10 apart (relative), which the acceptance step refuses
        case = TRIVARIATE_6
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        calls = []

        def after_axis_0():
            calls.append(None)
            return len(calls) > 1

        monkeypatch.setattr(rational, "_arrowhead_poles",
                            with_close_pair(rational._arrowhead_poles, after_axis_0))
        with pytest.raises(IllConditioned, match=r"^two fitted poles lie 1\.000e-10 apart "
                                                 r".* POLE_SEPARATION_RTOL = 1e-08$"):
            recover_sparse(src)
        assert len(calls) >= 2

    def test_full_coverage_rejected(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, 5, "full")
        with pytest.raises(CoverageMismatch):
            recover_sparse(src)

    def test_single_term_four_dimensions(self):
        rng = np.random.default_rng(5)
        sig, _ = random_axis_distinct(rng, 1, 4, tau=3)
        src = sig.synthesize(2.0, 8, SparseLines(3))
        rec, _ = recover_sparse(src)
        report = relative_errors(sig, rec)
        assert report.frequency_error <= 1e-10
        assert report.coefficient_error <= 1e-10

    def test_tau_violation_flagged(self):
        # the signal is valid but was sampled with a shift too small for it
        poles = np.array([[2.5 + 0.5j, 0.3 + 0.8j]])
        sig = signal_from_poles(poles, np.array([1.0 + 0.5j]), 2.0)
        src = sig.synthesize(2.0, 8, SparseLines(2))
        with pytest.raises(TauViolation):
            recover_sparse(src)

    def test_chain_consistency(self):
        rng = np.random.default_rng(6)
        sig, _ = random_axis_distinct(rng, 3, 3, tau=3)
        src = sig.synthesize(2.0, 10, SparseLines(3))
        rec, _ = recover_sparse(src)
        for axis in (1, 2):
            diag = src.diagonal_line(axis)
            line = np.array(
                [
                    rec.fourier_coefficient(idx, 2.0)
                    for idx in _diag_indices(3, 10, 3, axis)
                ]
            )
            assert np.abs(line - diag).max() <= 1e-8 * np.abs(diag).max()

    def test_pole_family_separation(self):
        rng = np.random.default_rng(7)
        tau = 3
        sig, poles = random_axis_distinct(rng, 4, 2, tau=tau)
        src = sig.synthesize(2.0, 12, SparseLines(tau))
        rec, _ = recover_sparse(src)
        b = rec.frequencies * 2.0 / TWO_PI_I
        assert np.abs(b.real).max() < tau
        both = np.concatenate([b[:, 0], b[:, 1] - 2 * tau])
        gaps = np.abs(both[:, None] - both[None, :])[~np.eye(8, dtype=bool)]
        assert gaps.min() > 1e-6

    def test_reads_exactly_the_plan(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        recording = RecordingSource(src.d, src.P, src.N, src.coverage, src.values)
        recover_sparse(recording)
        # each of the 2d-1 lines once, and no point lookups
        assert sorted(recording.reads) == [("axis", 0), ("axis", 1), ("diagonal", 1)]

    def test_isolated_misfit_raises(self):
        # the refit misses one axis-0 sample by ~2e-6 of the line's scale;
        # returning would give a 1.1e-5 coefficient error with exit 0
        with pytest.raises(DegenerateFrequency, match="isolated"):
            recover_sparse(spiked_bivariate_5())

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    def test_unconverged_axis_0_names_it(self, method):
        # no fit reaches 1e-300 of the line's scale: axis 0 stops at its cap
        # of N = 15 support points, and that refusal names the axis
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        with pytest.raises(NoConvergence, match=r"^axis 0: greedy fit did not reach "
                                                r"tolerance within 15 steps$"):
            recover_sparse(src, tol=1e-300, method=method)

    def test_univariate_degenerates_gracefully(self):
        rng = np.random.default_rng(8)
        sig, _ = random_axis_distinct(rng, 2, 1, tau=3)
        src = sig.synthesize(2.0, 8, SparseLines(3))
        rec, cert = recover_sparse(src)
        assert cert.permutations == ()
        assert relative_errors(sig, rec).frequency_error <= 1e-10

    def test_pencil_engine(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        rec, _ = recover_sparse(src, method="pencil")
        assert relative_errors(case.signal, rec).frequency_error <= 1e-8

    def test_roundtrip_up_to_four_dimensions(self):
        rng = np.random.default_rng(12)
        tau = 3
        for d in (2, 3, 4):
            for order in (2, 6):
                sig, _ = random_axis_distinct(rng, order, d, tau=tau)
                src = sig.synthesize(2.0, 14, SparseLines(tau))
                rec, _ = recover_sparse(src)
                report = relative_errors(sig, rec)
                assert report.frequency_error <= 1e-8, (d, order)
                assert report.coefficient_error <= 1e-8, (d, order)


def _outcome(recover, src, method):
    try:
        return recover(src, method=method)
    except ExpanalError as exc:
        return exc


class TestStackedKernels:
    """recover_sparse runs two line fits and one pairing solve for any d."""

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_matches_per_axis_oracle(self, d, method):
        # N = M + 4 with tau = 3 leaves some draws of each d failing: an
        # axis fit of another order, an ambiguous pairing or a rank
        # deficient pairing system
        rng = np.random.default_rng(100 + d)
        failed = 0
        for order in range(2, 11):
            for _ in range(2):
                sig, _ = random_axis_distinct(rng, order, d, tau=3)
                src = sig.synthesize(2.0, order + 4, SparseLines(3))
                got = _outcome(recover_sparse, src, method)
                ref = _outcome(per_axis_sparse_recovery, src, method)
                if isinstance(ref, ExpanalError):
                    failed += 1
                    assert type(got) is type(ref) and str(got) == str(ref)
                    continue
                rec, cert = got
                assert np.array_equal(rec.frequencies, ref[0].frequencies)
                assert np.array_equal(rec.coefficients, ref[0].coefficients)
                assert cert.permutations == ref[1].permutations
                assert cert.axis_traces == ref[1].axis_traces
                for stage, expected in zip(cert.stage_coefficients,
                                           ref[1].stage_coefficients):
                    stage, expected = np.array(stage), np.array(expected)
                    assert np.abs(stage - expected).max() <= 1e-10 * np.abs(expected).max()
        assert 0 < failed < 18

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_two_fits_and_one_pairing_solve(self, d, monkeypatch):
        calls = {"fit": 0, "pairing": 0}
        fit, solve = rational._fit_lines, linalg.cauchy_lstsq

        def counted_fit(*args):
            calls["fit"] += 1
            return fit(*args)

        def counted_solve(b, k, rhs, what):
            calls["pairing"] += what == "pairing system"
            return solve(b, k, rhs, what)

        for module in (rational, sparse):
            monkeypatch.setattr(module, "_fit_lines", counted_fit)
        monkeypatch.setattr(linalg, "cauchy_lstsq", counted_solve)
        sig, _ = random_axis_distinct(np.random.default_rng(d), 3, d, tau=3)
        rec, _ = recover_sparse(sig.synthesize(2.0, 10, SparseLines(3)))
        assert rec.d == d
        assert calls == {"fit": 2, "pairing": 1}

    def test_trivariate_lapack_calls(self, monkeypatch):
        # one line fit per axis and one pairing solve per diagonal made 23
        # svd and 3 eigvals calls here
        case = TRIVARIATE_6
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        counts = {}
        for name in ("svd", "eigvals"):
            def counted(*args, _name=name, _call=getattr(np.linalg, name), **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _call(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        recover_sparse(src)
        monkeypatch.undo()
        assert counts["svd"] <= 15 and counts["eigvals"] <= 2

    def test_stages_fail_in_order(self):
        # axis 2 repeats axis 1 shifted by 2*tau, so the pairing system of
        # diagonal 2 is rank deficient; a spike on diagonal 1 then makes
        # stage 1 ambiguous, and that earlier stage's error is the one raised
        rng = np.random.default_rng(0)
        tau, n_half = 3, 10
        col1 = np.array([-2.0 + 0.6j, 1.0 - 0.4j])
        poles = np.column_stack([random_poles(rng, 2, 2.5), col1, col1 + 2 * tau])
        sig = signal_from_poles(poles, random_coefficients(rng, 2), 2.0)
        coverage = SparseLines(tau)
        src = sig.synthesize(2.0, n_half, coverage)
        with pytest.raises(IllConditioned, match="pairing system"):
            recover_sparse(src)
        values = np.array(src.values)
        values[coverage.layout(3, n_half)[1][("diagonal", 1)][3]] *= 1.5
        with pytest.raises(AmbiguousPairing):
            recover_sparse(CoefficientSource(3, 2.0, n_half, coverage, values))


def _diag_indices(d, n, tau, axis):
    out = []
    for k in range(-n, n - 2 * tau + 1):
        idx = [0] * d
        idx[axis - 1] = k
        idx[axis] = k + 2 * tau
        out.append(idx)
    return out
