"""Tests for the univariate rational recovery engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from expanal import (
    BarycentricForm,
    CoefficientSource,
    FullGrid,
    SparseLines,
    aaa_fit,
    loewner_pencil_poles,
    poles_of,
    recover_axis,
    recover_univariate,
    relative_errors,
    residues_ls,
)
from expanal.errors import (
    BadParameters,
    ConvergenceFailure,
    DegenerateFrequency,
    ExpanalError,
    IllConditioned,
    NoConvergence,
    ShapeMismatch,
)
from expanal import linalg, rational
from expanal.model import TWO_PI_I, ExponentialSum
from expanal.rational import (
    DEFAULT_TOL,
    SAMPLE_COLLISION_TOL,
    PoleResidue,
    _fit_lines,
    _pencil_poles,
    check_fit_residual,
    filter_spurious,
    pole_residue_from_samples,
)

from cases import (
    ALL_REFERENCE,
    BIVARIATE_5,
    random_axis_distinct,
    random_univariate,
    spiked_bivariate_5,
)
from oracles import (
    depth_first_pole_tree,
    evaluate_barycentric,
    match_complex_sets,
    qz_arrowhead_poles,
    refit_pencil_poles,
    sort_complex,
    with_close_pair,
)

KGRID = np.arange(-10, 11, dtype=float)


def pole_samples(points, poles, residues):
    points = np.asarray(points, dtype=complex)
    return np.sum(np.asarray(residues) / (points[:, None] - np.asarray(poles)), axis=1)


class TestAaaFit:
    def test_constant_values(self):
        points = np.arange(-5, 6, dtype=float)
        form, trace = aaa_fit(points, np.full(11, 5.0))
        assert len(form) == 1 and trace.converged
        assert evaluate_barycentric(form, 2.3) == 5.0

    def test_single_pole(self):
        values = pole_samples(KGRID, [0.5j], [1.0])
        form, trace = aaa_fit(KGRID, values, tol=1e-13)
        assert trace.iterations == 2 and len(form) == 2
        poles = poles_of(form)
        assert abs(poles[0] - 0.5j) <= 1e-10

    def test_reference_axis_line(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        _, trace = aaa_fit(np.arange(-case.N, case.N + 1, dtype=float), src.axis_line(0))
        assert trace.iterations == case.signal.order + 1

    def test_interpolation_exactness(self):
        rng = np.random.default_rng(2)
        signal, _ = random_univariate(rng, 4)
        values = np.array(
            [signal.fourier_coefficient([k], 2.0) for k in range(-10, 11)]
        )
        form, _ = aaa_fit(KGRID, values)
        for point, value in zip(form.support, form.values):
            assert evaluate_barycentric(form, point) == value

    # the kernels divide by point differences: one of 1e-320 overflows a
    # divided difference, and one beyond the float range turns it into NaN
    # or overflows the pencil's; an inf or NaN can stall LAPACK's SVD.  The
    # equal points are not neighbours
    @pytest.mark.parametrize("points, message", [
        ([1e-300, 0.0, 1e-300, 1.0, 2.0, 3.0], "points must be pairwise distinct"),
        ([0.0, 1e-320, 1.0, 2.0, 3.0, 4.0], "points must differ by a finite amount"),
        ([1e-300, 1e-300 + 2e-320j, 1e-320j, 2.0, 3.0, 4.0],
         "points must differ by a finite amount"),
        ([1e308 + 1e308j, -1e308 - 1e308j, 1.0, 2.0, 3.0, 4.0],
         "points must differ by a finite amount"),
        ([1.5e308, -1.5e308, 1.0, 2.0, 3.0, 4.0], "points must differ by a finite amount"),
    ], ids=["duplicate", "adjacent", "interleaved", "far", "far-real"])
    def test_points_too_close_or_too_far_refused(self, points, message):
        values = np.arange(6.0) ** 2
        with pytest.raises(BadParameters, match=message):
            aaa_fit(points, values)
        with pytest.raises(BadParameters, match=message):
            loewner_pencil_poles(points, values, 2)
        # 1e-300 apart, the divided differences stay finite
        aaa_fit([0.0, 1e-300, 1.0, 2.0, 3.0, 4.0], values)

    def test_unconverged_flag(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        _, trace = aaa_fit(KGRID, values, max_order=3)
        assert not trace.converged
        assert trace.iterations == 3 == len(trace.max_residual_history)

    def test_rejects_duplicate_points(self):
        with pytest.raises(BadParameters):
            aaa_fit([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


class TestBarycentricForm:
    def test_unit_norm_enforced(self):
        with pytest.raises(BadParameters):
            BarycentricForm([0.0, 1.0], [1.0, 2.0], [1.0, 1.0])

    def test_support_point_evaluation(self):
        form = BarycentricForm([0.0, 1.0], [3.0, -2.0], np.array([1.0, 1.0]) / np.sqrt(2))
        assert evaluate_barycentric(form, 0.0) == 3.0
        assert evaluate_barycentric(form, 1.0) == -2.0

    def test_single_point_constant(self):
        form = BarycentricForm([0.0], [4.2], [1.0])
        assert evaluate_barycentric(form, 17.0) == 4.2

    def test_against_cleared_fraction(self):
        rng = np.random.default_rng(4)
        support = np.array([0.0, 1.0, -2.0, 3.5], dtype=complex)
        values = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        weights = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        weights /= np.linalg.norm(weights)
        form = BarycentricForm(support, values, weights)
        z = 0.7 - 0.3j
        num = sum(
            w * c * np.prod([z - s for j, s in enumerate(support) if j != i])
            for i, (w, c, s) in enumerate(zip(weights, values, support))
        )
        den = sum(
            w * np.prod([z - s for j, s in enumerate(support) if j != i])
            for i, (w, s) in enumerate(zip(weights, support))
        )
        assert abs(evaluate_barycentric(form, z) - num / den) <= 1e-13


class TestPolesOf:
    def test_two_point_symmetric(self):
        form = BarycentricForm([0.0, 1.0], [1.0, 1.0], np.array([1.0, 1.0]) / np.sqrt(2))
        poles = poles_of(form)
        assert len(poles) == 1 and abs(poles[0] - 0.5) <= 1e-12

    def test_three_point_symmetric(self):
        form = BarycentricForm(
            [-1.0, 0.0, 1.0], [1.0, 1.0, 1.0], np.ones(3) / np.sqrt(3)
        )
        poles = poles_of(form)
        expected = np.array([-1.0, 1.0]) / np.sqrt(3)
        assert np.abs(poles - expected).max() <= 1e-12

    def test_two_pole_fit(self):
        values = pole_samples(KGRID, [0.5j, -2j], [1.0, 1.0])
        form, _ = aaa_fit(KGRID, values)
        # both poles have real part zero, so their sorted order rests on
        # rounding: compare as sets
        assert match_complex_sets(poles_of(form), [0.5j, -2j]) <= 1e-9

    def test_count_on_exact_fits(self):
        rng = np.random.default_rng(5)
        for order in (1, 2, 4, 6):
            signal, _ = random_univariate(rng, order)
            values = np.array(
                [signal.fourier_coefficient([k], 2.0) for k in range(-10, 11)]
            )
            form, _ = aaa_fit(KGRID, values)
            assert len(poles_of(form)) == len(form) - 1

    def test_zero_weight_sum_is_a_typed_error(self):
        # weights summing to zero: q(z) = (z + 3) / (z^3 - z) keeps one finite
        # zero, and its denominator degree dropped (a pole at infinity)
        form = BarycentricForm(
            [-1.0, 0.0, 1.0], [1.0, 2.0, 3.0], np.array([1.0, -3.0, 2.0]) / np.sqrt(14)
        )
        with pytest.raises(DegenerateFrequency, match="pole at infinity"):
            poles_of(form)

    def test_against_qz_reference(self):
        # 300 seeded exact fits: the deflated arrowhead matrix is within 10x
        # the QZ error of the full pencil on every true pole
        rng = np.random.default_rng(2024)
        for _ in range(300):
            order, n_half = int(rng.integers(2, 9)), int(rng.integers(15, 41))
            while True:
                truth = (rng.uniform(-n_half / 3, n_half / 3, order)
                         + 1j * rng.choice([-1, 1], order) * rng.uniform(0.2, 3.0, order))
                gaps = np.abs(truth[:, None] - truth[None, :]) + np.eye(order)
                if gaps.min() > 0.5:
                    break
            residues = rng.standard_normal(order) + 1j * rng.standard_normal(order)
            points = np.arange(-n_half, n_half + 1, dtype=float)
            form, _ = aaa_fit(points, pole_samples(points, truth, residues))
            new, qz = poles_of(form), qz_arrowhead_poles(form)
            assert len(new) == len(qz)
            err_new = np.abs(new[None, :] - truth[:, None]).min(axis=1)
            err_qz = np.abs(qz[None, :] - truth[:, None]).min(axis=1)
            assert np.all(err_new <= 10 * err_qz + 1e-12)


class TestLoewnerPencil:
    def test_single_pole(self):
        b = 0.3 + 0.8j
        values = pole_samples(KGRID, [b], [2.0])
        poles = loewner_pencil_poles(KGRID, values, 1)
        assert abs(poles[0] - b) <= 1e-10

    def test_two_poles(self):
        values = pole_samples(KGRID, [1j, -1 + 2j], [2.0, 3.0])
        poles = loewner_pencil_poles(KGRID, values, 2)
        assert np.abs(poles - np.array([-1 + 2j, 1j])).max() <= 1e-9

    def test_reference_axis_poles(self):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        points = np.arange(-case.N, case.N + 1, dtype=float)
        poles = loewner_pencil_poles(points, src.axis_line(0), 5)
        expected = sort_complex(case.signal.frequencies[:, 0] * case.P / TWO_PI_I)
        assert np.abs(poles - expected).max() <= 1e-9

    def test_rank_deficiency_detected(self):
        values = pole_samples(KGRID, [0.5j], [1.0])
        with pytest.raises(IllConditioned):
            loewner_pencil_poles(KGRID, values, 3)

    def test_exact_fit_below_order_detected(self):
        # the impulse line is fitted exactly by two support points, so the
        # order-3 pencil has no third support point to project onto
        values = (KGRID == 0).astype(float)
        with pytest.raises(IllConditioned, match="2 < 3 support points"):
            loewner_pencil_poles(KGRID, values, 3)

    def test_refused_lines_feed_no_nan_to_eigvals(self, monkeypatch):
        # one stacked pencil for three lines on the same support points: a
        # one-pole line is rank deficient at order 3, and a line of +-1.5e307
        # keeps its divided differences finite but overflows the shifted ones,
        # so its pencil is non-finite; both are refused and enter the one
        # eigvals call as zeros
        truth = np.array([-1 + 2j, 0.5 - 0.3j, 1j])
        good = pole_samples(KGRID, truth, [2.0, 3.0, -1.0])
        overflow = 1.5e307 * (-1.0) ** KGRID
        stack = np.array([good, pole_samples(KGRID, [0.5j], [1.0]), overflow])
        eigvals, finite = np.linalg.eigvals, []

        def checked(a):
            finite.append(bool(np.isfinite(a).all()))
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", checked)
        poles, errors = _pencil_poles(KGRID.astype(complex), stack,
                                      np.array([[10, 0, 20]] * 3))
        assert finite == [True]
        assert np.abs(poles[0] - sort_complex(truth)).max() <= 1e-9
        assert sorted(errors) == [1, 2]
        assert type(errors[1]) is IllConditioned
        assert "divided-difference matrix is numerically rank deficient" in str(errors[1])
        assert type(errors[2]) is BadParameters
        assert "divided-difference pencil has non-finite entries" in str(errors[2])

    @pytest.mark.parametrize("order", [2.0, 2.5, True, "2"])
    def test_order_must_be_a_positive_integer(self, order):
        # these used to fail naming max_order, and "2" with a bare TypeError
        values = pole_samples(KGRID, [1j, -1 + 2j], [2.0, 3.0])
        with pytest.raises(BadParameters, match="^order must be a positive integer"):
            loewner_pencil_poles(KGRID, values, order)

    def test_agreement_with_eigenproblem(self):
        rng = np.random.default_rng(6)
        points = np.arange(-20, 21, dtype=float)
        for order in (2, 5, 8):
            signal, _ = random_univariate(rng, order, re_bound=8.0, min_sep=1.0)
            values = np.array(
                [signal.fourier_coefficient([k], 2.0) for k in points.real.astype(int)]
            )
            form, _ = aaa_fit(points, values)
            via_eig = poles_of(form)
            via_pencil = loewner_pencil_poles(points, values, order)
            assert np.abs(via_eig - via_pencil).max() <= 1e-8

    def test_loewner_rank_drop(self):
        # exact order-M samples give a numerically rank-M divided-difference
        # matrix no matter the partition
        rng = np.random.default_rng(7)
        signal, _ = random_univariate(rng, 4)
        points = np.arange(-10, 11)
        values = np.array([signal.fourier_coefficient([k], 2.0) for k in points])
        sel = rng.permutation(21)[:5]
        rest = np.setdiff1d(np.arange(21), sel)
        loewner = (values[rest, None] - values[sel][None, :]) / (
            points[rest, None] - points[sel][None, :]
        )
        s = np.linalg.svd(loewner, compute_uv=False)
        assert s[4] / s[0] <= 1e-10


class TestResidues:
    def test_single_pole(self):
        values = pole_samples(KGRID, [0.5j], [3.0])
        res = residues_ls([0.5j], KGRID, values)
        assert abs(res[0] - 3.0) <= 1e-12

    def test_two_pole_roundtrip(self):
        rng = np.random.default_rng(8)
        poles = np.array([0.4 + 0.9j, -1.1 - 0.6j])
        residues = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        values = pole_samples(KGRID, poles, residues)
        recovered = residues_ls(poles, KGRID, values)
        assert np.abs(recovered - residues).max() <= 1e-10

    @pytest.mark.parametrize("call", [residues_ls, filter_spurious])
    def test_no_poles_rejected(self, call):
        with pytest.raises(BadParameters, match="pole"):
            call([], np.arange(-2, 3.0), np.ones(5))

    # a pair 1e-15 apart used to split the residue 1 into [0.5, 0.5], and 16
    # poles on 13 points gave a minimum-norm answer
    @pytest.mark.parametrize("poles", [[0.5j, 0.5j + 1e-15], 0.3 + 0.5j + 0.7 * np.arange(16)],
                             ids=["close-pair", "wide"])
    def test_rank_deficient_system_refused(self, poles):
        k = np.arange(-6, 7, dtype=float)
        with pytest.raises(IllConditioned, match="residue system is numerically rank deficient"):
            residues_ls(poles, k, pole_samples(k, [0.5j], [1.0]))

    @pytest.mark.parametrize("call", [residues_ls, filter_spurious])
    def test_pole_a_hair_off_a_sample_refused(self, call, capfd):
        # 1/(0 - 1e-320j) overflows; LAPACK used to report an illegal value
        # and the solve ended in ConvergenceFailure
        with pytest.raises(BadParameters, match="residue system has non-finite entries"):
            call([1e-320j, 1.5 + 0.2j], np.arange(-3, 4, dtype=float), np.ones(7))
        assert "illegal value" not in "".join(capfd.readouterr())

    def test_reference_axis_coefficients(self):
        # the axis-0 residues equal the term amplitudes divided by the
        # negated opposite-axis poles
        case = BIVARIATE_5
        sig = case.signal
        src = sig.synthesize(case.P, case.N, SparseLines(case.tau))
        points = np.arange(-case.N, case.N + 1, dtype=float)
        b = sig.frequencies * case.P / TWO_PI_I
        amplitudes = (
            sig.coefficients
            * np.prod(1.0 - np.exp(sig.frequencies * case.P), axis=1)
            / TWO_PI_I ** 2
        )
        expected = -amplitudes / b[:, 1]
        order = np.lexsort((b[:, 0].imag, b[:, 0].real))
        fitted = residues_ls(b[order, 0], points, src.axis_line(0))
        assert np.abs(fitted - expected[order]).max() <= 1e-9 * np.abs(expected).max()


class TestRecoverUnivariate:
    def test_single_term(self):
        sig = ExponentialSum(np.array([[1j]]), np.array([2.0]))
        src = sig.synthesize(2.0, 10, "full")
        rec = recover_univariate(src)
        report = relative_errors(sig, rec)
        assert report.frequency_error <= 1e-10
        assert report.coefficient_error <= 1e-10

    def test_constant_signal_refused_at_synthesis(self):
        sig = ExponentialSum(np.zeros((1, 1)), np.array([1.0]))
        with pytest.raises(DegenerateFrequency):
            sig.synthesize(1.0, 10, "full")

    def test_five_term_roundtrip(self):
        rng = np.random.default_rng(9)
        sig, _ = random_univariate(rng, 5)
        src = sig.synthesize(2.0, 15, "full")
        rec = recover_univariate(src)
        report = relative_errors(sig, rec)
        assert report.frequency_error <= 1e-9
        assert report.coefficient_error <= 1e-9

    def test_pencil_route(self):
        rng = np.random.default_rng(10)
        sig, _ = random_univariate(rng, 3)
        src = sig.synthesize(2.0, 12, "full")
        rec = recover_univariate(src, method="pencil")
        assert relative_errors(sig, rec).frequency_error <= 1e-9

    def test_spike_component_detected(self):
        # a frequency of the form 2*pi*i*k0/P contributes a one-index spike on
        # top of the rational structure; the fit parks a pole on that index
        n = 12
        k = np.arange(-n, n + 1, dtype=float)
        values = 2.0 / (k - (0.4 + 0.7j)) - 1.3 / (k - (-1.2 - 0.5j))
        values[n + 3] += 0.8 - 0.4j
        src = CoefficientSource(1, 2.0, n, FullGrid(), values)
        with pytest.raises(DegenerateFrequency, match=r"\[3\]"):
            recover_univariate(src)


def _univariate_line(values):
    n_half = (len(values) - 1) // 2
    return recover_univariate(
        CoefficientSource(1, BIVARIATE_5.P, n_half, FullGrid(), values)
    )


# every public entry point that fits one index line
LINE_FITS = {
    "pole_residue_from_samples": pole_residue_from_samples,
    "recover_univariate": _univariate_line,
    "recover_axis": lambda values: recover_axis(values, 0),
}


class TestOneLineFitPolicy:
    @pytest.mark.parametrize("entry", ["recover_univariate", "recover_axis"])
    def test_isolated_misfit_same_error(self, entry):
        line = spiked_bivariate_5().axis_line(0)
        with pytest.raises(DegenerateFrequency, match="isolated"):
            LINE_FITS[entry](line)

    @pytest.mark.parametrize("entry", ["pole_residue_from_samples", "recover_axis"])
    def test_even_sample_count_rejected(self, entry):
        case = BIVARIATE_5
        src = case.signal.synthesize(case.P, case.N, SparseLines(case.tau))
        with pytest.raises(ShapeMismatch):
            LINE_FITS[entry](src.axis_line(0)[1:])

    def test_close_poles_refused(self, monkeypatch):
        # the engine reports the first pole as two copies 1e-10 apart
        # (relative), and the acceptance step refuses them
        case = BIVARIATE_5
        line = case.signal.synthesize(case.P, case.N, SparseLines(case.tau)).axis_line(0)
        monkeypatch.setattr(rational, "_arrowhead_poles",
                            with_close_pair(rational._arrowhead_poles))
        with pytest.raises(IllConditioned, match=r"^two fitted poles lie 1\.000e-10 apart "
                                                 r"relative to the largest, within "
                                                 r"POLE_SEPARATION_RTOL = 1e-08$"):
            pole_residue_from_samples(line)

    def test_close_poles_refused_by_the_residual_check(self):
        # the same rule holds for a model handed to check_fit_residual
        poles = np.array([0.5 + 0.8j, 0.5 + 0.8j + 1e-9, -1.0 + 0.3j])
        pr = PoleResidue(poles, [1.0, -1.0, 2.0])
        with pytest.raises(IllConditioned, match="POLE_SEPARATION_RTOL = 1e-08$"):
            check_fit_residual(pr, KGRID, pr(KGRID))


def composed_line_fit(values, method="eig"):
    """The line fit as the composition of the public steps: the reference for
    the validated-once path of pole_residue_from_samples.  The pencil poles
    come from the per-line oracle on a greedy refit."""
    vals = np.asarray(values, dtype=complex)
    n_half = (len(vals) - 1) // 2
    points = np.arange(-n_half, n_half + 1, dtype=float)
    form, trace = aaa_fit(points, vals)
    if not trace.converged:
        raise NoConvergence(
            f"greedy fit did not reach tolerance within {trace.iterations} steps"
        )
    if len(form) < 2:
        raise DegenerateFrequency(
            "samples are constant; no rational structure of positive order"
        )
    if method == "eig":
        poles = poles_of(form)
    else:
        poles = refit_pencil_poles(points, vals, len(form) - 1)
    bad = np.abs(points[None, :] - poles[:, None]).min(axis=1) <= SAMPLE_COLLISION_TOL
    if bad.any():
        nearest = points[np.abs(points[None, :] - poles[bad, None]).argmin(axis=1)]
        raise DegenerateFrequency(
            f"fitted pole sits on sample point(s) "
            f"{np.round(nearest).astype(int).tolist()}; the coefficients "
            f"there have no rational structure"
        )
    pr = filter_spurious(poles, points, vals)
    srt = np.lexsort((pr.poles.imag, pr.poles.real))
    pr = PoleResidue(pr.poles[srt], pr.residues[srt])
    check_fit_residual(pr, points, vals)
    return pr, trace


def reference_greedy_trace(values, tol=1e-12):
    """(iterations, support order, converged) of the greedy fit on k = -N..N,
    by the plain loop: an SVD at every step and a list of free points."""
    vals = np.asarray(values, dtype=complex)
    n_half = (len(vals) - 1) // 2
    pts = np.arange(-n_half, n_half + 1, dtype=float)
    scale = np.abs(vals).max()
    chosen = [int(np.argmax(np.abs(vals)))]
    remaining = [i for i in range(len(vals)) if i != chosen[0]]
    iterations = 0
    while True:
        iterations += 1
        rest = np.array(remaining)
        cauchy = 1.0 / (pts[rest, None] - pts[chosen][None, :])
        loewner = (vals[rest, None] - vals[chosen][None, :]) * cauchy
        weights = np.linalg.svd(loewner)[2][-1].conj()
        with np.errstate(divide="ignore", invalid="ignore"):
            fit = (cauchy @ (weights * vals[chosen])) / (cauchy @ weights)
        resid = np.nan_to_num(np.abs(vals[rest] - fit), nan=np.inf)
        if resid.max() <= tol * scale:
            return iterations, tuple(chosen), True
        if len(chosen) >= min(len(vals) // 2, 100) or len(remaining) <= 1:
            return iterations, tuple(chosen), False
        chosen.append(int(rest[np.argmax(resid)]))
        remaining.remove(chosen[-1])


def _outcome(fit, values):
    try:
        return fit(values)
    except Exception as exc:  # the error itself is the outcome compared
        return exc


def _reference_grid_lines():
    """Every line the seven reference grids feed to the fit, recorded from
    the depth-first tree of the oracle."""
    lines = []

    def record(values, **kwargs):
        lines.append(np.array(values))
        return pole_residue_from_samples(values, **kwargs)

    for case in ALL_REFERENCE:
        depth_first_pole_tree(case.signal.synthesize(case.P, case.N, FullGrid()),
                              fit=record)
    return lines


def _random_lines(count=200):
    """Seeded random lines, M = 1..8 and N = 10..40; every fourth is noisy."""
    rng = np.random.default_rng(2024)
    lines = []
    for i in range(count):
        signal, _ = random_univariate(rng, int(rng.integers(1, 9)))
        line = signal.synthesize(2.0, int(rng.integers(10, 41)), "full").axis_line(0)
        if i % 4 == 3:
            noise = rng.standard_normal(len(line)) + 1j * rng.standard_normal(len(line))
            line = line + 1e-9 * np.abs(line).max() * noise
        lines.append(line)
    return lines


def _degenerate_lines():
    k = np.arange(-12, 13, dtype=float)
    spike = 2.0 / (k - (0.4 + 0.7j)) - 1.3 / (k - (-1.2 - 0.5j))
    spike[15] += 0.8 - 0.4j
    unconverged = np.random.default_rng(3).standard_normal(21).astype(complex)
    return [np.full(11, 5.0 + 0j), np.zeros(11, complex), spike,
            spiked_bivariate_5().axis_line(0), unconverged,
            np.array([1.0 + 0j]), np.array([1.0, np.nan, 2.0])]


LINE_SETS = {"reference": _reference_grid_lines, "random": _random_lines,
             "degenerate": _degenerate_lines}


def assert_stacks_match(lines, method, single):
    """_fit_lines on each stack of the lines of one length gives, line by
    line, what single gives on that line alone: the same error type and
    message, or the same trace with poles and residues within 1e-13.
    Returns the number of stacks of more than one line."""
    by_length = {}
    for values in lines:
        by_length.setdefault(len(values), []).append(values)
    stacked = 0
    for group in by_length.values():
        stack = np.array(group, dtype=complex)
        fits = _outcome(lambda v: _fit_lines(v, DEFAULT_TOL, None, method), stack)
        if isinstance(fits, Exception):
            fits = [fits] * len(group)
        stacked += len(group) > 1
        for values, fit in zip(group, fits):
            alone = _outcome(single, values)
            if isinstance(alone, Exception):
                assert type(fit) is type(alone)
                assert str(fit) == str(alone)
                continue
            (pr, trace), (poles, residues, stacked_trace, pinv) = alone, fit
            assert stacked_trace == trace
            # the pseudo-inverse handed back is the one the residue solve applied
            assert (np.abs(pinv @ values - residues).max()
                    <= 1e-13 * np.abs(residues).max())
            assert len(poles) == len(pr.poles)
            assert np.abs(poles - pr.poles).max() <= 1e-13 * np.abs(pr.poles).max()
            assert (np.abs(residues - pr.residues).max()
                    <= 1e-13 * np.abs(pr.residues).max())
    return stacked


class TestValidatedOncePath:
    """pole_residue_from_samples checks its arguments once and then runs the
    private kernels; it must give what the public steps give, step by step."""

    @pytest.mark.parametrize("source", ["reference", "random", "degenerate"])
    def test_matches_public_step_composition(self, source):
        lines = LINE_SETS[source]()
        assert len(lines) >= {"reference": 85, "random": 200, "degenerate": 7}[source]
        failures = 0
        for values in lines:
            lean = _outcome(pole_residue_from_samples, values)
            composed = _outcome(composed_line_fit, values)
            if isinstance(composed, Exception):
                failures += 1
                assert type(lean) is type(composed)
                assert str(lean) == str(composed)
                continue
            (pr, trace), (ref, ref_trace) = lean, composed
            assert trace.iterations == ref_trace.iterations
            assert trace.chosen_support_order == ref_trace.chosen_support_order
            assert trace.converged == ref_trace.converged
            assert (trace.iterations, trace.chosen_support_order, trace.converged) \
                == reference_greedy_trace(values)
            assert len(pr.poles) == len(ref.poles)
            assert np.abs(pr.poles - ref.poles).max() <= 1e-13 * np.abs(ref.poles).max()
            assert (np.abs(pr.residues - ref.residues).max()
                    <= 1e-13 * np.abs(ref.residues).max())
        if source == "degenerate":
            assert failures == len(lines)
        elif source == "random":
            assert 0 < failures < len(lines)
        else:
            assert failures == 0

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    @pytest.mark.parametrize("source", ["reference", "random", "degenerate"])
    def test_stacked_fit_matches_single_line_fits(self, source, method):
        # the tree fits every line of a level in one stacked call; each line
        # must come out as pole_residue_from_samples gives it alone
        def alone(values):
            return pole_residue_from_samples(values, method=method)

        assert assert_stacks_match(LINE_SETS[source](), method, alone) >= 1

    @pytest.mark.parametrize("source", ["reference", "random", "degenerate"])
    def test_pencil_matches_the_refit_oracle(self, source):
        # the pencil projects onto the first m - 1 support points of the fit
        # that ran, which are the points a greedy refit at tol = tiny picks
        def refit(values):
            return composed_line_fit(values, method="pencil")

        assert assert_stacks_match(LINE_SETS[source](), "pencil", refit) >= 1

    @pytest.mark.parametrize("values", [np.ones((3, 3)), np.array(1.0 + 0j)])
    def test_line_must_be_one_dimensional(self, values):
        with pytest.raises(ShapeMismatch, match="1-D"):
            pole_residue_from_samples(values)

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": 0.0}, "tol"),
        ({"max_order": 0}, "max_order"),
        ({"method": "qz"}, "method"),
    ])
    def test_arguments_checked_before_any_work(self, kwargs, match):
        # constant samples would end in DegenerateFrequency after the fit
        with pytest.raises(BadParameters, match=match):
            pole_residue_from_samples(np.full(11, 2.0), **kwargs)

    # nan tol used to end in NoConvergence and inf tol in "samples are
    # constant"; a nan max_order meant no cap, 2.5 and True were taken as is;
    # a str, None or complex tol ended in an untyped TypeError, and True was
    # read as 1.0
    @pytest.mark.parametrize("name, bad", [
        ("tol", np.nan), ("tol", np.inf), ("tol", -1.0),
        ("tol", "1e-8"), ("tol", None), ("tol", 1e-8 + 0j), ("tol", True),
        ("max_order", 2.5), ("max_order", True), ("max_order", np.nan),
    ])
    def test_tol_and_max_order_checked(self, name, bad):
        line = BIVARIATE_5.signal.synthesize(BIVARIATE_5.P, 15, "full").axis_line(0)
        with pytest.raises(BadParameters, match=name):
            pole_residue_from_samples(line, **{name: bad})
        with pytest.raises(BadParameters, match=name):
            aaa_fit(np.arange(-15, 16), line, **{name: bad})

    def test_lapack_failure_is_pinned_on_its_line(self, monkeypatch):
        # an SVD failure fails the whole stacked call; the stack is refitted
        # line by line, so only the line whose own SVD fails carries it.  The
        # planted line is the only real one, so only its divided differences
        # are real
        line = BIVARIATE_5.signal.synthesize(BIVARIATE_5.P, 15, "full").axis_line(0)
        stack = np.array([line, line.real, line[::-1]])
        assert (line.imag != 0).any()
        svd = np.linalg.svd

        def failing(a, *args, **kwargs):
            if (a.imag == 0).all(axis=(-2, -1)).any():
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        for method in ("eig", "pencil"):
            fits = _fit_lines(stack, DEFAULT_TOL, None, method)
            with pytest.raises(ConvergenceFailure, match="SVD did not converge") as alone:
                pole_residue_from_samples(stack[1], method=method)
            assert type(fits[1]) is ConvergenceFailure
            assert str(fits[1]) == str(alone.value)
            for values, fit in zip(stack[::2], fits[::2]):
                pr, trace = pole_residue_from_samples(values, method=method)
                assert fit[2] == trace and np.array_equal(fit[0], pr.poles)

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    def test_overflowing_line_refused_alone(self, method, monkeypatch):
        # samples alternating +-1.5e308 used to overflow the Loewner matrix;
        # its SVD failed the whole stack (and a draw of this kind hung
        # LAPACK), so that every line was refitted alone.  Scaled by a power
        # of two, the line now fits in the stack and ends in a typed error
        k = np.arange(-5, 6, dtype=float)
        good = pole_samples(k, [0.3 + 0.8j, -1.2 + 0.4j], [1.0, -0.7])
        big = 1.5e308 * (-1.0) ** np.arange(11)
        stack = np.array([good, big, 2.0 * good])
        calls = []
        fit_lines = rational._fit_lines

        def counted(*args):
            calls.append(args)
            return fit_lines(*args)

        monkeypatch.setattr(rational, "_fit_lines", counted)
        fits = rational._fit_lines(stack, DEFAULT_TOL, None, method)
        monkeypatch.undo()
        assert len(calls) == 1
        assert isinstance(fits[1], ExpanalError)
        with pytest.raises(ExpanalError) as alone:
            pole_residue_from_samples(big, method=method)
        assert type(fits[1]) is type(alone.value) and str(fits[1]) == str(alone.value)
        for values, fit in zip(stack[::2], fits[::2]):
            pr, trace = pole_residue_from_samples(values, method=method)
            assert fit[2] == trace and np.array_equal(fit[0], pr.poles)

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    def test_one_support_point(self, method):
        # a fit that stopped at one support point is constant: converged, the
        # samples are; stopped by the cap (max_order 1, or N = 1), the fit
        # did not converge, as with any other cap
        k = np.arange(-5, 6, dtype=float)
        line = pole_samples(k, [0.3 + 0.8j, -1.2 + 0.4j, 2.1 - 0.6j], [1.0, -0.7, 0.4])
        for values, cap in ((line, 1), ([1.0, 2.0, 5.0], None)):
            with pytest.raises(NoConvergence,
                               match="^greedy fit did not reach tolerance within 1 steps$"):
                pole_residue_from_samples(values, max_order=cap, method=method)
        for cap in (1, None):
            with pytest.raises(DegenerateFrequency, match="^samples are constant"):
                pole_residue_from_samples(np.full(11, 2.0 - 1j), max_order=cap, method=method)

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    def test_max_order_is_at_most_n(self, method):
        # N = 10: an unconverged pencil fit under the cap 15 used to end in
        # "need at least 28 samples for order 14" where eig gave NoConvergence
        k = np.arange(-10, 11, dtype=float)
        poles = np.array([0.3 + 0.8j, -1.2 + 0.4j, 2.1 - 0.6j])
        exact = pole_samples(k, poles, [1.0, -0.7, 0.4])
        noise = np.random.default_rng(1).standard_normal(21)
        noisy = exact + 1e-9 * np.abs(exact).max() * noise
        for values in (exact, noisy):
            for cap in (11, 15):
                with pytest.raises(BadParameters, match="max_order must be at most N = 10"):
                    pole_residue_from_samples(values, max_order=cap, method=method)
        pr, _ = pole_residue_from_samples(exact, max_order=10, method=method)
        assert np.abs(pr.poles - sort_complex(poles)).max() <= 1e-10
        with pytest.raises(NoConvergence, match="within 10 steps"):
            pole_residue_from_samples(noisy, max_order=10, method=method)


class TestGreedyVerdict:
    """The greedy fit's verdict settles a line before its poles are read: an
    unconverged fit ends in NoConvergence, a converged one on one support
    point in the constant-line DegenerateFrequency, and neither reaches a
    pole engine or the residue solve."""

    # exact sums of 1-4 poles; at tol 1e-300 no fit converges, at 1e-17 and
    # 1e-15 some stop at the cap N and some do not
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(n_half=st.integers(4, 15), count=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1),
           tol=st.sampled_from([1e-300, 1e-17, 1e-15, 1e-12]))
    def test_no_convergence_exactly_when_the_greedy_fit_stops_short(
            self, n_half, count, seed, tol):
        rng = np.random.default_rng(seed)
        k = np.arange(-n_half, n_half + 1, dtype=float)
        poles = (rng.uniform(-n_half, n_half, count)
                 + 1j * rng.uniform(0.1, 1.5, count) * rng.choice([-1.0, 1.0], count))
        line = pole_samples(k, poles, rng.standard_normal(count) + 1j * rng.standard_normal(count))
        _, trace = aaa_fit(k, line, tol=tol, max_order=n_half)
        verdict = f"greedy fit did not reach tolerance within {trace.iterations} steps"
        for method in ("eig", "pencil"):
            fit = _outcome(lambda v: pole_residue_from_samples(v, tol=tol, method=method), line)
            if trace.converged:
                assert "greedy fit did not reach tolerance" not in str(fit)
            else:
                assert type(fit) is NoConvergence and str(fit) == verdict

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    def test_refused_lines_reach_no_engine(self, method, monkeypatch):
        # one stack: an exact 2-pole sum (converges on 3 support points), a
        # constant line and seeded noise (stops at the cap N = 10)
        k = np.arange(-10, 11, dtype=float)
        exact = pole_samples(k, [0.3 + 0.8j, -1.2 + 0.4j], [1.0, -0.7])
        noise = np.random.default_rng(5).standard_normal(21).astype(complex)
        stack = np.array([exact, np.full(21, 2.0 - 1j), noise])
        rows = {"_arrowhead_poles": [], "_pencil_poles": [], "cauchy_lstsq": []}

        def seen(module, name, stacked):
            call = getattr(module, name)

            def wrapped(*args):
                rows[name].append(len(args[stacked]))
                return call(*args)

            monkeypatch.setattr(module, name, wrapped)

        seen(rational, "_arrowhead_poles", 0)
        seen(rational, "_pencil_poles", 1)
        seen(linalg, "cauchy_lstsq", 0)
        fits = _fit_lines(stack, DEFAULT_TOL, None, method)
        monkeypatch.undo()
        engine = "_arrowhead_poles" if method == "eig" else "_pencil_poles"
        assert rows == {"_arrowhead_poles": [], "_pencil_poles": [],
                        engine: [1], "cauchy_lstsq": [1]}
        pr, trace = pole_residue_from_samples(exact, method=method)
        assert fits[0][2] == trace and np.array_equal(fits[0][0], pr.poles)
        assert type(fits[1]) is DegenerateFrequency
        assert str(fits[1]).startswith("samples are constant")
        assert type(fits[2]) is NoConvergence
        assert str(fits[2]) == "greedy fit did not reach tolerance within 10 steps"

    def test_non_finite_stack_refused_whole(self):
        # only the public fit can hand the kernels such a line: it is
        # refused after the argument checks, before any work
        line = np.array([1.0, np.nan, 2.0])
        with pytest.raises(BadParameters, match="^values contains non-finite entries$"):
            _fit_lines(np.array([line, np.ones(3)], dtype=complex), DEFAULT_TOL, None, "eig")
        with pytest.raises(BadParameters, match="^tol"):
            pole_residue_from_samples(line, tol=0.0)


def _axis_lines():
    """The axis lines of the reference grids and of seeded axis-distinct
    signals (d = 2..3, M = 2..6)."""
    lines = [case.signal.synthesize(case.P, case.N, FullGrid()).axis_line(axis)
             for case in ALL_REFERENCE for axis in range(case.signal.d)]
    rng = np.random.default_rng(18)
    for order in range(2, 7):
        for d in (2, 3):
            signal, _ = random_axis_distinct(rng, order, d, tau=4)
            source = signal.synthesize(2.0, int(rng.integers(12, 25)), SparseLines(4))
            lines += [source.axis_line(axis) for axis in range(d)]
    return lines


class TestScaledFit:
    """The line fit runs on each line scaled by a power of two, so a line's
    scale can neither overflow a kernel nor change its fit."""

    @pytest.mark.parametrize("method", ["eig", "pencil"])
    def test_fit_is_scale_equivariant(self, method):
        for line in _axis_lines():
            poles, residues, trace, _ = _fit_lines(line[None], DEFAULT_TOL, None, method)[0]
            for k in (-900, -1, 1, 900):
                scaled = line * 2.0 ** k
                parts = np.abs(scaled.view(float))
                assert parts[parts > 0].min() >= np.finfo(float).tiny  # all normal
                fit = _fit_lines(scaled[None], DEFAULT_TOL, None, method)[0]
                assert np.array_equal(fit[0], poles)
                assert np.array_equal(fit[1], residues * 2.0 ** k)
                assert fit[2].iterations == trace.iterations
                assert fit[2].chosen_support_order == trace.chosen_support_order
                assert fit[2].converged == trace.converged
                assert fit[2].max_residual_history == tuple(
                    h * 2.0 ** k for h in trace.max_residual_history)

    def test_samples_near_the_float_limit_end_typed(self):
        # samples up to 1e308 used to overflow the residue solve and the
        # misfit model (a RuntimeWarning, then NoConvergence on garbage) on
        # draws 502, 529, 870 and 996; tier-1 turns any RuntimeWarning into
        # an error
        rng = np.random.default_rng(0)
        for _ in range(1000):
            with np.errstate(over="ignore"):  # a draw beyond 1.8e308 is inf
                values = rng.standard_normal(11) * 10.0 ** rng.uniform(300, 308, 11)
            tol = 10.0 ** rng.uniform(-12, -2)
            for method in ("eig", "pencil"):
                try:
                    pr, _ = pole_residue_from_samples(values, tol=tol, method=method)
                except ExpanalError:
                    continue
                assert np.isfinite(pr.residues).all()
