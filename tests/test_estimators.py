"""Tests for the fit/predict estimator front end."""

import numpy as np
import pytest

from expanal import (
    FullGrid,
    RecursiveRecovery,
    SparseGridRecovery,
    SparseLines,
)
from expanal.errors import CoverageMismatch, NotFitted

from cases import BIVARIATE_5, TRIVARIATE_4


@pytest.fixture(scope="module")
def sparse_source():
    case = BIVARIATE_5
    return case.signal.synthesize(case.P, case.N, SparseLines(case.tau))


@pytest.fixture(scope="module")
def full_source():
    case = TRIVARIATE_4
    return case.signal.synthesize(case.P, case.N, FullGrid())


class TestParamProtocol:
    def test_get_params(self):
        est = SparseGridRecovery(tol=1e-10)
        params = est.get_params()
        assert params["tol"] == 1e-10
        assert set(params) == {"tol", "method"}

    def test_set_params_returns_self(self):
        est = RecursiveRecovery()
        assert est.set_params(tol=1e-9) is est
        assert est.get_params()["tol"] == 1e-9

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            SparseGridRecovery().set_params(banana=1)

    def test_manual_clone(self):
        est = RecursiveRecovery(tol=1e-11, seed=7)
        twin = type(est)(**est.get_params())
        assert twin.get_params() == est.get_params()

    def test_sklearn_clone_compatible(self):
        sklearn = pytest.importorskip("sklearn")
        clone = sklearn.base.clone(SparseGridRecovery(tol=1e-9))
        assert clone.get_params()["tol"] == 1e-9

    def test_repr_lists_params(self):
        assert "tol=1e-09" in repr(SparseGridRecovery(tol=1e-9))


class TestSparseEstimator:
    def test_fit_sets_attributes(self, sparse_source):
        est = SparseGridRecovery().fit(sparse_source)
        assert est.order_ == 5
        assert est.frequencies_.shape == (5, 2)
        assert est.coefficients_.shape == (5,)
        assert len(est.pairing_.permutations) == 1

    def test_predict_matches_truth(self, sparse_source):
        est = SparseGridRecovery().fit(sparse_source)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, size=(20, 2))
        truth = BIVARIATE_5.signal.evaluate(pts)
        pred = est.predict(pts)
        assert np.abs(pred - truth).max() <= 1e-8 * np.abs(truth).max()

    def test_wrong_coverage(self, full_source):
        with pytest.raises(CoverageMismatch):
            SparseGridRecovery().fit(full_source)

    def test_predict_before_fit(self):
        with pytest.raises(NotFitted):
            SparseGridRecovery().predict(np.zeros((1, 2)))


class TestRecursiveEstimator:
    def test_fit_sets_tree(self, full_source):
        est = RecursiveRecovery().fit(full_source)
        assert est.order_ == 4
        assert len(est.tree_.roots) == 2

    def test_predict_matches_truth(self, full_source):
        est = RecursiveRecovery().fit(full_source)
        rng = np.random.default_rng(1)
        pts = rng.uniform(-2, 2, size=(20, 3))
        truth = TRIVARIATE_4.signal.evaluate(pts)
        pred = est.predict(pts)
        assert np.abs(pred - truth).max() <= 1e-8 * np.abs(truth).max()
