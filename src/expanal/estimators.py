"""Estimator front end following the scikit-learn protocol.

Both recovery methods are exposed as fit-shaped estimators: `fit` consumes a
CoefficientSource, the recovered parameters land in trailing-underscore
attributes, and `predict` evaluates the recovered signal at points.  The
get_params/set_params contract makes the classes clone- and pipeline-friendly
without a scikit-learn dependency.
"""

import inspect

import numpy as np

from .errors import NotFitted
from .rational import DEFAULT_TOL
from .recursive import recover_recursive
from .sparse import recover_sparse


class _BaseRecovery:
    """Shared parameter plumbing and the fitted-model surface."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [name for name in sig.parameters if name != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def _finish_fit(self, signal):
        self.signal_ = signal
        self.order_ = signal.order
        self.frequencies_ = signal.frequencies
        self.coefficients_ = signal.coefficients
        return self

    def _check_fitted(self):
        if not hasattr(self, "signal_"):
            raise NotFitted(f"{type(self).__name__} instance is not fitted yet")

    def predict(self, t):
        """Evaluate the recovered signal at a point (d,) or points (n, d)."""
        self._check_fitted()
        return self.signal_.evaluate(np.asarray(t, dtype=float))

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class SparseGridRecovery(_BaseRecovery):
    """Line-sampled recovery estimator.

    Requires a CoefficientSource with sparse-lines coverage; the diagonal
    shift is taken from the coverage descriptor.
    """

    def __init__(self, tol=DEFAULT_TOL, method="eig"):
        self.tol = tol
        self.method = method

    def fit(self, source, y=None):
        signal, certificate = recover_sparse(source, tol=self.tol, method=self.method)
        self.pairing_ = certificate
        return self._finish_fit(signal)


class RecursiveRecovery(_BaseRecovery):
    """Full-grid recursive dimension-reduction estimator.

    seed offsets the low-discrepancy walk that picks the resynthesis spot
    check's indices (see recover_recursive); it loads no numpy.random.
    """

    def __init__(self, tol=DEFAULT_TOL, method="eig", seed=0):
        self.tol = tol
        self.method = method
        self.seed = seed

    def fit(self, source, y=None):
        signal, tree = recover_recursive(
            source, tol=self.tol, method=self.method, seed=self.seed
        )
        self.tree_ = tree
        return self._finish_fit(signal)
