"""Exception types raised by the recovery pipelines."""


class ExpanalError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(ExpanalError):
    """Operands have incompatible dimensions."""


class BadParameters(ExpanalError):
    """A parameter is outside its admissible range."""


class ConvergenceFailure(ExpanalError):
    """A dense linear-algebra backend iteration failed to converge (raised by
    linalg._lapack alone)."""


class NoConvergence(ExpanalError):
    """A rational fit hit its order cap with the residual above tolerance."""


class IllConditioned(ExpanalError):
    """A linear system is numerically rank deficient."""


class DegenerateFrequency(ExpanalError):
    """A frequency component coincides with a sampled Fourier index,
    so the coefficient data has no rational structure there."""


class AxisOrderMismatch(ExpanalError):
    """Different coordinate axes report different recovered orders."""


class AmbiguousPairing(ExpanalError):
    """No pole pairing satisfies the matching conditions with a clear margin."""


class TauViolation(ExpanalError):
    """A recovered pole lies outside the strip the shift parameter guarantees."""


class CoverageMismatch(ExpanalError):
    """The coefficient source's coverage does not fit the requested method."""


class NotFitted(ExpanalError):
    """An estimator method that needs a fitted model was called before fit."""


class ResynthesisMismatch(ExpanalError):
    """Recovered parameters do not reproduce the input coefficients; the data
    may hide a pole (e.g. a slice function vanishing at the origin)."""
