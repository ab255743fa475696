"""Recovery of multivariate exponential sums from their Fourier coefficients.

The coefficients of such a signal are samples of a multivariate rational
function at integer indices.  Two recovery methods exploit that structure:
a line-sampled method that fits each coordinate axis separately and pairs the
per-axis poles through shifted diagonal lines, and a full-grid method that
peels one dimension at a time and collects the poles in a tree.

Importing the package loads none of its modules and so not numpy, its one
dependency (scipy serves only the tests and the benchmark): each public name
is resolved from its module on first access (PEP 562), so a command-line verb
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it (a module name maps to itself)
_EXPORTS = {
    "errors": "errors",
    "RecursiveRecovery": "estimators",
    "SparseGridRecovery": "estimators",
    "gen_eig": "linalg",
    "lstsq": "linalg",
    "svd": "linalg",
    "CoefficientSource": "model",
    "ErrorReport": "model",
    "ExponentialSum": "model",
    "FullGrid": "model",
    "SparseLines": "model",
    "parse_coverage": "model",
    "relative_errors": "model",
    "signal_from_json": "model",
    "signal_to_json": "model",
    "source_from_json": "model",
    "source_to_json": "model",
    "AaaTrace": "rational",
    "BarycentricForm": "rational",
    "PoleResidue": "rational",
    "aaa_fit": "rational",
    "loewner_pencil_poles": "rational",
    "poles_of": "rational",
    "recover_univariate": "rational",
    "residues_ls": "rational",
    "PoleTree": "recursive",
    "TreeNode": "recursive",
    "build_pole_tree": "recursive",
    "leaves_to_sum": "recursive",
    "peel_dimension": "recursive",
    "recover_recursive": "recursive",
    "AxisRecovery": "sparse",
    "PairingCertificate": "sparse",
    "match_pairs": "sparse",
    "pairing_system": "sparse",
    "recover_axis": "sparse",
    "recover_sparse": "sparse",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
    return module if name == _EXPORTS[name] else getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
