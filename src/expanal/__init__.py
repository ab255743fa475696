"""Recovery of multivariate exponential sums from their Fourier coefficients.

The coefficients of such a signal are samples of a multivariate rational
function at integer indices.  Two recovery methods exploit that structure:
a line-sampled method that fits each coordinate axis separately and pairs the
per-axis poles through shifted diagonal lines, and a full-grid method that
peels one dimension at a time and collects the poles in a tree.
"""

from . import errors
from .estimators import RecursiveRecovery, SparseGridRecovery
from .linalg import gen_eig, lstsq, svd
from .model import (
    CoefficientSource,
    ErrorReport,
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
from .rational import (
    AaaTrace,
    BarycentricForm,
    PoleResidue,
    aaa_fit,
    evaluate_barycentric,
    loewner_pencil_poles,
    poles_of,
    recover_univariate,
    residues_ls,
)
from .recursive import (
    PoleTree,
    SliceValues,
    TreeNode,
    build_pole_tree,
    distinct_poles,
    leaves_to_sum,
    peel_dimension,
    recover_recursive,
)
from .sparse import (
    AxisRecovery,
    PairingCertificate,
    match_pairs,
    pairing_system,
    recover_axis,
    recover_sparse,
)

__version__ = "0.1.0"

__all__ = [
    "AaaTrace",
    "AxisRecovery",
    "BarycentricForm",
    "CoefficientSource",
    "ErrorReport",
    "ExponentialSum",
    "FullGrid",
    "PairingCertificate",
    "PoleResidue",
    "PoleTree",
    "RecursiveRecovery",
    "SliceValues",
    "SparseGridRecovery",
    "SparseLines",
    "TreeNode",
    "aaa_fit",
    "build_pole_tree",
    "distinct_poles",
    "errors",
    "evaluate_barycentric",
    "gen_eig",
    "leaves_to_sum",
    "loewner_pencil_poles",
    "lstsq",
    "match_pairs",
    "pairing_system",
    "parse_coverage",
    "peel_dimension",
    "poles_of",
    "recover_axis",
    "recover_recursive",
    "recover_sparse",
    "recover_univariate",
    "relative_errors",
    "residues_ls",
    "signal_from_json",
    "signal_to_json",
    "source_from_json",
    "source_to_json",
    "svd",
]
