"""Numerical laboratory for matrix-weighted dyadic Haar analysis.

Builds matrix Muckenhoupt weights, reducing operators, Haar systems,
paraproducts, Haar multipliers and shifts, commutators, Carleson embedding
criteria, weighted BMO norms, stopping trees, maximal functions and sparse
operators on truncated dyadic grids, with exact or certified checks of the
relations between them.  The names below are what the command line, the
benchmark and the acceptance criteria call.
"""

from .carleson import (
    CarlesonReport,
    StoppingTree,
    bmo_norm,
    carleson_b_sup,
    carleson_c_constant,
    stopping_time_tree,
)
from .dyadic import (
    Cube,
    Grid,
    StepFunction,
    find_covering_cube,
    sequence_maximal,
    signature_product,
    signatures,
)
from .maximal import (
    SparseFamily,
    maximal_mw,
    maximal_mw_prime,
    sparse_generate,
    weak_type_check,
)
from .operators import (
    MatrixSequence,
    MatrixSymbol,
    NormReport,
    Operator,
    ShiftMap,
    dense_matrix,
    weighted_operator_norm,
)
from .weights import (
    ApReport,
    MatrixWeight,
    ap_characteristic,
    lp_norm,
    reducing_pyramid,
)

__all__ = [
    "ApReport", "CarlesonReport", "Cube", "Grid", "MatrixSequence", "MatrixSymbol",
    "MatrixWeight", "NormReport", "Operator", "ShiftMap", "SparseFamily",
    "StepFunction", "StoppingTree", "ap_characteristic", "bmo_norm", "carleson_b_sup",
    "carleson_c_constant", "dense_matrix", "find_covering_cube", "lp_norm", "maximal_mw",
    "maximal_mw_prime", "reducing_pyramid", "sequence_maximal", "signature_product",
    "signatures", "sparse_generate", "stopping_time_tree", "weak_type_check",
    "weighted_operator_norm",
]
