"""Numerical laboratory for matrix-weighted dyadic Haar analysis.

Builds matrix Muckenhoupt weights, reducing operators, Haar systems,
paraproducts, Haar multipliers and shifts, commutators, Carleson embedding
criteria, weighted BMO norms, stopping trees, maximal functions and sparse
operators on truncated dyadic grids, with exact or certified checks of the
relations between them.
"""

from .carleson import (
    CarlesonReport,
    StoppingTree,
    bmo_norm,
    carleson_b_sup,
    carleson_c_constant,
    mean_oscillation,
    ntv_scalar_equivalence,
    stopping_time_tree,
)
from .dyadic import (
    Cube,
    Grid,
    HaarExpansion,
    StepFunction,
    find_covering_cube,
    haar_transform,
    inverse_haar,
    sequence_maximal,
    signature_product,
    signatures,
)
from .maximal import (
    SparseFamily,
    local_nq,
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
    square_function,
    weighted_operator_norm,
)
from .weights import (
    ApReport,
    MatrixWeight,
    ap_characteristic,
    cell_average,
    dual_weight,
    lp_norm,
    reducing_pyramid,
    truncate_weight,
)

__all__ = [
    "ApReport", "CarlesonReport", "Cube", "Grid", "HaarExpansion",
    "MatrixSequence", "MatrixSymbol", "MatrixWeight", "NormReport", "Operator",
    "ShiftMap", "SparseFamily", "StepFunction", "StoppingTree",
    "ap_characteristic", "bmo_norm", "carleson_b_sup", "carleson_c_constant",
    "cell_average", "dense_matrix", "dual_weight", "find_covering_cube",
    "haar_transform", "inverse_haar", "local_nq", "lp_norm", "maximal_mw",
    "maximal_mw_prime", "mean_oscillation", "ntv_scalar_equivalence",
    "reducing_pyramid", "sequence_maximal", "signature_product", "signatures",
    "sparse_generate", "square_function", "stopping_time_tree",
    "truncate_weight", "weak_type_check", "weighted_operator_norm",
]
