"""Minimum moduli of truncated and dual truncated Toeplitz operators.

A numpy-based library for operators attached to finite-dimensional model
spaces of the Hardy space: certified Laurent-window arithmetic,
Takenaka-Malmquist bases, dense operator compressions, theorem-backed
minimum-modulus formulas, and Galerkin consistency sweeps.
"""

from .fourier import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    FourierWindow,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    SymbolClassError,
    SymbolExpr,
    blaschke_factor_coeffs,
    blaschke_from_json,
    blaschke_to_json,
    conjugated,
    constant_symbol,
    constant_value,
    eval_symbol,
    inner_symbol,
    is_analytic,
    is_unimodular,
    shift_symbol,
    symbol_from_json,
    symbol_to_json,
    symbol_to_window,
    window_add,
    window_conjugate,
    window_inner_product,
    window_multiply,
)
from .modelspace import (
    ModelBasis,
    reproducing_kernel,
    tm_basis,
)
from .operators import (
    OperatorMatrix,
    compressed_shift,
    conjugation_action,
    corner_gram,
    dual_toeplitz_matrix,
    dual_truncated_toeplitz,
    hankel_matrix,
    toeplitz_matrix,
    truncated_toeplitz,
)
from .minmod import (
    MinModReport,
    galerkin_sweep,
    min_modulus_bounds,
    min_modulus_corner,
    min_modulus_toeplitz_hankel,
    min_modulus_unimodular,
    reduced_min_modulus,
    sigma_min,
)
from .oracle import (
    ess_range,
    normal_dtto_bounds,
    oracle_m_compressed_shift,
    oracle_m_dual_shift,
    oracle_rank_one_spectrum,
    truncated_toeplitz_norm_hankel,
)

__version__ = "0.1.0"
