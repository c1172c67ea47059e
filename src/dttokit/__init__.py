"""Minimum moduli of truncated and dual truncated Toeplitz operators.

A numpy-based library for operators attached to finite-dimensional model
spaces of the Hardy space: certified Laurent-window arithmetic,
Takenaka-Malmquist bases, dense operator compressions, theorem-backed
minimum-modulus formulas, and Galerkin consistency sweeps.

The package binds only the entry points: the symbol and report types,
the symbol constructors, JSON I/O, the minimum-modulus routes, the
oracles and ``__version__``.  Window arithmetic, the builders,
``OperatorMatrix`` and the class predicates come from their modules.
"""

from .fourier import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    SymbolClassError,
    SymbolExpr,
    blaschke_from_json,
    blaschke_to_json,
    conjugated,
    constant_symbol,
    inner_symbol,
    shift_symbol,
    symbol_from_json,
    symbol_to_json,
)
from .modelspace import tm_basis
from .operators import compressed_shift
from .minmod import (
    MinModReport,
    galerkin_sweep,
    min_modulus_bounds,
    min_modulus_corner,
    min_modulus_toeplitz_hankel,
    min_modulus_unimodular,
    sigma_min,
)
from .oracle import (
    ess_range,
    normal_dtto_bounds,
    oracle_m_compressed_shift,
    oracle_m_dual_shift,
    oracle_rank_one_spectrum,
)

__version__ = "0.1.0"
