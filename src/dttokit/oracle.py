"""Closed-form expected values and essential-range bounds.

Every computation the theorems pin down exactly lives here, so numeric
results elsewhere can be tagged with an oracle value: the minimum moduli
of the compressed shift and its dual in terms of |u(0)|, rank-one
spectra, normal-symbol bounds through the essential range, and the
Hankel (Nehari) route to truncated Toeplitz norms.
"""

from typing import NamedTuple, Optional

import numpy as np

from .fourier import (
    BlaschkeProduct,
    BlaschkeQuotient,
    LaurentPoly,
    PiecewiseArcs,
    SymbolClassError,
    SymbolExpr,
    as_blaschke_quotient,
    constant_value,
    eval_symbol,
    is_analytic,
    window_conjugate,
    window_multiply,
    symbol_to_window,
    _fold_wrappers,
)
from .operators import _hankel_view


# ---------------------------------------------------------------------------
# rank-one perturbations and shift formulas


def oracle_rank_one_spectrum(alpha: complex, beta: complex, x_norm_sq: float) -> set:
    """Spectrum of alpha I + beta x (x)* : {alpha, alpha + beta |x|^2}."""
    if x_norm_sq <= 0:
        raise ValueError("the perturbing vector must be nonzero")
    alpha = complex(alpha)
    beta = complex(beta)
    if beta == 0:
        return {alpha}
    return {alpha, alpha + beta * x_norm_sq}


def oracle_m_compressed_shift(u: BlaschkeProduct) -> float:
    """m(A_z) = |u(0)| = m(A_z*) on the model space of u."""
    if u.degree < 1:
        raise ValueError("inner function must be nonconstant")
    mods = [abs(z) for z in u.zeros]
    return float(abs(u.unimodular_constant) * np.prod(mods))


def oracle_m_dual_shift(u: BlaschkeProduct) -> float:
    """Dichotomy for the dual shift: 0 if u(0) = 0, else |u(0)|; in both
    cases |u(0)| = m(A_z)."""
    return oracle_m_compressed_shift(u)


# ---------------------------------------------------------------------------
# essential range


class EssRangeModel(NamedTuple):
    """Computable model of an essential range on one horizontal line.

    kind = finite_set: distinct points;
    kind = segment: two endpoints (a line segment in C).
    """

    kind: str
    points: np.ndarray


def _hermitian_part_split(phi: LaurentPoly):
    """If phi = (real-valued trig polynomial) + i beta, return (coeffs, beta)."""
    n0 = phi.offset
    coeffs = {n0 + j: phi.coeffs[j] for j in range(len(phi.coeffs)) if phi.coeffs[j] != 0}
    for n, c in coeffs.items():
        if n == 0:
            continue
        if abs(np.conj(coeffs.get(-n, 0.0)) - c) > 1e-12:
            return None
    return coeffs, coeffs.get(0, 0.0 + 0.0j).imag


def _normal_split(phi: SymbolExpr):
    """(core, beta) when the folded core is real-valued + i beta, else None."""
    core = _fold_wrappers(phi)[0]
    v = constant_value(core)
    if v is not None:
        return core, v.imag
    if isinstance(core, PiecewiseArcs):
        imags = [v.imag for _, _, v in core.arcs]
        return (core, imags[0]) if max(imags) - min(imags) <= 1e-12 else None
    if isinstance(core, LaurentPoly):
        split = _hermitian_part_split(core)
        return None if split is None else (core, split[1])
    return None


def is_normal_sufficient_form(phi: SymbolExpr) -> bool:
    """Sufficient condition for a normal operator: phi = real-valued + constant,
    under any nesting of conjugations and added constants."""
    return _normal_split(phi) is not None


def ess_range(phi: SymbolExpr) -> EssRangeModel:
    """Model the essential range of a symbol of the recognized normal form.

    The folded core is real-valued plus i beta, so the range lies on the
    line Im = beta.  Piecewise-constant and constant symbols give a finite
    set; real trig polynomials give a segment whose endpoints are the
    extrema at the critical points.  Anything else raises SymbolClassError.
    """
    split = _normal_split(phi)
    if split is None:
        raise SymbolClassError(
            "symbol is not of the recognized normal form (real-valued + constant)"
        )
    core, beta = split
    height = 1j * beta
    v = constant_value(core)
    if v is not None:
        return EssRangeModel("finite_set", np.array([v.real + height]))
    if isinstance(core, PiecewiseArcs):
        pts = []
        for _, _, v in core.arcs:
            if not any(abs(p - v.real) <= 1e-12 for p in pts):
                pts.append(v.real)
        return EssRangeModel("finite_set", np.array(pts) + height)
    # the extrema lie at critical points e^{it}: roots of the degree-2N
    # polynomial sum_n n c_n z^{n+N}; a root off the circle still names
    # a point of the circle, so extra roots cannot spoil min or max
    coeffs = _hermitian_part_split(core)[0]
    big = max(abs(n) for n in coeffs)
    dp = np.zeros(2 * big + 1, dtype=np.complex128)
    for n, cn in coeffs.items():
        dp[big - n] = n * cn
    # a term below roundoff of the largest moves no extremum by more than
    # roundoff, and dividing by it could overflow the companion matrix
    dp /= np.abs(dp).max()
    dp[np.abs(dp) < 1e-16] = 0.0
    thetas = np.angle(np.roots(dp))
    re = np.array([eval_symbol(core, t).real for t in thetas])
    return EssRangeModel("segment", np.array([re.min(), re.max()]) + height)


def normal_dtto_bounds(phi: SymbolExpr):
    """Bounds on m(D_phi) for a normal dual truncated Toeplitz operator.

    Returns (lower, upper): lower is the distance from 0 to the convex
    hull of the essential range, which is the segment
    [min Re, max Re] + i Im of the range's line; upper is the essential
    infimum of |phi|.  The two meet whenever the modeled range is convex
    (a segment or a single point), and then m(D_phi) = upper.

    Only the sufficient normality form "real-valued symbol plus a complex
    constant" is recognized, under any nesting of conjugations and added
    constants; anything else raises SymbolClassError.
    """
    model = ess_range(phi)
    re, height = model.points.real, model.points[0].imag
    lower = float(np.hypot(np.clip(0.0, re.min(), re.max()), height))
    upper = lower if model.kind == "segment" else float(np.hypot(re, height).min())
    return lower, upper


# ---------------------------------------------------------------------------
# Nehari route for truncated Toeplitz norms


def _divides(u: BlaschkeProduct, phi: BlaschkeQuotient) -> bool:
    """Whether u divides phi as inner functions (zero multisets match);
    phi carries no negative power of z.  At most u.degree of phi's zeros
    at 0 can be matched, so no more are pooled."""
    pool = list(phi.zeros) + [0.0 + 0.0j] * min(phi.z_power, u.degree)
    for lam in u.zeros:
        hit = next((i for i, mu in enumerate(pool) if abs(mu - lam) <= 1e-12), None)
        if hit is None:
            return False
        pool.pop(hit)
    return True


def truncated_toeplitz_norm_hankel(
    u: BlaschkeProduct, phi: SymbolExpr, tol: float = 1e-12
) -> float:
    """|A_phi| for analytic phi, as sigma_max of the Hankel matrix of
    conj(u) phi (the L-infinity distance from conj(u) phi to H^infinity by
    the Nehari theorem).

    With W the top index of u's window, conj(u) phi has no coefficient
    below -W, so the Hankel of side W + 1 holds all of it and the value is
    exact up to u's window tail; a symbol that folds to a Blaschke quotient
    divisible by u gives exactly 0.  The SVD costs O(W^3), so only the
    catalog, the demos and the tests read this route.
    """
    if not is_analytic(phi):
        raise SymbolClassError("the Hankel norm route requires an analytic symbol")
    quot = as_blaschke_quotient(phi)
    if quot is not None and _divides(u, quot):
        return 0.0
    uw = u.window(tol)
    w = window_multiply(window_conjugate(uw), symbol_to_window(phi, -1, uw.hi, tol))
    side = uw.hi + 1
    h = _hankel_view(w, -(2 * side - 1), side, side)[::-1, ::-1]
    return float(np.linalg.svd(h, compute_uv=False)[0])


def _oracle_for(u: Optional[BlaschkeProduct], phi: SymbolExpr) -> Optional[float]:
    """The closed-form value of m(D_phi) when one applies, else None."""
    c = constant_value(phi)
    if c is not None:
        return abs(c)
    quot = None if u is None or u.degree < 1 else as_blaschke_quotient(phi)
    if quot is None or quot.z_power < 0:
        return None
    if quot.z_power == 1 and not quot.zeros:
        return oracle_m_dual_shift(u)
    return 0.0 if _divides(u, quot) else None
