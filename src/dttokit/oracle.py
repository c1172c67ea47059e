"""Closed-form expected values and essential-range bounds.

Every computation the theorems pin down exactly lives here, so numeric
results elsewhere can be tagged with an oracle value: the minimum moduli
of the compressed shift and its dual in terms of |u(0)|, rank-one
spectra, normal-symbol bounds through the essential range, and the
Hankel (Nehari) route to truncated Toeplitz norms.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fourier import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    SymbolClassError,
    SymbolExpr,
    as_blaschke_quotient,
    constant_value,
    eval_symbol,
    is_analytic,
    window_conjugate,
    window_multiply,
    symbol_to_window,
    _divides,
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
    """Dichotomy for the dual shift: 0 if u(0) = 0, else |u(0)|."""
    if u.degree < 1:
        raise ValueError("inner function must be nonconstant")
    if any(z == 0 for z in u.zeros):
        return 0.0
    return oracle_m_compressed_shift(u)


# ---------------------------------------------------------------------------
# essential range


@dataclass(frozen=True)
class EssRangeModel:
    """Computable model of an essential range.

    kind = finite_set: distinct points with positive arc measures;
    kind = segment: two endpoints (a line segment in C);
    kind = sampled_curve: >= 64 samples of a continuous symbol.
    """

    kind: str
    points: np.ndarray
    measures: Optional[np.ndarray] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128)
        object.__setattr__(self, "points", pts)
        if self.kind not in ("finite_set", "segment", "sampled_curve"):
            raise ValueError(f"unknown essential-range kind: {self.kind!r}")
        if self.kind == "finite_set":
            if self.measures is None or len(self.measures) != len(pts):
                raise ValueError("finite_set needs one positive measure per point")
            if any(m <= 0 for m in self.measures):
                raise ValueError("measures must be positive")
        if self.kind == "segment" and len(pts) != 2:
            raise ValueError("segment needs exactly two endpoints")
        if self.kind == "sampled_curve" and len(pts) < 64:
            raise ValueError("sampled_curve needs at least 64 samples")

    def is_convex(self) -> bool:
        return self.kind == "segment" or (self.kind == "finite_set" and len(self.points) == 1)


def _fold_constants(phi: SymbolExpr):
    """Strip Sum-with-constant wrappers, returning (core, total constant)."""
    c = 0.0 + 0.0j
    while isinstance(phi, SumConst):
        c += complex(phi.constant)
        phi = phi.term
    return phi, c


def _hermitian_part_split(phi: LaurentPoly):
    """If phi = (real-valued trig polynomial) + constant, return (poly, beta)."""
    n0 = phi.offset
    coeffs = {n0 + j: phi.coeffs[j] for j in range(len(phi.coeffs)) if phi.coeffs[j] != 0}
    for n, c in coeffs.items():
        if n == 0:
            continue
        if abs(np.conj(coeffs.get(-n, 0.0)) - c) > 1e-12:
            return None
    beta = 1j * coeffs.get(0, 0.0 + 0.0j).imag
    return coeffs, beta


def is_normal_sufficient_form(phi: SymbolExpr) -> bool:
    """Sufficient condition for a normal operator: phi = real-valued + constant."""
    core, _ = _fold_constants(phi)
    if constant_value(core) is not None:
        return True
    if isinstance(core, PiecewiseArcs):
        imags = [v.imag for _, _, v in core.arcs]
        return max(imags) - min(imags) <= 1e-12
    if isinstance(core, LaurentPoly):
        return _hermitian_part_split(core) is not None
    if isinstance(core, Conjugate):
        return is_normal_sufficient_form(core.of)
    return False


def ess_range(phi: SymbolExpr, resolution: int = 512) -> EssRangeModel:
    """Model the essential range of phi.

    Piecewise-constant symbols give a finite set with arc measures;
    real-valued-plus-constant symbols give a segment whose endpoints are
    the extrema at the critical points; other continuous variants give a
    sampled curve.
    """
    core, c = _fold_constants(phi)
    if isinstance(core, PiecewiseArcs):
        pts = []
        meas = []
        for t0, t1, v in core.arcs:
            val = v + c
            hit = next((i for i, p in enumerate(pts) if abs(p - val) <= 1e-12), None)
            if hit is None:
                pts.append(val)
                meas.append(t1 - t0)
            else:
                meas[hit] += t1 - t0
        return EssRangeModel("finite_set", np.array(pts), np.array(meas))
    cv = constant_value(phi)
    if cv is not None:
        return EssRangeModel("finite_set", np.array([cv]), np.array([2.0 * np.pi]))
    if isinstance(core, LaurentPoly):
        split = _hermitian_part_split(core)
        if split is not None:
            # the extrema lie at critical points e^{it}: roots of the degree-2N
            # polynomial sum_n n c_n z^{n+N}; a root off the circle still names
            # a point of the circle, so extra roots cannot spoil min or max
            coeffs, _ = split
            big = max(abs(n) for n in coeffs)
            dp = np.zeros(2 * big + 1, dtype=np.complex128)
            for n, cn in coeffs.items():
                dp[big - n] = n * cn
            thetas = np.angle(np.roots(dp))
            vals = np.array([eval_symbol(core, t) for t in thetas]) + c
            re = vals.real
            im_const = 1j * vals.imag.mean()
            return EssRangeModel(
                "segment", np.array([re.min() + im_const, re.max() + im_const])
            )
    if resolution < 64:
        raise ValueError("sampled_curve resolution must be at least 64")
    thetas = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    vals = np.array([eval_symbol(phi, t) for t in thetas])
    return EssRangeModel("sampled_curve", vals)


# ---------------------------------------------------------------------------
# planar convex hull (monotone chain) and distance from the origin


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull_2d(points: Sequence) -> list:
    """Convex hull by monotone chain; collinear inputs collapse to a segment."""
    pts = sorted({(float(p[0]), float(p[1])) for p in points})
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear: keep the extremes
        return [pts[0], pts[-1]]
    return hull


def _segment_distance(p, q) -> float:
    px, py = p
    qx, qy = q
    dx, dy = qx - px, qy - py
    dd = dx * dx + dy * dy
    if dd == 0.0:
        return float(np.hypot(px, py))
    t = max(0.0, min(1.0, (-px * dx - py * dy) / dd))
    return float(np.hypot(px + t * dx, py + t * dy))


def hull_distance_from_origin(points: Sequence[complex]) -> float:
    """Distance from 0 to the convex hull of a finite planar point set."""
    pl = [(p.real, p.imag) for p in np.asarray(points, dtype=np.complex128)]
    hull = convex_hull_2d(pl)
    if len(hull) == 1:
        return float(np.hypot(*hull[0]))
    if len(hull) == 2:
        return _segment_distance(hull[0], hull[1])
    inside = all(
        _cross(hull[i], hull[(i + 1) % len(hull)], (0.0, 0.0)) >= 0 for i in range(len(hull))
    )
    if inside:
        return 0.0
    return min(
        _segment_distance(hull[i], hull[(i + 1) % len(hull)]) for i in range(len(hull))
    )


def normal_dtto_bounds(phi: SymbolExpr, resolution: int = 512, assume_normal: bool = False):
    """Bounds on m(D_phi) for a normal dual truncated Toeplitz operator.

    Returns (lower, upper, exact): lower is the distance from 0 to the
    convex hull of the essential range, upper the essential infimum of
    |phi|, and exact is set when the modeled range is convex (a segment
    or a single point), in which case m(D_phi) = upper.

    Only the sufficient normality form "real-valued symbol plus a complex
    constant" is recognized; pass assume_normal=True to assert normality
    for anything else.
    """
    if not assume_normal and not is_normal_sufficient_form(phi):
        raise SymbolClassError(
            "symbol is not of the recognized normal form (real-valued + constant); "
            "pass assume_normal=True to override"
        )
    model = ess_range(phi, resolution)
    if model.kind == "segment":
        p, q = model.points
        lower = _segment_distance((p.real, p.imag), (q.real, q.imag))
        upper = lower
    else:
        lower = hull_distance_from_origin(model.points)
        upper = float(np.min(np.abs(model.points)))
    exact = upper if model.is_convex() else None
    return lower, upper, exact


# ---------------------------------------------------------------------------
# Nehari route for truncated Toeplitz norms


def truncated_toeplitz_norm_hankel(
    u: BlaschkeProduct, phi: SymbolExpr, size: int = 64, tol: float = 1e-12
) -> float:
    """|A_phi| for analytic phi, as sigma_max of the Hankel matrix of
    conj(u) phi (the L-infinity distance from conj(u) phi to H^infinity by
    the Nehari theorem).

    The truncated value is a lower bound converging upward; it is exact
    (zero) when phi lies in u H-infinity, detected structurally for
    Blaschke-quotient symbols divisible by u.
    """
    if not is_analytic(phi):
        raise SymbolClassError("the Hankel norm route requires an analytic symbol")
    if isinstance(phi, BlaschkeQuotient) and _divides(u, phi):
        return 0.0
    uw = u.window(tol)
    phi_w = symbol_to_window(phi, -1, max(uw.hi, 2 * size), tol)
    w = window_multiply(window_conjugate(uw), phi_w)
    h = _hankel_view(w, -(2 * size - 1), size, size)[::-1, ::-1]
    return float(np.linalg.svd(h, compute_uv=False)[0])


def oracle_constant_symbol(phi: SymbolExpr) -> Optional[float]:
    """1 exactly when phi simplifies to a constant of modulus one, else None."""
    c = constant_value(phi)
    if c is not None and abs(abs(c) - 1.0) <= 1e-12:
        return 1.0
    return None


def _symbol_is_plain_shift(phi: SymbolExpr) -> bool:
    quot = as_blaschke_quotient(phi)
    return quot is not None and quot.z_power == 1 and not quot.zeros


def _oracle_for(u: Optional[BlaschkeProduct], phi: SymbolExpr) -> Optional[float]:
    """The closed-form value of m(D_phi) when one applies, else None."""
    v = oracle_constant_symbol(phi)
    if v is not None:
        return v
    c = constant_value(phi)
    if c is not None:
        return abs(c)
    if u is not None and _symbol_is_plain_shift(phi):
        return oracle_m_dual_shift(u)
    if u is not None:
        quot = as_blaschke_quotient(phi)
        if quot is not None and quot.z_power >= 0 and _divides(u, quot):
            return 0.0
    return None
