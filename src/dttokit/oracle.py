"""Closed-form expected values and essential-range bounds.

Every computation the theorems pin down exactly lives here, so numeric
results elsewhere can be tagged with an oracle value: the minimum moduli
of the compressed shift and its dual in terms of |u(0)|, rank-one
spectra, normal-symbol bounds through the essential range, and the
divisibility of a symbol by u.  Analytic symbols also get their
compressions as functions of the compressed shift (Sarason's functional
calculus), so the corner route, the powers of z and the truncated
Toeplitz norm ||A_phi|| = sigma_max(A_phi) are read off u's realization,
not windows; u's Taylor coefficients give the Sarason dual that
cross-checks the powers of z.
"""

import math
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
    _fold_wrappers,
)
from .operators import OperatorMatrix, compressed_shift


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
# divisibility by u


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


def _oracle_for(u: Optional[BlaschkeProduct], phi: SymbolExpr) -> Optional[float]:
    """The closed-form value of m(D_phi) when one applies, else None."""
    c = constant_value(phi)
    if c is not None:
        return abs(c)
    quot = None if u is None or u.degree < 1 else as_blaschke_quotient(phi)
    if quot is None:
        return None
    if abs(quot.z_power) == 1 and not quot.zeros:
        # m(D_zbar) = m(A_z) as well, since zbar is unimodular
        return oracle_m_dual_shift(u)
    if quot.z_power < 0:
        return None
    return 0.0 if _divides(u, quot) else None


# ---------------------------------------------------------------------------
# functional calculus of the compressed shift


def _fro(x) -> float:
    """Frobenius norm, an upper bound on the 2-norm."""
    return math.sqrt(np.vdot(x, x).real)


def _times(x, ex, y, ey, gamma):
    """x @ y and a bound on ||x @ y - X Y||_2 for exact X, Y with
    ||X - x||_2 <= ex, ||Y - y||_2 <= ey and ||Y||_2 <= 1."""
    fx, fy = _fro(x), _fro(y)
    return x @ y, ex + fx * ey + gamma * fx * fy


def _power(a, ea, p: int, gamma):
    """a^p for p >= 1 by repeated squaring, with its error bound; every
    exact power of the contraction A_z has norm at most 1."""
    x = ex = None
    while True:
        if p & 1:
            x, ex = (a, ea) if x is None else _times(x, ex, a, ea, gamma)
        p >>= 1
        if not p:
            return x, ex
        a, ea = _times(a, ea, a, ea, gamma)


def _horner(coeffs, a, ea, gamma, eps):
    """Horner's rule for sum_j coeffs[j] a^j through the partial sums
    Q_j = sum_{k>=j} coeffs[k] a^(k-j), down to Q_0, and
    S = sum_j conj(coeffs[j]) Q_j, each with its error bound."""
    d = len(a)
    fa = _fro(a)
    x = np.zeros((d, d), dtype=np.complex128)
    x.flat[:: d + 1] = coeffs[-1]
    s = np.conj(coeffs[-1]) * x
    ex, fx = 0.0, abs(coeffs[-1]) * math.sqrt(d)
    fs = abs(coeffs[-1]) * fx  # bounds ||s||_F
    es = eps * fs
    for c in coeffs[-2::-1]:
        x = x @ a
        ex += fx * ea + gamma * fx * fa
        x.flat[:: d + 1] += c
        fx = _fro(x)
        ex += eps * fx
        s += np.conj(c) * x
        fs += abs(c) * fx
        es += abs(c) * ex + 2.0 * eps * fs
    return x, ex, s, es


def analytic_compressions(u: BlaschkeProduct, phi: SymbolExpr):
    """(A_phi, A_{|phi|^2}) on K_u for analytic phi, with no window.

    A_phi = phi(A_z) for the compressed shift A_z read off u's zeros
    (:func:`compressed_shift`), by Sarason's functional calculus
    (Oper. Matrices 1, 2007), so every matrix is d x d, d = deg u:

    * a constant c (a constant piecewise symbol too): c I and |c|^2 I;
    * a Laurent polynomial sum_j c_j z^(p+j), p >= 0: Horner's rule in
      A_z times A_z^p.  |phi|^2 = sum_m r_m z^m with
      r_m = sum_j c_{j+m} conj(c_j), so A_{|phi|^2} = r_0 I + H + H*,
      H = sum_{m>=1} r_m A_z^m = S - r_0 I, where S = sum_j conj(c_j) Q_j
      over Horner's partial sums Q_j = sum_{k>=j} c_k A_z^(k-j): one
      pass of n steps gives both, A_{|phi|^2} = S + S* - r_0 I;
    * c + q, q = kappa z^p prod_v b_v with zeros: A_q = kappa A_z^p
      prod_v b_v(A_z), each factor b_v(A_z) = (I - conj(v) A_z)^{-1}
      (A_z - v I) by its own solve (A_z itself is singular when
      u(0) = 0) and multiplied in on the left, A_phi = A_q + c I and
      A_{|phi|^2} = (1 + |c|^2) I + conj(c) A_q + c A_q*.

    Each matrix's entry_error bounds the 2-norm of its roundoff, so every
    entry too; there is no truncation.  With eps the double epsilon,
    gamma = (d + 2) eps and ||.||_F the Frobenius norm of a computed
    matrix, the bound starts from ||fl(A_z) - A_z||_2 <= d (eps/2 + eta),
    compressed_shift's entry error, and is carried through

    * each product of x and y, approximating X and Y within e_x and e_y:
      e_x ||Y||_2 + ||x||_F e_y + gamma ||x||_F ||y||_F, with
      ||Y||_2 <= 1 for the powers of A_z and every inner function of it;
    * each solve y of m y = n, m = fl(I - conj(v) A_z) within e_m of M
      and n = fl(A_z - v I) within e_n of N: e_y = (e_m ||y||_F
      + ||fl(m y - n)||_F + gamma (||m||_F ||y||_F + ||n||_F) + e_n)
      / (1 - |v|), since ||M^{-1}||_2 <= 1/(1 - |v|);
    * each new factor y times the product x so far:
      e_y + (1 + e_y) e_x + gamma ||y||_F ||x||_F, since both exact
      factors are contractions, so the bounds add instead of compounding
      by 1/(1 - |v|) per factor;
    * each sum or scaling: eps ||result||_F per operation; the step of S
      that adds conj(c_j) Q_j rounds by at most 2 eps F_j,
      F_j = sum_{k>=j} |c_k| ||Q_k||_F, and r_0 by (n + 2) eps r_0.
    """
    if not is_analytic(phi):
        raise SymbolClassError("the functional calculus needs an analytic symbol")
    az = compressed_shift(u)
    a, d = az.entries, u.degree
    eps = np.finfo(float).eps
    gamma = (d + 2) * eps
    ea = d * az.entry_error
    eye = np.eye(d, dtype=np.complex128)
    core, c, _ = _fold_wrappers(phi)
    v = constant_value(core)
    if v is not None:
        return OperatorMatrix(v * eye), OperatorMatrix(abs(v) ** 2 * eye, eps * abs(v) ** 2)
    if isinstance(core, LaurentPoly):
        aphi, ephi, sq, esq = _horner(core.coeffs, a, ea, gamma, eps)
        if core.offset:
            ap, eap = _power(a, ea, core.offset, gamma)
            aphi, ephi = _times(aphi, ephi, ap, eap, gamma)
        norm_sq = float(np.vdot(core.coeffs, core.coeffs).real)
        a2 = sq + sq.conj().T - norm_sq * eye
        e2 = 2.0 * (esq + eps * (_fro(a2) + (len(core.coeffs) + 2) * norm_sq))
        return OperatorMatrix(aphi, ephi), OperatorMatrix(a2, e2)
    x, ex = _power(a, ea, core.z_power, gamma) if core.z_power else (None, 0.0)
    for lam in core.zeros:
        num = a - lam * eye
        en = ea + eps * _fro(num)
        m = eye - np.conj(lam) * a
        em = abs(lam) * ea + 2.0 * eps * _fro(m)
        y = np.linalg.solve(m, num)
        fy, fm = _fro(y), _fro(m)
        resid = _fro(m @ y - num) + gamma * (fm * fy + _fro(num))
        ey = (em * fy + resid + en) / (1.0 - abs(lam))
        if x is None:
            x, ex = y, ey
        else:
            x, ex = y @ x, ey + (1.0 + ey) * ex + gamma * fy * _fro(x)
    aq = core.constant * x
    eq = ex + 2.0 * eps * _fro(aq)
    aphi = aq + c * eye
    a2 = (1.0 + abs(c) ** 2) * eye + np.conj(c) * aq + c * aq.conj().T
    return (
        OperatorMatrix(aphi, eq + eps * _fro(aphi)),
        OperatorMatrix(a2, 2.0 * abs(c) * eq + 4.0 * eps * _fro(a2)),
    )


def taylor_toeplitz(u: BlaschkeProduct, p: int) -> OperatorMatrix:
    """u(S) for the compressed shift S of K_{z^p}: the p x p lower
    triangular Toeplitz matrix of u's Taylor coefficients u_hat(0..p-1).

    By Sarason duality sigma_min(u(S)) = sigma_min(A_z^p) on K_u, so this
    is the cross-check of m(D_{z^p}); for p = 1 it is [[u(0)]].  The
    coefficients come from the factors' series b_hat(0) = -lam,
    b_hat(n) = conj(lam)^(n-1) (1 - |lam|^2), by truncated convolution, so
    no realization is read.  entry_error bounds the 2-norm of the
    roundoff.  Each exact truncated series X of a partial product is
    inner, so ||X||_2 <= 1 and its Toeplitz matrix T(X) is a contraction;
    with eps the double epsilon and gamma = (p + 2) eps, a factor's series
    y is within e_y = (2 p + 4 + 1/(1 - |lam|)) eps of its exact Y in l2,
    and each convolution of x, within e_x, with y adds
    (1 + sqrt(p) e_y) e_x + e_y + gamma ||x||_2 ||y||_1, since
    ||T(y)||_2 <= 1 + ||y - Y||_1 and Young's inequality bounds the
    rounding.  The matrix is then within sqrt(p) e_x, as
    ||T(v)||_2 <= ||v||_1.
    """
    if u.degree < 1:
        raise SymbolClassError("inner function must be nonconstant")
    eps = np.finfo(float).eps
    gamma = (p + 2) * eps
    x = np.zeros(p, dtype=np.complex128)
    x[0] = u.unimodular_constant
    ex = 0.0
    for lam in u.zeros:
        r = abs(lam)
        steps = np.full(p, np.conj(lam), dtype=np.complex128)
        steps[0] = (1.0 - r) * (1.0 + r)
        y = np.concatenate(([-lam], np.cumprod(steps[:-1])))
        ey = (2 * p + 4 + 1.0 / (1.0 - r)) * eps
        l1y = float(np.abs(y).sum())
        ex = (1.0 + math.sqrt(p) * ey) * ex + ey + gamma * _fro(x) * l1y
        x = np.convolve(x, y)[:p]
    i, j = np.arange(p)[:, None], np.arange(p)
    t = np.where(i >= j, x[i - j], 0.0)
    return OperatorMatrix(t, math.sqrt(p) * ex)
