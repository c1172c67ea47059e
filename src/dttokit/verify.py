"""Verification catalog: every closed-form example the library must hit.

Each item compares a computed quantity against its expected value and a
tolerance.  The runner can shift every expected value by a perturbation;
a clean build passes at perturbation 0 and must fail at 1e-3, which
guards the suite against vacuous passes.
"""

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .fourier import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    constant_symbol,
    conjugated,
    delta_window,
    eval_symbol,
    inner_symbol,
    shift_symbol,
    symbol_to_window,
    window_add,
    window_inner_product,
    window_shift,
)
from .modelspace import reproducing_kernel, tm_basis
from .operators import (
    compressed_shift,
    corner_gram,
    dual_truncated_toeplitz,
    truncated_toeplitz,
)
from .minmod import (
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
    truncated_toeplitz_norm_hankel,
    _oracle_for,
)

Z = shift_symbol(1)
ZBAR = conjugated(Z)
STEP = PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2.0 * np.pi, -1.0)))


@dataclass(frozen=True)
class CatalogItem:
    name: str
    computed: float
    expected: float
    tol: float

    def evaluate(self, perturb: float = 0.0):
        target = self.expected + perturb
        disc = abs(self.computed - target)
        return disc <= self.tol, disc


def _closed_form_blaschke_minmod(alpha: float) -> float:
    # independent 2x2 Hermitian eigenvalue oracle for the quotient example
    a = alpha**2 * (1 - alpha**2)
    b = alpha**3 * (1 - alpha**2)
    d = alpha**4 * (1 - alpha**2) + alpha**2
    lam_max = 0.5 * ((a + d) + np.sqrt((a - d) ** 2 + 4 * b * b))
    return float(np.sqrt(1.0 - lam_max))


def build_catalog() -> List[CatalogItem]:
    items: List[CatalogItem] = []
    add = items.append

    u_z2 = BlaschkeProduct(1.0, (0.0, 0.0))
    u_half = BlaschkeProduct(1.0, (0.5,))
    u_deg2 = BlaschkeProduct(1.0, (0.3, 0.6))
    u_deg3 = BlaschkeProduct(1.0, (0.2, 0.4, 0.6))
    b_z2 = tm_basis(u_z2)
    b_half = tm_basis(u_half)
    b_deg2 = tm_basis(u_deg2)

    # -- coefficient layer ----------------------------------------------
    k0 = reproducing_kernel(b_half, 0.0)
    add(CatalogItem(
        "kernel-at-zero-norm",
        float(window_inner_product(k0, k0).real),
        1.0 - abs(u_half.at_zero()) ** 2,
        1e-10,
    ))

    add(CatalogItem(
        "piecewise-plus-constant-eval",
        abs(eval_symbol(SumConst(STEP, 3j), 1.0) - (1 + 3j)),
        0.0,
        1e-12,
    ))
    add(CatalogItem(
        "continuous-symbol-eval",
        abs(eval_symbol(LaurentPoly(-1, [1.0, 2j, 1.0]), np.pi / 2) - 2j),
        0.0,
        1e-12,
    ))

    alpha = 0.5
    quot = BlaschkeQuotient(1.0, -1, (alpha,))
    cw = symbol_to_window(Conjugate(quot), -8, 8, 1e-13)
    dev = abs(cw.coeff_at(1) + alpha) + abs(cw.coeff_at(0) - (1 - alpha**2))
    for k in range(1, 8):
        dev = max(dev, abs(cw.coeff_at(-k) - (1 - alpha**2) * alpha**k))
    add(CatalogItem("quotient-conjugate-expansion", float(dev), 0.0, 1e-12))

    # -- model space ------------------------------------------------------
    mono_dev = max(
        abs(window_inner_product(e, delta_window(k)) - 1.0)
        for k, e in enumerate(b_z2.basis)
    )
    add(CatalogItem("monomial-model-basis", float(mono_dev), 0.0, 1e-14))

    # -- operator matrices ------------------------------------------------
    # T_phi, H_{u phi} and S_phi are slices of the Galerkin block of D_phi
    # at truncation n: entries[:n, :n], entries[n:, :n] (the co-analytic
    # rows when phi reaches no analytic overflow row) and entries[n:2n, n:]
    u_z = BlaschkeProduct(1.0, (0.0,))
    (d,) = dual_truncated_toeplitz(u_z, LaurentPoly(-3, [1.0]), [2])
    add(CatalogItem(
        "deep-coanalytic-toeplitz-vanishes",
        float(np.abs(d.entries[:2, :2]).max()),
        0.0,
        1e-14,
    ))

    # u = z turns phi into the Hankel symbol u phi: z zbar^2 = zbar
    (d,) = dual_truncated_toeplitz(u_z, LaurentPoly(-2, [1.0]), [2])
    h = d.entries[2:, :2]
    add(CatalogItem(
        "hankel-shift-column",
        float(abs(h[0, 0] - 1.0) + np.abs(h[1:, 0]).sum() + np.abs(h[:, 1]).sum()),
        0.0,
        1e-14,
    ))

    (d,) = dual_truncated_toeplitz(u_z, Conjugate(BlaschkeQuotient(1.0, 0, (alpha,))), [2], 1e-13)
    s0_norm_sq = float(np.sum(np.abs(d.entries[2:, 0]) ** 2))
    add(CatalogItem(
        "hankel-quotient-column-norm",
        s0_norm_sq,
        alpha**2 * (1 - alpha**2),
        1e-10,
    ))

    # the truncated dual shift sends zbar to 0 and no other basis vector:
    # its reduced minimum modulus is the second-smallest singular value
    n = 40
    (d,) = dual_truncated_toeplitz(u_half, Z, [n])
    sv = np.linalg.svd(d.entries[n : 2 * n, n:], compute_uv=False)
    add(CatalogItem("dual-shift-kernel-sigma", float(sv[-1]), 0.0, 1e-12))
    add(CatalogItem("dual-shift-reduced-minmod", float(sv[-2]), 1.0, 1e-12))

    a1 = truncated_toeplitz(b_half, Z)
    add(CatalogItem("compressed-shift-1x1-norm", float(abs(a1.entries[0, 0])), 0.5, 1e-10))

    add(CatalogItem(
        "tto-vanishes-on-own-symbol",
        float(np.abs(truncated_toeplitz(b_deg2, inner_symbol(u_deg2)).entries).max()),
        0.0,
        1e-10,
    ))

    s_z2 = compressed_shift(u_z2)
    defect = np.eye(2) - s_z2.adjoint().entries @ s_z2.entries
    uw = u_z2.window(1e-13)
    s_star_u = window_shift(window_add(uw, delta_window(0, -u_z2.at_zero())), -1)
    x = window_inner_product(s_star_u, b_z2.elements)
    add(CatalogItem(
        "compressed-shift-defect-rank-one",
        float(np.abs(defect - np.outer(x, np.conj(x))).max()),
        0.0,
        1e-12,
    ))

    a2 = compressed_shift(u_deg2)
    eig = np.sort(np.linalg.eigvalsh(a2.adjoint().entries @ a2.entries))
    expected = sorted(
        v.real for v in oracle_rank_one_spectrum(1.0, -1.0, 1.0 - abs(u_deg2.at_zero()) ** 2)
    )
    add(CatalogItem(
        "defect-spectrum-degree-two",
        float(np.abs(eig - np.array(expected)).max()),
        0.0,
        1e-9,
    ))

    add(CatalogItem(
        "corner-gram-constant-symbol",
        float(np.abs(corner_gram(b_deg2, constant_symbol(1j)).entries).max()),
        0.0,
        1e-12,
    ))

    phi_in = BlaschkeQuotient(1.0, 1, (0.4,))
    g = corner_gram(b_deg2, phi_in)
    a_phi = truncated_toeplitz(b_deg2, phi_in)
    add(CatalogItem(
        "corner-gram-defect-identity",
        float(np.abs(g.entries + a_phi.adjoint().entries @ a_phi.entries - np.eye(2)).max()),
        0.0,
        1e-9,
    ))

    g_shift = corner_gram(b_z2, ZBAR)
    add(CatalogItem(
        "corner-gram-shift-eigenvalue",
        float(np.linalg.eigvalsh(g_shift.entries)[-1]),
        1.0,
        1e-12,
    ))

    n = 24
    (d_half,) = dual_truncated_toeplitz(u_half, Z, [n])
    ur = d_half.entries[:n, n:]
    expect_ur = np.zeros((n, n), dtype=complex)
    expect_ur[0, 0] = np.conj(u_half.at_zero())
    add(CatalogItem("dtto-offdiag-rank-one", float(np.abs(ur - expect_ur).max()), 0.0, 1e-10))
    (d_z2,) = dual_truncated_toeplitz(u_z2, Z, [n])
    add(CatalogItem("dtto-offdiag-vanishes", float(np.abs(d_z2.entries[:n, n:]).max()), 0.0, 1e-14))

    # the square compression leads the block: n output rows of each kind.
    # The conjugation f -> u conj(z f) swaps u z^k and zbar^(k+1), so
    # C D C = D* reads M conj(S) M = S* with M the swap of the two halves
    square = d_half.entries[: 2 * n]
    swapped = np.roll(np.conj(square), (n, n), axis=(0, 1))
    add(CatalogItem(
        "dtto-conjugation-symmetry",
        float(np.abs(swapped - square.conj().T).max()),
        0.0,
        1e-10,
    ))

    # -- minimum moduli -----------------------------------------------------
    add(CatalogItem("unimodular-shift-z2", min_modulus_unimodular(u_z2, Z).value, 0.0, 1e-12))
    add(CatalogItem("gram-route-shift-z2", min_modulus_toeplitz_hankel(u_z2, Z).value, 0.0, 1e-12))
    add(CatalogItem(
        "unimodular-own-symbol",
        min_modulus_unimodular(u_deg2, inner_symbol(u_deg2)).value,
        0.0,
        1e-10,
    ))
    add(CatalogItem(
        "unimodular-constant",
        min_modulus_unimodular(u_deg2, constant_symbol(1j)).value,
        1.0,
        1e-12,
    ))
    add(CatalogItem(
        "gram-route-quotient-closed-form",
        min_modulus_toeplitz_hankel(u_z2, quot).value,
        _closed_form_blaschke_minmod(alpha),
        1e-9,
    ))

    psi = BlaschkeQuotient(1.0, 0, (0.4,))
    lo, up = min_modulus_bounds(u_deg2, Conjugate(psi))
    exact = min_modulus_unimodular(u_deg2, Conjugate(psi)).value
    add(CatalogItem("coanalytic-bounds-collapse", float(up - lo), 0.0, 1e-9))
    add(CatalogItem("coanalytic-exact-equality", float(abs(exact - lo)), 0.0, 1e-9))

    add(CatalogItem(
        "corner-minmod-multidim-shift",
        min_modulus_corner(BlaschkeProduct(1.0, (0.0, 0.0, 0.0)), Z).value,
        0.0,
        1e-12,
    ))
    rb = min_modulus_corner(BlaschkeProduct(1.0, (0.2,)), Z)
    add(CatalogItem(
        "corner-minmod-dim-one",
        rb.value,
        float(np.sqrt(1.0 - 0.2**2)),
        1e-10,
    ))
    ra = min_modulus_unimodular(BlaschkeProduct(1.0, (0.2,)), Z).value
    add(CatalogItem("corner-shift-pythagoras", rb.value**2 + ra**2, 1.0, 1e-10))

    sweep2 = galerkin_sweep(u_deg2, Z, [16, 64])
    add(CatalogItem("sweep-dual-shift-nonzero", sweep2[-1].value, oracle_m_dual_shift(u_deg2), 1e-12))
    sweep0 = galerkin_sweep(u_z2, Z, [16, 64])
    add(CatalogItem("sweep-dual-shift-zero", sweep0[-1].value, oracle_m_dual_shift(u_z2), 1e-12))
    sweep1 = galerkin_sweep(u_half, Z, [16, 64])
    add(CatalogItem("sweep-dual-shift-dim-one", sweep1[-1].value, oracle_m_dual_shift(u_half), 1e-12))

    a3 = compressed_shift(u_deg3)
    target = oracle_m_compressed_shift(u_deg3)
    add(CatalogItem("adjoint-minmod-compressed-shift", sigma_min(a3), target, 1e-9))
    add(CatalogItem("adjoint-minmod-compressed-shift-star", sigma_min(a3.adjoint()), target, 1e-9))
    # zeros this close to the circle are refused by every window route
    u_near = BlaschkeProduct(1.0, (0.999999, 0.3))
    a_near = compressed_shift(u_near)
    target = oracle_m_compressed_shift(u_near)
    add(CatalogItem("compressed-shift-near-circle", sigma_min(a_near), target, 1e-12))
    add(CatalogItem("compressed-shift-star-near-circle", sigma_min(a_near.adjoint()), target, 1e-12))

    # -- oracles ------------------------------------------------------------
    add(CatalogItem(
        "oracle-compressed-shift-formula",
        sigma_min(compressed_shift(u_half)),
        oracle_m_compressed_shift(u_half),
        1e-10,
    ))

    model = ess_range(SumConst(STEP, 3j))
    pts = sorted(model.points.tolist(), key=lambda p: p.real)
    dev = abs(pts[0] - (-1 + 3j)) + abs(pts[1] - (1 + 3j))
    add(CatalogItem("ess-range-step", float(dev), 0.0, 1e-12))

    seg = ess_range(LaurentPoly(-1, [1.0, 2j, 1.0]))
    dev = abs(seg.points[0] - (-2 + 2j)) + abs(seg.points[1] - (2 + 2j))
    add(CatalogItem("ess-range-continuous-segment", float(dev), 0.0, 1e-9))

    def exact(phi) -> float:
        lower, upper = normal_dtto_bounds(phi)
        return upper if lower == upper else float("nan")

    lo_s, up_s = normal_dtto_bounds(SumConst(STEP, 3j))
    add(CatalogItem("normal-bounds-step-lower", lo_s, 3.0, 1e-12))
    add(CatalogItem("normal-bounds-step-upper", up_s, float(np.sqrt(10.0)), 1e-12))

    add(CatalogItem("normal-bounds-continuous-exact", exact(LaurentPoly(-1, [1.0, 2j, 1.0])), 2.0, 1e-10))

    real_symbol = LaurentPoly(-1, [1.0, 3.0, 1.0])
    add(CatalogItem("normal-bounds-real-symbol-lower", normal_dtto_bounds(real_symbol)[0], 1.0, 1e-9))
    add(CatalogItem("normal-bounds-real-symbol-exact", exact(real_symbol), 1.0, 1e-9))

    # 1 + cos(t - pi/512) vanishes between the angles of any 512-point grid
    shift = np.exp(1j * np.pi / 512)
    shifted_cosine = LaurentPoly(-1, [0.5 * shift, 1.0, 0.5 / shift])
    add(CatalogItem("normal-bounds-shifted-cosine-exact", exact(shifted_cosine), 0.0, 1e-12))
    add(CatalogItem(
        "normal-bounds-conjugate-shifted-cosine-exact", exact(Conjugate(shifted_cosine)), 0.0, 1e-12
    ))

    add(CatalogItem(
        "nehari-own-symbol",
        truncated_toeplitz_norm_hankel(u_deg2, inner_symbol(u_deg2)),
        0.0,
        1e-14,
    ))
    add(CatalogItem(
        "nehari-shift-dim-one",
        truncated_toeplitz_norm_hankel(u_half, Z),
        0.5,
        1e-10,
    ))

    add(CatalogItem(
        "constant-symbol-oracle",
        float(_oracle_for(None, constant_symbol(1j))),
        1.0,
        1e-15,
    ))

    # -- dispatch layer (the CLI computation path) ---------------------------
    from .cli import dispatch_minmod

    rep = dispatch_minmod(u_z2, Z)
    add(CatalogItem("dispatch-shift-z2", float(rep["value"]), 0.0, 1e-12))
    add(CatalogItem("dispatch-shift-z2-oracle", float(rep["oracle"]), 0.0, 1e-15))
    rep2 = dispatch_minmod(u_half, Z)
    add(CatalogItem("dispatch-shift-dim-one", float(rep2["value"]), 0.5, 1e-9))
    rep3 = dispatch_minmod(None, SumConst(STEP, 3j))
    add(CatalogItem("dispatch-step-lower", float(rep3["lower"]), 3.0, 1e-12))
    add(CatalogItem("dispatch-step-upper", float(rep3["upper"]), float(np.sqrt(10.0)), 1e-12))
    add(CatalogItem(
        "inner-symbol-divisible",
        float(dispatch_minmod(u_deg2, inner_symbol(u_deg2))["oracle"]),
        0.0,
        1e-14,
    ))

    return items


def run_catalog(
    perturb_oracle: float = 0.0,
    emit: Optional[Callable[[str], None]] = print,
    items: Optional[List[CatalogItem]] = None,
) -> int:
    """Run the catalog; return the number of failures.

    Refuses to report success on an empty catalog (that counts as one
    failure).  ``perturb_oracle`` shifts every expected value: the
    negative control for the suite itself.
    """
    if items is None:
        items = build_catalog()
    emit = emit or (lambda _line: None)
    if not items:
        emit("FAIL  empty-catalog  (no items executed)")
        return 1
    failures = 0
    for item in items:
        ok, disc = item.evaluate(perturb_oracle)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        emit(
            f"{status}  {item.name}  computed={item.computed:.12g}  "
            f"expected={item.expected + perturb_oracle:.12g}  discrepancy={disc:.3g}  tol={item.tol:g}"
        )
    emit(f"{len(items) - failures}/{len(items)} checks passed")
    return failures
