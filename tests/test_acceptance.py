"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line (visible with pytest -s) after its
assertions; the asserted tolerances are the release gate.
"""

import time

import numpy as np
import pytest

from dttokit import (
    BlaschkeProduct,
    BlaschkeQuotient,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    compressed_shift,
    galerkin_sweep,
    inner_symbol,
    min_modulus_corner,
    min_modulus_toeplitz_hankel,
    min_modulus_unimodular,
    normal_dtto_bounds,
    oracle_m_dual_shift,
    shift_symbol,
    sigma_min,
    tm_basis,
)
from dttokit.minmod import reduced_min_modulus
from dttokit.operators import (
    OperatorMatrix,
    corner_gram,
    dual_toeplitz_matrix,
    dual_truncated_toeplitz,
    truncated_toeplitz,
)

from conftest import random_blaschke, random_quotient

Z = shift_symbol(1)
STEP = PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0)))


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS  {text}")


def test_criterion_1_compressed_shift_formula():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        u = random_blaschke(rng, max_degree=6, max_modulus=0.9)
        value = sigma_min(compressed_shift(u))
        target = abs(u.unimodular_constant) * np.prod([abs(z) for z in u.zeros])
        worst = max(worst, abs(value - target))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"max deviation {worst}"
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report(1, f"sigma_min(S_u) = |u(0)| on 50 random products (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_dual_shift_dichotomy():
    start = time.perf_counter()
    cases = [
        BlaschkeProduct(1.0, (0.0, 0.0)),
        BlaschkeProduct(1.0, (0.5,)),
        BlaschkeProduct(1.0, (0.3, 0.6)),
    ]
    worst = 0.0
    for u in cases:
        reps = galerkin_sweep(u, Z, [8, 16, 32, 64], tol=1e-9)
        worst = max(worst, abs(reps[-1].value - oracle_m_dual_shift(u)))
    elapsed = time.perf_counter() - start
    assert worst <= 0.02, f"max deviation {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report(2, f"sweep at N=64 within 0.02 of the dichotomy value (worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_3_monomial_shift_exact_zero():
    u = BlaschkeProduct(1.0, (0.0, 0.0))
    v1 = min_modulus_unimodular(u, Z).value
    v2 = min_modulus_toeplitz_hankel(u, Z).value
    assert v1 == 0.0
    assert v2 == 0.0
    _report(3, "both routes return exactly 0 for the shift on span{1, z}")


def test_criterion_4_quotient_example_closed_form():
    u = BlaschkeProduct(1.0, (0.0, 0.0))
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75):
        # independent closed-form 2x2 Hermitian eigenvalue oracle
        a = alpha**2 * (1 - alpha**2)
        b = alpha**3 * (1 - alpha**2)
        d = alpha**4 * (1 - alpha**2) + alpha**2
        lam_max = 0.5 * ((a + d) + np.sqrt((a - d) ** 2 + 4 * b * b))
        oracle = np.sqrt(1.0 - lam_max)
        value = min_modulus_toeplitz_hankel(u, BlaschkeQuotient(1.0, -1, (alpha,))).value
        worst = max(worst, abs(value - oracle))
    assert worst <= 1e-9, f"max deviation {worst}"
    _report(4, f"quotient example matches the 2x2 eigenvalue oracle (worst {worst:.2e})")


def test_criterion_5_own_symbol_zero():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(10):
        u = random_blaschke(rng, max_degree=5, max_modulus=0.85)
        worst = max(worst, min_modulus_unimodular(u, inner_symbol(u)).value)
    assert worst <= 1e-10, f"max value {worst}"
    _report(5, f"m(D_u-symbol) = 0 on 10 random inner functions (worst {worst:.2e})")


def test_criterion_6_step_bounds():
    lo, up = normal_dtto_bounds(SumConst(STEP, 3j))
    assert abs(lo - 3.0) <= 1e-12
    assert abs(up - np.sqrt(10.0)) <= 1e-12
    _report(6, "step symbol bounds equal (3, sqrt(10)) to 1e-12")


def test_criterion_7_continuous_exact_value():
    lo, up = normal_dtto_bounds(LaurentPoly(-1, [1.0, 2j, 1.0]))
    assert lo == up
    assert abs(up - 2.0) <= 1e-10
    _report(7, "continuous symbol gives the exact value 2 to 1e-10")


def test_criterion_8_corner_shift_values():
    worst_zero = 0.0
    for d in (2, 3, 4):
        u = BlaschkeProduct(1.0, (0.0,) * d)
        worst_zero = max(worst_zero, min_modulus_corner(u, Z).value)
    assert worst_zero <= 1e-10, f"max value {worst_zero}"
    worst_one = 0.0
    for lam in (0.2, 0.7):
        value = min_modulus_corner(BlaschkeProduct(1.0, (lam,)), Z).value
        worst_one = max(worst_one, abs(value - np.sqrt(1.0 - lam * lam)))
    assert worst_one <= 1e-10, f"max deviation {worst_one}"
    _report(8, f"corner-shift values match (zero case {worst_zero:.2e}, dim-1 case {worst_one:.2e})")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(1009)

    # defect identity of the corner Gram on 20 random (u, inner phi)
    worst = 0.0
    for _ in range(20):
        u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
        phi = random_quotient(rng, max_degree=3, z_power_range=(0, 2))
        basis = tm_basis(u)
        g = corner_gram(basis, phi)
        a = truncated_toeplitz(basis, phi)
        resid = np.abs(g.entries + a.adjoint().entries @ a.entries - np.eye(u.degree)).max()
        worst = max(worst, resid)
    assert worst <= 1e-8, f"corner defect residual {worst}"

    # dual-shift defect identity on every coordinate at N = 64
    n = 64
    worst_defect = 0.0
    for u in (BlaschkeProduct(1.0, (0.0, 0.0)), BlaschkeProduct(1.0, (0.5,))):
        (dm,) = dual_truncated_toeplitz(u, Z, [n])
        lhs = dm.adjoint().entries @ dm.entries
        rhs = np.eye(2 * n, dtype=complex)
        rhs[n, n] -= 1.0 - abs(u.at_zero()) ** 2
        worst_defect = max(worst_defect, np.abs(lhs - rhs).max())
    assert worst_defect <= 1e-8, f"dual defect residual {worst_defect}"

    # reduced minimum modulus of the truncated dual shift is exactly 1
    assert reduced_min_modulus(dual_toeplitz_matrix(Z, 48)) == 1.0

    # sigma_min agrees between a matrix and its adjoint
    worst_adj = 0.0
    for _ in range(10):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        s = sigma_min(OperatorMatrix(m))
        s_adj = sigma_min(OperatorMatrix(m.conj().T))
        worst_adj = max(worst_adj, abs(s - s_adj))
    assert worst_adj <= 1e-12, f"adjoint deviation {worst_adj}"
    _report(
        9,
        f"property suite (corner defect {worst:.2e}, dual defect {worst_defect:.2e}, "
        f"reduced minmod exact, adjoint {worst_adj:.2e})",
    )


def test_criterion_10_negative_control():
    from dttokit.cli import main
    from dttokit.verify import run_catalog

    assert run_catalog(perturb_oracle=0.0, emit=None) == 0
    assert run_catalog(perturb_oracle=1e-3, emit=None) > 0
    assert main(["verify", "--perturb-oracle", "1e-3"]) == 1
    _report(10, "verification catalog fails under a 1e-3 oracle perturbation")
