import time
import tracemalloc

import numpy as np
import pytest

from dttokit import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SymbolClassError,
    compressed_shift,
    constant_symbol,
    galerkin_sweep,
    inner_symbol,
    min_modulus_bounds,
    min_modulus_corner,
    min_modulus_toeplitz_hankel,
    min_modulus_unimodular,
    shift_symbol,
    sigma_min,
    tm_basis,
)
from dttokit.cli import dispatch_minmod
from dttokit import fourier
from dttokit.fourier import _takenaka_windows
from dttokit.minmod import MinModReport
from dttokit.operators import OperatorMatrix, corner_gram, dual_truncated_toeplitz
from dttokit.oracle import oracle_m_compressed_shift

from conftest import random_blaschke, random_quotient
from reference import reduced_min_modulus

Z = shift_symbol(1)


def _haar_unitary(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------------------
# sigma_min and reduced minimum modulus


def test_sigma_min_identity_and_zero_column():
    assert sigma_min(OperatorMatrix(np.eye(5))) == 1.0
    m = np.eye(4)
    m[:, 2] = 0.0
    assert sigma_min(OperatorMatrix(m)) == 0.0


def test_sigma_min_wide_matrix_is_zero():
    # wider than tall: nontrivial kernel on the input side
    assert sigma_min(OperatorMatrix(np.array([[1.0, 0.0]]))) == 0.0


def test_sigma_min_2x2_closed_form():
    a = np.array([[0.7, 0.2], [0.0, 0.5]])
    s = np.linalg.svd(a, compute_uv=False)
    assert abs(sigma_min(OperatorMatrix(a)) - s[-1]) < 1e-15


def test_sigma_min_unitary_invariance(rng):
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    v = _haar_unitary(rng, 6)
    w = _haar_unitary(rng, 6)
    s0 = sigma_min(OperatorMatrix(m))
    s1 = sigma_min(OperatorMatrix(v @ m @ w))
    assert abs(s0 - s1) < 1e-10


def test_reduced_min_modulus_of_truncated_dual_shift():
    # S_z is the co-analytic corner of the Galerkin block of D_z
    n = 30
    (d,) = dual_truncated_toeplitz(BlaschkeProduct(1.0, (0.5,)), Z, [n])
    q = d.entries[n : 2 * n, n:]
    assert reduced_min_modulus(q) == 1.0
    assert sigma_min(OperatorMatrix(q)) == 0.0


def test_reduced_min_modulus_trivia():
    assert reduced_min_modulus(np.eye(4)) == 1.0
    proj = np.diag([1.0, 0.0, 0.0])
    assert reduced_min_modulus(proj) == 1.0


def test_reduced_min_modulus_degenerate_warns():
    with pytest.warns(UserWarning):
        assert reduced_min_modulus(np.zeros((3, 3))) == 0.0


def test_compressed_shift_and_adjoint_minmod_match_oracle():
    u = BlaschkeProduct(1.0, (0.2, 0.4, 0.6))
    a = compressed_shift(u)
    target = oracle_m_compressed_shift(u)
    assert abs(sigma_min(a) - target) < 1e-9
    assert abs(sigma_min(a.adjoint()) - target) < 1e-9


# ---------------------------------------------------------------------------
# unimodular routes


def test_shift_on_monomial_space_is_exactly_zero():
    u = BlaschkeProduct(1.0, (0.0, 0.0))
    assert min_modulus_unimodular(u, Z).value == 0.0
    assert min_modulus_toeplitz_hankel(u, Z).value == 0.0


def test_own_symbol_gives_zero(rng):
    u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
    assert min_modulus_unimodular(u, inner_symbol(u)).value < 1e-10


def test_constant_symbol_gives_one():
    u = BlaschkeProduct(1.0, (0.3, 0.6))
    assert abs(min_modulus_unimodular(u, constant_symbol(1j)).value - 1.0) < 1e-12


def test_rejects_non_unimodular():
    u = BlaschkeProduct(1.0, (0.5,))
    with pytest.raises(SymbolClassError):
        min_modulus_unimodular(u, constant_symbol(2.0))
    with pytest.raises(SymbolClassError):
        min_modulus_toeplitz_hankel(u, constant_symbol(2.0))


def test_quotient_example_closed_form():
    # 2x2 Hermitian form with entries a = s(1-s), b = a*s, d = s^2(1-s)+s, s = alpha^2
    u = BlaschkeProduct(1.0, (0.0, 0.0))
    for alpha in (0.25, 0.5, 0.75):
        a = alpha**2 * (1 - alpha**2)
        b = alpha**3 * (1 - alpha**2)
        d = alpha**4 * (1 - alpha**2) + alpha**2
        lam_max = 0.5 * ((a + d) + np.sqrt((a - d) ** 2 + 4 * b * b))
        oracle = np.sqrt(1.0 - lam_max)
        rep = min_modulus_toeplitz_hankel(u, BlaschkeQuotient(1.0, -1, (alpha,)))
        assert abs(rep.value - oracle) < 1e-12


def test_dual_route_agreement(rng):
    for _ in range(20):
        u = random_blaschke(rng, max_degree=5, max_modulus=0.85)
        phi = random_quotient(rng, max_degree=3, z_power_range=(-2, 2))
        r1 = min_modulus_unimodular(u, phi)
        r2 = min_modulus_toeplitz_hankel(u, phi)
        assert abs(r1.value - r2.value) < 1e-7 + r1.entry_error_bound + r2.entry_error_bound


def test_bounds_bracket_exact_value(rng):
    for _ in range(10):
        u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
        phi = random_quotient(rng, max_degree=3, z_power_range=(-2, 2))
        lo, up = min_modulus_bounds(u, phi)
        exact = min_modulus_unimodular(u, phi).value
        assert lo - 1e-9 <= exact <= up + 1e-9


def test_bounds_constant_symbol():
    u = BlaschkeProduct(1.0, (0.3,))
    lo, up = min_modulus_bounds(u, constant_symbol(1.0))
    assert abs(lo - 1.0) < 1e-12 and abs(up - 1.0) < 1e-12


def test_bounds_coanalytic_collapse():
    # conj-analytic symbols: the Hankel part vanishes, bounds meet the value
    u = BlaschkeProduct(1.0, (0.3, 0.6))
    phi = Conjugate(BlaschkeQuotient(1.0, 0, (0.4,)))
    lo, up = min_modulus_bounds(u, phi)
    exact = min_modulus_unimodular(u, phi).value
    assert abs(lo - exact) < 1e-9
    assert abs(up - exact) < 1e-9


def test_bounds_shift_on_monomial_space():
    lo, up = min_modulus_bounds(BlaschkeProduct(1.0, (0.0, 0.0)), Z)
    assert lo == 0.0 and up == 0.0


# ---------------------------------------------------------------------------
# corner operator


def test_corner_shift_multidimensional_is_zero():
    for d in (2, 3, 4):
        u = BlaschkeProduct(1.0, (0.0,) * d)
        assert min_modulus_corner(u, Z).value == 0.0


def test_corner_shift_dim_one():
    for lam in (0.2, 0.7):
        rep = min_modulus_corner(BlaschkeProduct(1.0, (lam,)), Z)
        assert abs(rep.value - np.sqrt(1 - lam**2)) < 1e-10
        # the corner-Gram value rides along as the cross-value for inner symbols
        assert rep.oracle_value is not None
        assert abs(rep.oracle_value - rep.value) < 1e-8


def test_corner_pythagoras_dim_one():
    u = BlaschkeProduct(1.0, (0.35,))
    mb = min_modulus_corner(u, Z).value
    ma = min_modulus_unimodular(u, Z).value
    assert abs(mb**2 + ma**2 - 1.0) < 1e-10


def test_corner_generic_multidim_near_zero(rng):
    # entry noise amplifies through sqrt(1 - s^2) near s = 1
    u = random_blaschke(rng, max_modulus=0.7, degree=3)
    assert min_modulus_corner(u, Z).value < 1e-5


def test_corner_analytic_route_matches_unimodular_for_inner(rng):
    phi = BlaschkeQuotient(1.0, 1, (0.3,))
    for _ in range(10):
        u = random_blaschke(rng, max_degree=3, max_modulus=0.7)
        rep = min_modulus_corner(u, phi)
        assert abs(rep.value**2 - rep.oracle_value**2) <= 1e-7 + rep.entry_error_bound
    # a non-unimodular analytic symbol takes the corner-Gram route alone
    analytic = LaurentPoly(0, np.r_[0.25, 0.5])
    rep = min_modulus_corner(u, analytic)
    g = corner_gram(tm_basis(u), analytic)
    assert rep.value == np.sqrt(max(0.0, np.linalg.eigvalsh(g.entries)[0]))
    assert rep.entry_error_bound == g.sv_perturbation()
    assert rep.oracle_value is None


def test_corner_factorizes_nothing_larger_than_the_model_space(monkeypatch):
    shapes = []
    for name in ("svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def recording(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    u = BlaschkeProduct(1.0, (0.9, 0.9j, -0.5))
    for phi in (Z, BlaschkeQuotient(1.0, 1, (0.3,)), LaurentPoly(0, [0.25, 0.5])):
        shapes.clear()
        min_modulus_corner(u, phi, 1e-9)
        assert shapes and all(shape == (u.degree, u.degree) for shape in shapes), shapes


def test_corner_rejects_other_classes():
    u = BlaschkeProduct(1.0, (0.5,))
    with pytest.raises(SymbolClassError):
        min_modulus_corner(u, LaurentPoly(-1, [1.0, 0.0, 1.0]))


# ---------------------------------------------------------------------------
# inner symbols


def test_inner_symbol_divisible_certificate(rng):
    u = random_blaschke(rng, max_degree=3, max_modulus=0.8)
    extra = BlaschkeQuotient(1.0, 1, u.zeros + (0.1,))
    rep = dispatch_minmod(u, extra)
    assert rep["oracle"] == 0.0 and rep["method"] == "finite_exact"
    assert rep["value"] ** 2 <= rep["entry_error"] + 1e-12


def test_inner_symbol_dim_one_cross_check():
    # 1x1 case: the value is |b_mu(lam)| by the kernel eigenvector identity
    lam, mu = 0.5, 0.3
    u = BlaschkeProduct(1.0, (lam,))
    expected = abs((lam - mu) / (1 - mu * lam))
    cross = min_modulus_unimodular(u, BlaschkeQuotient(1.0, 0, (mu,)))
    assert abs(cross.value - expected) < 1e-10


# ---------------------------------------------------------------------------
# Galerkin sweep


def test_sweep_constant_symbol_all_ones():
    reps = galerkin_sweep(BlaschkeProduct(1.0, (0.5,)), constant_symbol(1.0), [4, 8, 16])
    for r in reps:
        assert abs(r.value - 1.0) < 1e-9


def test_sweep_dichotomy_values():
    tol = 1e-9
    cases = [
        (BlaschkeProduct(1.0, (0.0, 0.0)), 0.0),
        (BlaschkeProduct(1.0, (0.5,)), 0.5),
        (BlaschkeProduct(1.0, (0.3, 0.6)), 0.18),
    ]
    for u, target in cases:
        reps = galerkin_sweep(u, Z, [8, 16, 32, 64], tol)
        assert abs(reps[-1].value - target) < 0.02
        values = [r.value for r in reps]
        for a, b in zip(values, values[1:]):
            assert b <= a + 2 * tol


def test_sweep_near_the_circle_is_sized_by_the_symbol_not_by_u():
    # u's window runs to about 2e5 coefficients at this tolerance, which
    # a block sized by it would pay in rows; phi = z reaches one row past
    # the 512 x 512 square compression
    u = BlaschkeProduct(1.0, (0.9999, -0.5j))
    (block,) = dual_truncated_toeplitz(u, Z, [256], 1e-9)
    assert block.shape == (513, 512)
    (rep,) = galerkin_sweep(u, Z, [256])
    assert abs(rep.value - 0.49995) <= 1e-12


def test_sweep_upper_bounds_finite_exact(rng):
    tol = 1e-9
    u = random_blaschke(rng, max_degree=3, max_modulus=0.7)
    phi = random_quotient(rng, max_degree=2, z_power_range=(-1, 1))
    exact = min_modulus_unimodular(u, phi).value
    for r in galerkin_sweep(u, phi, [8, 16, 32], tol):
        assert r.value >= exact - tol
        assert r.method == "galerkin_sweep"


def test_sweep_validates_schedule():
    u = BlaschkeProduct(1.0, (0.5,))
    with pytest.raises(ValueError):
        galerkin_sweep(u, Z, [])
    with pytest.raises(ValueError):
        galerkin_sweep(u, Z, [0, 4])


# ---------------------------------------------------------------------------
# report plumbing


def test_report_serialization_keys():
    rep = MinModReport(0.5, "finite_exact", 32, 1e-11, 0.5)
    d = rep.to_dict()
    assert list(d) == [
        "value", "method", "quantity", "lower", "upper", "oracle", "discrepancy", "entry_error", "truncation",
    ]
    assert d["truncation"] == 32 and d["quantity"] == "m(D_phi)"
    assert d["discrepancy"] == 0.0
    rep2 = MinModReport(0.25, "galerkin_sweep")
    assert rep2.to_dict()["oracle"] is None
    assert rep2.to_dict()["discrepancy"] is None
    with pytest.raises(ValueError):
        MinModReport(-0.1, "oracle")
    with pytest.raises(ValueError):
        MinModReport(0.1, "guesswork")


def test_report_refuses_a_value_its_bounds_do_not_support():
    assert MinModReport(1.0, "bounds", lower=1.0, upper=2.0).to_dict()["upper"] == 2.0
    assert MinModReport(1.0, "oracle", lower=1.0, upper=1.0).method == "oracle"
    # a value outside its own enclosure
    for value in (0.5, 2.5):
        with pytest.raises(ValueError, match="outside"):
            MinModReport(value, "bounds", lower=1.0, upper=2.0)
    # a one-sided value tagged as exact
    for method in ("oracle", "finite_exact"):
        with pytest.raises(ValueError, match="'bounds' exactly when"):
            MinModReport(1.0, method, lower=1.0, upper=2.0)
    # the bounds tag without bounds, or with bounds that meet
    with pytest.raises(ValueError, match="'bounds' exactly when"):
        MinModReport(1.0, "bounds")
    with pytest.raises(ValueError, match="'bounds' exactly when"):
        MinModReport(1.0, "bounds", lower=1.0, upper=1.0)
    with pytest.raises(ValueError, match="pair"):
        MinModReport(1.0, "oracle", lower=1.0)


# ---------------------------------------------------------------------------
# long windows and high degree: rings of zeros near the circle


def _ring(d, r, turn=0.37):
    return BlaschkeProduct(1.0, tuple(r * np.exp(2j * np.pi * (k + turn) / d) for k in range(d)))


def test_long_window_dispatch_matches_closed_forms():
    u = _ring(8, 0.99)
    shift = dispatch_minmod(u, Z, 1e-9)
    # shift dichotomy: u(0) != 0, so m(D_z) = |u(0)| = prod |lam_i|
    assert abs(shift["oracle"] - 0.99**8) < 1e-14
    assert abs(shift["value"] - shift["oracle"]) <= 1e-8 + shift["entry_error"]
    divisible = BlaschkeQuotient(1j, 1, u.zeros + (0.3 - 0.2j,))
    quotient = dispatch_minmod(u, divisible, 1e-9)
    assert quotient["oracle"] == 0.0
    assert quotient["value"] <= 1e-8 + quotient["entry_error"]


def test_long_window_basis_still_certifies():
    # widths follow the slowest pole: log(tol/18)/log(0.998), about 15.2k, here
    u = _ring(8, 0.998)
    assert u.window(1e-12).tail_bound <= 1e-12
    basis = tm_basis(u, 1e-12)
    assert basis.window_width() > 12_000
    assert np.abs(basis.elements.gram - np.eye(u.degree)).max() <= 1e-10


def test_window_width_follows_the_slowest_pole_not_the_degree():
    # each window is cut at tol/(2(d+1)): log(1e-9/18)/log(0.985) is about
    # 1560; summing the eight zeros' widths would give about 11.6k
    assert tm_basis(_ring(8, 0.985, turn=0.0), 1e-9).window_width() <= 2000


def test_high_degree_dispatch_matches_the_shift_dichotomy():
    u = _ring(64, 0.99)
    start = time.perf_counter()
    shift = dispatch_minmod(u, Z, 1e-9)
    assert time.perf_counter() - start < 2.0
    assert abs(shift["value"] - 0.99**64) <= 1e-8 + shift["entry_error"]


def test_one_dispatch_builds_the_windows_of_each_zero_set_once():
    u = BlaschkeProduct(1.0, (0.5, -0.3j, 0.2 + 0.4j))
    # the basis twice and u's window: one build of u's zeros
    _takenaka_windows.cache_clear()
    dispatch_minmod(u, shift_symbol(-1))
    assert _takenaka_windows.cache_info()[:2] == (2, 1)
    # a quotient symbol adds one build of its zeros, read by both routes
    _takenaka_windows.cache_clear()
    dispatch_minmod(u, BlaschkeQuotient(1.0, -1, (0.3,)))
    assert _takenaka_windows.cache_info()[:2] == (3, 2)


def test_inner_corner_builds_the_window_of_phi_once():
    u = BlaschkeProduct(1.0, (0.5, -0.3j))
    _takenaka_windows.cache_clear()
    min_modulus_corner(u, LaurentPoly(1, [0.3, 1.0]))
    assert _takenaka_windows.cache_info()[:2] == (1, 1)
    # phi = z b_0.3 is inner: the Gram route and A_phi share its window
    _takenaka_windows.cache_clear()
    min_modulus_corner(u, BlaschkeQuotient(1.0, 1, (0.3,)))
    assert _takenaka_windows.cache_info()[:2] == (2, 2)


def test_the_basis_gram_is_paired_once_per_build(monkeypatch):
    u = BlaschkeProduct(1.0, (0.5, -0.3j, 0.2 + 0.4j))
    pairings = []
    pair = fourier._pairing

    def counted(fs, gs):
        pairings.append((fs, gs))
        return pair(fs, gs)

    monkeypatch.setattr(fourier, "_pairing", counted)
    _takenaka_windows.cache_clear()
    first = tm_basis(u)
    assert len(pairings) == 1
    # the second call of a dispatch finds the build, and its Gram, cached
    second = tm_basis(u)
    assert len(pairings) == 1
    assert second.elements is first.elements


def test_stacked_assembly_peaks_no_higher_than_the_per_element_one():
    # an element-by-element assembly of these dispatches peaks at 15.67 and
    # 12.92 MB under tracemalloc; products of the whole stack hold d rows of
    # an FFT at once, and must not raise the peak
    for u, phi, limit in (
        (_ring(64, 0.99), Z, 15.7e6),
        (_ring(8, 0.999), BlaschkeQuotient(1.0, -1, (0.3,)), 12.92e6),
    ):
        _takenaka_windows.cache_clear()
        tracemalloc.start()
        try:
            dispatch_minmod(u, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit


def test_galerkin_block_is_wrapped_not_copied():
    # the n = 256 block of this three-arc symbol holds about 12.6 MB; an
    # OperatorMatrix that copied its entries held it twice, a 25.2 MB peak
    u = BlaschkeProduct(1.0, (0.5, -0.3j))
    phi = PiecewiseArcs(((0.0, 2.0, 1.0), (2.0, 4.0, 1j), (4.0, 2 * np.pi, -1.0)))
    galerkin_sweep(u, phi, [16])
    tracemalloc.start()
    try:
        galerkin_sweep(u, phi, [256])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
