import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dttokit import (
    BlaschkeProduct,
    SymbolClassError,
    tm_basis,
)
from dttokit import modelspace
from dttokit.fourier import (
    _coeffs_over,
    _takenaka_windows,
    delta_window,
    window_inner_product,
    window_multiply,
    window_scale,
    window_shift,
)
from dttokit.modelspace import reproducing_kernel

from conftest import random_blaschke
from reference import eval_window, geometric_window, window_sub


def test_monomial_inner_function_gives_monomial_basis():
    basis = tm_basis(BlaschkeProduct(1.0, (0.0, 0.0)))
    assert basis.dim == 2
    for k, e in enumerate(basis.basis):
        # one coefficient, exact; the tail is only the stated roundoff margin
        assert (e.lo, e.hi) == (k, k)
        assert e.tail_bound <= 1e-16
        assert e.coeff_at(k) == 1.0
        assert e.norm() == 1.0


def test_single_zero_basis_is_normalized_geometric_series():
    basis = tm_basis(BlaschkeProduct(1.0, (0.5,)))
    e = basis.basis[0]
    # oracle: sqrt(1 - 0.25) * sum 0.5^n z^n has norm 1 by the geometric series
    scale = np.sqrt(0.75)
    for n in range(10):
        assert abs(e.coeff_at(n) - scale * 0.5**n) < 1e-14
    assert abs(window_inner_product(e, e) - 1.0) < 1e-12


def test_degree_two_gram_is_identity():
    basis = tm_basis(BlaschkeProduct(1.0, (0.3, 0.6)))
    assert np.abs(basis.elements.gram - np.eye(2)).max() < 1e-10


def test_rejects_constant_inner_function():
    with pytest.raises(ValueError):
        tm_basis(BlaschkeProduct(1.0, ()))
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            tm_basis(BlaschkeProduct(1.0, (0.5,)), tol)


def test_orthonormality_random_products(rng):
    for _ in range(20):
        u = random_blaschke(rng, max_degree=6, max_modulus=0.9)
        basis = tm_basis(u)
        defect = np.abs(basis.elements.gram - np.eye(u.degree)).max()
        assert defect < 1e-10


def test_basis_elements_lie_in_model_space(rng):
    u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
    basis = tm_basis(u)
    uw = u.window(1e-13)
    for n in range(u.degree + 1):
        shifted = window_shift(uw, n)
        for e in basis.basis:
            assert abs(window_inner_product(e, shifted)) < 1e-10


def test_repeated_zeros_supported():
    basis = tm_basis(BlaschkeProduct(1.0, (0.4, 0.4, 0.4)))
    assert np.abs(basis.elements.gram - np.eye(3)).max() < 1e-10


# ---------------------------------------------------------------------------
# reproducing kernels


def test_kernel_at_origin_monomial_case():
    k = reproducing_kernel(tm_basis(BlaschkeProduct(1.0, (0.0, 0.0))), 0.0)
    # u(0) = 0 so the kernel collapses to the constant 1
    assert abs(k.coeff_at(0) - 1.0) < 1e-14
    assert all(abs(k.coeff_at(n)) < 1e-14 for n in range(1, 5))


def test_kernel_norm_single_zero():
    u = BlaschkeProduct(1.0, (0.5,))
    k0 = reproducing_kernel(tm_basis(u), 0.0)
    assert abs(window_inner_product(k0, k0) - 0.75) < 1e-12


def test_kernel_reproduces_coordinates():
    u = BlaschkeProduct(1.0, (0.0, 0.0))
    k = reproducing_kernel(tm_basis(u), 0.3)
    # <z, k_0.3> = 0.3
    assert abs(window_inner_product(delta_window(1), k) - 0.3) < 1e-13


def test_kernel_rejects_points_outside_disc():
    with pytest.raises(ValueError):
        reproducing_kernel(tm_basis(BlaschkeProduct(1.0, (0.5,))), 1.0)
    # the kernel reads its basis, and the basis refuses what the kernel
    # once refused: a tolerance that is not finite and a constant u, whose
    # model space is trivial, as on every other route
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            reproducing_kernel(tm_basis(BlaschkeProduct(1.0, (0.5,)), tol), 0.3)
    with pytest.raises(SymbolClassError, match="nonconstant"):
        reproducing_kernel(tm_basis(BlaschkeProduct(1j, ())), 0.3)


def _polar(r, t):
    return complex(r * np.exp(1j * t))


_POINT = st.one_of(st.just(0j), st.builds(_polar, st.floats(0.0, 0.95), st.floats(0.0, 2 * np.pi)))


@st.composite
def _kernel_inners(draw):
    """Zeros of modulus up to 0.95, zeros at 0 among them, some repeated."""
    distinct = draw(st.lists(_POINT, min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=5))
    return BlaschkeProduct(_polar(1.0, draw(st.floats(0.0, 2 * np.pi))), tuple(distinct[i] for i in picks))


@settings(max_examples=60)
@given(u=_kernel_inners(), lam=_POINT)
@example(u=BlaschkeProduct(1.0, (0j, 0.5, 0j, 0.5)), lam=0j)
@example(u=BlaschkeProduct(-1.0, (0.95, 0.95j, 0.95)), lam=_polar(0.95, 0.3))
def test_kernel_matches_the_closed_form_within_both_tails(u, lam):
    tol = 1e-9
    k = reproducing_kernel(tm_basis(u, tol), lam)
    # reference: (1 - conj(u(lam)) u) / (1 - conj(lam) z), the geometric
    # factor cut far enough out that its own tail is negligible
    uw = u.window(1e-12)
    geom = geometric_window(lam, 2 * max(k.hi, uw.hi) + 64)
    ref = window_sub(geom, window_scale(window_multiply(uw, geom), np.conj(u(lam))))
    hi = max(k.hi, ref.hi)
    gap = np.linalg.norm(_coeffs_over(k, 0, hi) - _coeffs_over(ref, 0, hi))
    # the stored coefficients carry roundoff the tails do not count
    assert k.lo == 0 and gap <= k.tail_bound + ref.tail_bound + 1e-13


def test_reproducing_property_random(rng):
    for _ in range(3):
        u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
        basis = tm_basis(u)
        for _ in range(10):
            lam = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            k = reproducing_kernel(basis, lam)
            coords = rng.standard_normal(u.degree) + 1j * rng.standard_normal(u.degree)
            # <f, k> for f = sum coords[j] e_j, term by term
            f_paired = coords @ window_inner_product(basis.elements, k)
            f_at_lam = sum(
                c * eval_window(e, lam) for c, e in zip(coords, basis.basis)
            )
            assert abs(f_paired - f_at_lam) < 1e-8


def test_kernel_coordinates_match_evaluations(rng):
    u = random_blaschke(rng, max_degree=3, max_modulus=0.7)
    basis = tm_basis(u)
    lam = 0.25 + 0.1j
    k = reproducing_kernel(basis, lam)
    coords = window_inner_product(k, basis.elements)
    expected = np.array([np.conj(eval_window(e, lam)) for e in basis.basis])
    assert np.abs(coords - expected).max() < 1e-10


# ---------------------------------------------------------------------------
# coordinates in the basis


def test_projection_annihilates_u_times_analytic():
    # u H^2 is orthogonal to every basis element
    u = BlaschkeProduct(1.0, (0.3, 0.6))
    basis = tm_basis(u)
    uz = window_shift(u.window(1e-13), 1)
    assert np.abs(window_inner_product(uz, basis.elements)).max() < 1e-11


def test_projection_of_constant_in_monomial_space():
    basis = tm_basis(BlaschkeProduct(1.0, (0.0, 0.0)))
    coords = window_inner_product(delta_window(0), basis.elements)
    assert np.allclose(coords, [1.0, 0.0])


def test_widening_retry_returns_wider_windows_never_the_rejected_ones(monkeypatch):
    u = BlaschkeProduct(1.0, (0.9, -0.7j, 0.5 + 0.2j))
    tol = 1e-3

    def defect(elements):
        return np.abs(elements.gram - np.eye(u.degree)).max()

    coarse = _takenaka_windows(u.zeros, tol)[0]
    fine = _takenaka_windows(u.zeros, tol / 100.0)[0]
    assert defect(fine) < defect(coarse)
    # a limit between the two defects: the first attempt fails, the retry passes
    monkeypatch.setattr(modelspace, "GRAM_DEFECT_LIMIT", np.sqrt(defect(coarse) * defect(fine)))
    _takenaka_windows.cache_clear()
    for _ in range(2):  # the second call finds the rejected windows cached
        basis = tm_basis(u, tol)
        # the basis keeps the tolerance it was asked for, not the retry's
        assert basis.tol == tol and basis.window_width() > coarse.hi
        for e, f in zip(basis.basis, fine.rows()):
            assert (e.lo, e.hi) == (f.lo, f.hi)
            assert np.array_equal(e.coeffs, f.coeffs)
    assert _takenaka_windows.cache_info().misses == 2
