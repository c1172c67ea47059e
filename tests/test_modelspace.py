import numpy as np
import pytest

from dttokit import (
    BlaschkeProduct,
    project_onto_model_space,
    reproducing_kernel,
    synthesize,
    tm_basis,
    window_inner_product,
)
from dttokit import modelspace
from dttokit.fourier import FourierWindow, _takenaka_windows, delta_window, window_shift, window_sub
from dttokit.modelspace import gram_matrix

from conftest import random_blaschke


def test_monomial_inner_function_gives_monomial_basis():
    basis = tm_basis(BlaschkeProduct(1.0, (0.0, 0.0)))
    assert basis.dim == 2
    for k, e in enumerate(basis.basis):
        assert e.tail_bound == 0.0
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
    assert np.abs(gram_matrix(basis.basis) - np.eye(2)).max() < 1e-10


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
        defect = np.abs(gram_matrix(basis.basis) - np.eye(u.degree)).max()
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
    assert np.abs(gram_matrix(basis.basis) - np.eye(3)).max() < 1e-10


# ---------------------------------------------------------------------------
# reproducing kernels


def test_kernel_at_origin_monomial_case():
    k = reproducing_kernel(BlaschkeProduct(1.0, (0.0, 0.0)), 0.0)
    # u(0) = 0 so the kernel collapses to the constant 1
    assert abs(k.coeff_at(0) - 1.0) < 1e-14
    assert all(abs(k.coeff_at(n)) < 1e-14 for n in range(1, 5))


def test_kernel_norm_single_zero():
    u = BlaschkeProduct(1.0, (0.5,))
    k0 = reproducing_kernel(u, 0.0)
    assert abs(window_inner_product(k0, k0) - 0.75) < 1e-12


def test_kernel_reproduces_coordinates():
    u = BlaschkeProduct(1.0, (0.0, 0.0))
    k = reproducing_kernel(u, 0.3)
    # <z, k_0.3> = 0.3
    assert abs(window_inner_product(delta_window(1), k) - 0.3) < 1e-13


def test_kernel_rejects_points_outside_disc():
    with pytest.raises(ValueError):
        reproducing_kernel(BlaschkeProduct(1.0, (0.5,)), 1.0)
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            reproducing_kernel(BlaschkeProduct(1.0, (0.5,)), 0.3, tol)


def test_reproducing_property_random(rng):
    for _ in range(3):
        u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
        basis = tm_basis(u)
        for _ in range(10):
            lam = rng.uniform(0, 0.8) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            k = reproducing_kernel(u, lam)
            coords = rng.standard_normal(u.degree) + 1j * rng.standard_normal(u.degree)
            f = synthesize(basis, coords)
            f_at_lam = sum(
                c * e.eval_at(lam) for c, e in zip(coords, basis.basis)
            )
            assert abs(window_inner_product(f, k) - f_at_lam) < 1e-8


def test_kernel_coordinates_match_evaluations(rng):
    u = random_blaschke(rng, max_degree=3, max_modulus=0.7)
    basis = tm_basis(u)
    lam = 0.25 + 0.1j
    k = reproducing_kernel(u, lam)
    coords = project_onto_model_space(basis, k)
    expected = np.array([np.conj(e.eval_at(lam)) for e in basis.basis])
    assert np.abs(coords - expected).max() < 1e-10


# ---------------------------------------------------------------------------
# projection


def test_projection_annihilates_u_times_analytic():
    u = BlaschkeProduct(1.0, (0.3, 0.6))
    basis = tm_basis(u)
    uz = window_shift(u.window(1e-13), 1)
    assert np.abs(project_onto_model_space(basis, uz)).max() < 1e-11


def test_projection_of_constant_in_monomial_space():
    basis = tm_basis(BlaschkeProduct(1.0, (0.0, 0.0)))
    coords = project_onto_model_space(basis, delta_window(0))
    assert np.allclose(coords, [1.0, 0.0])


def test_projection_pythagoras(rng):
    u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
    basis = tm_basis(u)
    for _ in range(5):
        raw = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        f = FourierWindow(-4, raw, 0.0)
        coords = project_onto_model_space(basis, f)
        proj = synthesize(basis, coords)
        resid = window_sub(f, proj)
        total = window_inner_product(f, f).real
        split = window_inner_product(proj, proj).real + window_inner_product(resid, resid).real
        assert abs(total - split) < 1e-8


def test_widening_retry_returns_wider_windows_never_the_rejected_ones(monkeypatch):
    u = BlaschkeProduct(1.0, (0.9, -0.7j, 0.5 + 0.2j))
    tol = 1e-3

    def defect(elements):
        return np.abs(gram_matrix(elements) - np.eye(u.degree)).max()

    coarse = _takenaka_windows(u.zeros, tol)[0]
    fine = _takenaka_windows(u.zeros, tol / 100.0)[0]
    assert defect(fine) < defect(coarse)
    # a limit between the two defects: the first attempt fails, the retry passes
    monkeypatch.setattr(modelspace, "GRAM_DEFECT_LIMIT", np.sqrt(defect(coarse) * defect(fine)))
    _takenaka_windows.cache_clear()
    for _ in range(2):  # the second call finds the rejected windows cached
        basis = tm_basis(u, tol)
        assert basis.window_width() > max(e.hi for e in coarse)
        for e, f in zip(basis.basis, fine):
            assert (e.lo, e.hi) == (f.lo, f.hi)
            assert np.array_equal(e.coeffs, f.coeffs)
    assert _takenaka_windows.cache_info().misses == 2
