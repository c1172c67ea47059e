import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dttokit import (
    BlaschkeProduct,
    BlaschkeQuotient,
    LaurentPoly,
    SymbolClassError,
    compressed_shift,
    conjugated,
    constant_symbol,
    galerkin_sweep,
    inner_symbol,
    shift_symbol,
    sigma_min,
    tm_basis,
)
from dttokit import operators
from dttokit.fourier import (
    _DIRECT_PRODUCT_MAX,
    BudgetError,
    Conjugate,
    FourierWindow,
    PiecewiseArcs,
    _coeffs_over,
    delta_window,
    is_analytic,
    project_analytic,
    project_antianalytic,
    symbol_to_window,
    takenaka_realization,
    window_add,
    window_conjugate,
    window_inner_product,
    window_multiply,
    window_shift,
)
from dttokit.operators import (
    OperatorMatrix,
    corner_gram,
    dual_truncated_toeplitz,
    truncated_toeplitz,
    _hankel_view,
    _symbol_window_for_basis,
)
from dttokit.oracle import oracle_rank_one_spectrum

import reference
from conftest import random_blaschke, random_quotient
from reference import conjugation_action

Z = shift_symbol(1)
ZBAR = conjugated(Z)
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# monomial blocks, read off the Galerkin block of D_phi

# K_u = {0}: D_phi is M_phi on L^2 and its Hankel blocks are H_phi, H_{conj(phi)}^*
ONE = BlaschkeProduct(1.0, ())


def _rows_by_kind(block: OperatorMatrix, n: int, ha: int):
    """The analytic and the co-analytic output rows, each in index order,
    of a block with ha analytic overflow rows."""
    e = block.entries
    return np.vstack([e[:n], e[2 * n : 2 * n + ha]]), np.vstack([e[n : 2 * n], e[2 * n + ha :]])


def _block_by_kind(phi, n, tol=1e-12, to_window=symbol_to_window):
    """The Galerkin block of D_phi at truncation n for u = 1, with its
    analytic and co-analytic rows; to_window makes the symbol window the builder reads,
    whose top index fixes the analytic overflow."""
    seen = []

    def read(*args):
        seen.append(to_window(*args))
        return seen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "symbol_to_window", read)
        (block,) = dual_truncated_toeplitz(ONE, phi, [n], tol)
    (phi_w,) = seen
    return (block,) + _rows_by_kind(block, n, max(phi_w.hi, 0))


def _toeplitz(phi, n, tol=1e-12):
    """T_phi: the analytic rows on the n analytic input coordinates."""
    return _block_by_kind(phi, n, tol)[1][:, :n]


def _hankel(phi, n, tol=1e-12):
    """H_phi (u = 1): the co-analytic rows on the n analytic input coordinates."""
    return _block_by_kind(phi, n, tol)[2][:, :n]


def _dual_toeplitz(phi, n, tol=1e-12):
    """S_phi: the n co-analytic rows of the square on the co-analytic input coordinates."""
    return _block_by_kind(phi, n, tol)[2][:n, n:]


def test_toeplitz_identity_and_shift():
    assert np.array_equal(_toeplitz(constant_symbol(1.0), 4), np.eye(4))
    # the shift reaches one analytic overflow row
    assert np.array_equal(_toeplitz(Z, 4)[:4], np.eye(4, k=-1))


def test_toeplitz_deep_coanalytic_restriction_vanishes():
    t = _toeplitz(LaurentPoly(-3, [1.0]), 2)
    assert np.abs(t).max() == 0.0


def test_toeplitz_adjoint_symmetry(rng):
    phi = random_quotient(rng, max_degree=3, z_power_range=(-2, 2))
    t = _toeplitz(phi, 6, 1e-12)[:6]
    tbar = _toeplitz(conjugated(phi), 6, 1e-12)[:6]
    assert np.abs(tbar - t.conj().T).max() < 1e-12


def test_hankel_analytic_symbol_vanishes():
    assert np.abs(_hankel(Z, 4)).max() == 0.0


def test_hankel_conjugate_shift_columns():
    h = _hankel(ZBAR, 2)
    # input 1 -> zbar, input z -> 0; zbar reaches one co-analytic overflow row
    assert h.shape == (3, 2)
    assert h[0, 0] == 1.0
    assert np.abs(h[1:, 0]).max() == 0.0
    assert np.abs(h[:, 1]).max() == 0.0


def test_hankel_quotient_column_norm():
    alpha = 0.5
    h = _hankel(conjugated(BlaschkeQuotient(1.0, -1, (alpha,))), 2, tol=1e-13)
    s0_sq = float(np.sum(np.abs(h[:, 0]) ** 2))
    assert abs(s0_sq - alpha**2 * (1 - alpha**2)) < 1e-12
    # second column is alpha times the first
    assert np.abs(h[:, 1] - alpha * h[:, 0]).max() < 1e-13


def test_operator_matrix_wraps_its_entries_without_a_copy():
    a = np.arange(6.0).reshape(2, 3) + 1j
    m = OperatorMatrix(a, 1e-3)
    assert np.shares_memory(m.entries, a)
    # the view is read-only, the caller's array is left as it was
    assert not m.entries.flags.writeable and a.flags.writeable


def test_dual_toeplitz_identity_and_shift():
    assert np.array_equal(_dual_toeplitz(constant_symbol(1.0), 4), np.eye(4))
    q = _dual_toeplitz(Z, 5)
    assert np.array_equal(q, np.eye(5, k=1))
    # kernel is spanned by the first coordinate (zbar)
    assert np.abs(q[:, 0]).max() == 0.0
    qbar = _dual_toeplitz(ZBAR, 5)
    assert np.array_equal(qbar, q.conj().T)


# ---------------------------------------------------------------------------
# index rules of the strided assembly, entry by entry through coeff_at

# coefficients at -3..4 only: narrower than the index ranges of the larger blocks below
PHI_NARROW = LaurentPoly(-3, [0.5j, -2.0, 1.0 + 1j, 3.0, -0.25, 2.0j, 1.5, -1.0 - 0.5j])


def _coeff(phi: LaurentPoly):
    return FourierWindow(phi.offset, phi.coeffs).coeff_at


def test_strided_view_zero_pads_a_narrow_window():
    w = FourierWindow(2, [1.0, 2.0j, 3.0])
    for first in (-6, 0, 3, 9):
        v = _hankel_view(w, first, 3, 4)
        assert v.shape == (3, 4)
        for j, k in np.ndindex(3, 4):
            assert v[j, k] == w.coeff_at(first + j + k)


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 6), (7, 3)])
def test_monomial_blocks_follow_their_index_rules(rows, cols):
    c = _coeff(PHI_NARROW)
    n = max(rows, cols)
    t = _toeplitz(PHI_NARROW, n)[:rows, :cols]
    h = _hankel(PHI_NARROW, n)[:rows, :cols]
    s = _dual_toeplitz(PHI_NARROW, n)[:rows, :rows]
    assert t.shape == h.shape == (rows, cols) and s.shape == (rows, rows)
    for j, k in np.ndindex(rows, cols):
        assert t[j, k] == c(j - k)
        assert h[j, k] == c(-(j + 1) - k)
    for j, k in np.ndindex(rows, rows):
        assert s[j, k] == c(k - j)


def _dtto_expected(phi: LaurentPoly, power: int, n: int, m: int) -> np.ndarray:
    """D_phi rows for u = z^power: (u phi)(t) = phi(t - power) and
    (u conj(phi))(t) = conj(phi(power - t))."""
    c = _coeff(phi)
    a = np.empty((2 * m, 2 * n), dtype=complex)
    for j, k in np.ndindex(m, n):
        a[j, k] = c(j - k)  # T_phi
        a[j, n + k] = c(power + j + k + 1)  # H*_{u conj(phi)}: conj of (u conj(phi))(-j - (k + 1))
        a[m + j, k] = c(-(j + 1) - k - power)  # H_{u phi}: (u phi)(-(j + 1) - k)
        a[m + j, n + k] = c(k - j)  # S_phi
    return a


def _in_block_order(ref: np.ndarray, n: int, ha: int, hc: int) -> np.ndarray:
    """Reference rows, m of each kind, in the block's order: the square
    compression, then ha analytic and hc co-analytic overflow rows."""
    m = ref.shape[0] // 2
    return np.vstack([ref[:n], ref[m : m + n], ref[n : n + ha], ref[m + n : m + n + hc]])


def _square(block: OperatorMatrix, n: int) -> np.ndarray:
    """The 2n x 2n compression: the first n output rows of each kind."""
    return block.entries[: 2 * n]


def _check_dtto_against_reference(phi: LaurentPoly, power: int, n: int):
    (block,) = dual_truncated_toeplitz(BlaschkeProduct(1.0, (0.0,) * power), phi, [n], 1e-9)
    lo, hi = phi.offset, phi.offset + len(phi.coeffs) - 1
    ha, hc = max(hi, 0), max(-lo, 0)
    assert block.shape == (2 * n + ha + hc, 2 * n)
    # the reference reaches 4 rows of each kind past the block's last
    m = n + max(ha, hc) + 4
    ref = _dtto_expected(phi, power, n, m)
    assert np.array_equal(block.entries, _in_block_order(ref, n, ha, hc))
    # the block keeps every nonzero output row: further rows are zero
    assert not ref[n + ha : m].any() and not ref[m + n + hc :].any()
    assert np.array_equal(_square(block, n), _dtto_expected(phi, power, n, n))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_dtto_follows_its_index_rules_and_is_a_row_slice_of_the_rectangular_block(n):
    _check_dtto_against_reference(PHI_NARROW, 2, n)


# ---------------------------------------------------------------------------
# truncated Toeplitz and the compressed shift


def test_truncated_toeplitz_monomial_case():
    basis = tm_basis(BlaschkeProduct(1.0, (0.0, 0.0)))
    a = truncated_toeplitz(basis, Z)
    assert np.array_equal(a.entries, [[0.0, 0.0], [1.0, 0.0]])


def test_truncated_toeplitz_dim_one_entry_modulus():
    lam = 0.5
    basis = tm_basis(BlaschkeProduct(1.0, (lam,)))
    a = truncated_toeplitz(basis, Z)
    assert abs(abs(a.entries[0, 0]) - lam) < 1e-12


def test_truncated_toeplitz_vanishes_on_own_symbol(rng):
    u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
    a = truncated_toeplitz(tm_basis(u), inner_symbol(u))
    assert np.abs(a.entries).max() < 1e-11


def test_compressed_shift_is_truncated_toeplitz_with_shift_symbol(rng):
    u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
    basis = tm_basis(u)
    assert np.abs(compressed_shift(u).entries - truncated_toeplitz(basis, Z).entries).max() < 1e-13


def test_compressed_shift_defect_identity(rng):
    # I - A* A equals the rank-one projector onto S* u
    for degree in (1, 2, 4):
        u = random_blaschke(rng, max_modulus=0.8, degree=degree)
        basis = tm_basis(u)
        a = compressed_shift(u)
        defect = np.eye(degree) - a.adjoint().entries @ a.entries
        uw = u.window(1e-13)
        s_star_u = window_shift(window_add(uw, delta_window(0, -u.at_zero())), -1)
        x = np.array([window_inner_product(s_star_u, e) for e in basis.basis])
        assert np.abs(defect - np.outer(x, np.conj(x))).max() < 1e-10
        assert abs(np.vdot(x, x).real - (1 - abs(u.at_zero()) ** 2)) < 1e-10


def test_compressed_shift_defect_spectrum_degree_two():
    u = BlaschkeProduct(1.0, (0.3, 0.6))
    a = compressed_shift(u)
    eig = np.sort(np.linalg.eigvalsh(a.adjoint().entries @ a.entries))
    expected = sorted(
        v.real for v in oracle_rank_one_spectrum(1.0, -1.0, 1.0 - abs(u.at_zero()) ** 2)
    )
    assert np.abs(eig - expected).max() < 1e-10


def test_rank_one_spectrum_from_constructed_defect(rng):
    # eigenvalues of alpha I + beta x (x)* match the two-point formula
    d = 5
    x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    alpha, beta = 0.7, -0.3
    t = alpha * np.eye(d) + beta * np.outer(x, np.conj(x))
    eig = np.linalg.eigvals(t)
    targets = oracle_rank_one_spectrum(alpha, beta, float(np.vdot(x, x).real))
    for ev in eig:
        assert min(abs(ev - t0) for t0 in targets) < 1e-10


# ---------------------------------------------------------------------------
# corner Gram


def test_corner_gram_constant_symbol_vanishes(rng):
    u = random_blaschke(rng, max_degree=3, max_modulus=0.8)
    g = corner_gram(tm_basis(u), constant_symbol(np.exp(0.3j)))
    assert np.abs(g.entries).max() < 1e-11


def test_corner_gram_unimodular_defect_identity(rng):
    for _ in range(5):
        u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
        phi = random_quotient(rng, max_degree=3, z_power_range=(-2, 2))
        basis = tm_basis(u)
        g = corner_gram(basis, phi)
        a = truncated_toeplitz(basis, phi)
        resid = np.abs(g.entries + a.adjoint().entries @ a.entries - np.eye(u.degree)).max()
        assert resid < 1e-9


def test_corner_gram_columnwise_isometry(rng):
    # |A_phi e_k|^2 + G_kk = 1 for unimodular phi
    u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
    phi = random_quotient(rng, max_degree=2, z_power_range=(-1, 1))
    basis = tm_basis(u)
    g = corner_gram(basis, phi)
    a = truncated_toeplitz(basis, phi)
    for k in range(u.degree):
        col = a.entries[:, k]
        assert abs(np.vdot(col, col).real + g.entries[k, k].real - 1.0) < 1e-8


def test_corner_gram_shift_on_monomial_space():
    basis = tm_basis(BlaschkeProduct(1.0, (0.0, 0.0)))
    g = corner_gram(basis, ZBAR)
    assert np.abs(g.entries - np.diag([1.0, 0.0])).max() < 1e-14


# ---------------------------------------------------------------------------
# dual truncated Toeplitz block


def test_dtto_block_identity_symbol():
    u = BlaschkeProduct(1.0, (0.5,))
    (d,) = dual_truncated_toeplitz(u, constant_symbol(1.0), [5])
    # a constant symbol reaches no row past the square compression
    assert d.shape == (10, 10)
    assert np.abs(d.entries - np.eye(10)).max() < 1e-14


def test_dtto_block_offdiagonal_rank_one():
    n = 16
    u = BlaschkeProduct(1.0, (0.5,))
    (d,) = dual_truncated_toeplitz(u, Z, [n])
    # the shift reaches one analytic row past the square compression
    assert d.shape == (2 * n + 1, 2 * n)
    analytic, coanalytic = _rows_by_kind(d, n, 1)
    # every row of the upper-right block: conj(u(0)) at the corner, else 0
    ur = analytic[:, n:]
    expected = np.zeros((n + 1, n), dtype=complex)
    expected[0, 0] = np.conj(u.at_zero())
    assert np.abs(ur - expected).max() < 1e-12
    # lower-left block vanishes for the shift symbol
    assert np.abs(coanalytic[:, :n]).max() < 1e-12


def test_dtto_block_offdiagonal_vanishes_at_origin_zero():
    n = 16
    (d,) = dual_truncated_toeplitz(BlaschkeProduct(1.0, (0.0, 0.0)), Z, [n])
    assert d.shape == (2 * n + 1, 2 * n)
    assert np.abs(_rows_by_kind(d, n, 1)[0][:, n:]).max() == 0.0


def test_dtto_block_is_refused_above_the_byte_budget(monkeypatch):
    # a block of rows x cols complex entries takes 16 rows cols bytes, and
    # the SVD factorizes a copy of it: 32 rows cols in all; the shift
    # reaches one analytic row past the 2n x 2n square compression
    u = BlaschkeProduct(1.0, (0.5,))
    assert [d.shape for d in dual_truncated_toeplitz(u, Z, [16, 17])] == [(33, 32), (35, 34)]
    # a budget of exactly the n = 16 block and its copy admits it and
    # refuses n = 17 before any block of the schedule is allocated, from
    # its least size
    budget = 32 * 33 * 32
    monkeypatch.setattr(operators, "_MAX_BLOCK_BYTES", budget)
    assert next(dual_truncated_toeplitz(u, Z, [16])).shape == (33, 32)
    refused = "block of {} bytes, SVD copy included, exceeds {}"
    with pytest.raises(SymbolClassError, match=refused.format(32 * 34 * 34, budget)):
        dual_truncated_toeplitz(u, Z, [1, 17])
    # the n = 16 block alone would fit this budget; with its copy it does not
    budget = 32 * 32 * 32
    monkeypatch.setattr(operators, "_MAX_BLOCK_BYTES", budget)
    assert 16 * 33 * 32 < budget
    with pytest.raises(SymbolClassError, match=refused.format(32 * 33 * 32, budget)):
        dual_truncated_toeplitz(u, Z, [16])
    # a budget of exactly the n = 17 square passes the least size and
    # refuses the block's real size
    budget = 32 * 34 * 34
    monkeypatch.setattr(operators, "_MAX_BLOCK_BYTES", budget)
    with pytest.raises(SymbolClassError, match=refused.format(32 * 35 * 34, budget)):
        dual_truncated_toeplitz(u, Z, [1, 17])
    # the sweep refuses through the same plan
    with pytest.raises(SymbolClassError, match=f"block of {32 * 35 * 34} bytes"):
        galerkin_sweep(u, Z, [1, 17], 1e-12)


def test_dtto_defect_identity_on_every_column(rng):
    # D* D = I - (1 - |u(0)|^2) zbar (x) zbar: the block keeps every
    # nonzero output row, so the identity holds up to the truncation edge
    n = 32
    for u in (
        BlaschkeProduct(1.0, (0.0, 0.0)),
        BlaschkeProduct(1.0, (0.5,)),
        random_blaschke(rng, max_degree=3, max_modulus=0.8),
    ):
        (d,) = dual_truncated_toeplitz(u, Z, [n])
        lhs = d.adjoint().entries @ d.entries
        rhs = np.eye(2 * n, dtype=complex)
        rhs[n, n] -= 1.0 - abs(u.at_zero()) ** 2
        assert np.abs(lhs - rhs).max() < 1e-9


# ---------------------------------------------------------------------------
# conjugation


def test_conjugation_is_basis_swap():
    m = conjugation_action(4)
    v = np.zeros(8)
    v[4] = 1.0  # zbar coordinate
    image = m @ np.conj(v)
    assert image[0] == 1.0 and np.abs(image[1:]).max() == 0.0
    # the swap rolls the coordinates by n, as the catalog applies it
    assert np.array_equal(image, np.roll(np.conj(v), 4))


def test_conjugation_unitary_and_involutive():
    # x -> M conj(x) is an involution exactly when M conj(M) = I
    for n in (1, 3, 8):
        m = conjugation_action(n)
        assert np.abs(m @ m.conj().T - np.eye(2 * n)).max() == 0.0
        assert np.abs(m @ np.conj(m) - np.eye(2 * n)).max() == 0.0


def test_conjugation_intertwines_block_with_adjoint(rng):
    n = 16
    for _ in range(3):
        u = random_blaschke(rng, max_degree=3, max_modulus=0.8)
        phi = random_quotient(rng, max_degree=2, z_power_range=(-1, 1))
        (block,) = dual_truncated_toeplitz(u, phi, [n])
        d = _square(block, n)
        m = conjugation_action(n)
        sandwich = m @ np.conj(d) @ m
        assert np.abs(sandwich - d.conj().T).max() < 1e-10
        # the catalog's form of C D C: both axes rolled by n
        assert np.array_equal(np.roll(np.conj(d), (n, n), axis=(0, 1)), sandwich)


# ---------------------------------------------------------------------------
# the matrix container


def test_operator_matrix_invariants():
    with pytest.raises(ValueError):
        OperatorMatrix(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        OperatorMatrix(np.eye(2), entry_error=-1.0)
    m = OperatorMatrix(np.eye(3), 1e-10)
    assert abs(m.sv_perturbation() - 3e-10) < 1e-24


# ---------------------------------------------------------------------------
# symbol windows at their own support against ones zero-padded to the
# requested index range


def _polar(r, t):
    return complex(r * np.cos(t), r * np.sin(t))


_ANGLE = st.floats(0.0, 2 * np.pi)
_INNERS = st.lists(st.builds(_polar, st.floats(0.0, 0.95), _ANGLE), min_size=1, max_size=4).map(
    lambda zs: BlaschkeProduct(1.0, tuple(zs))
)
_LAURENT = st.builds(
    LaurentPoly,
    st.integers(-3, 3),
    st.lists(st.builds(_polar, st.floats(0.1, 1.0), _ANGLE), min_size=1, max_size=5),
)
_QUOTIENT = st.builds(
    BlaschkeQuotient,
    st.builds(_polar, st.just(1.0), _ANGLE),
    st.integers(-2, 2),
    st.lists(st.builds(_polar, st.floats(0.0, 0.9), _ANGLE), max_size=2).map(tuple),
)
_SYMBOLS = st.one_of(_LAURENT, _QUOTIENT, _QUOTIENT.map(Conjugate))


def _padded_symbol_to_window(phi, lo, hi, tol):
    """The symbol window zero-padded out to cover [lo, hi] as well."""
    w = symbol_to_window(phi, lo, hi, tol)
    lo, hi = min(lo, w.lo), max(hi, w.hi)
    return FourierWindow(lo, _coeffs_over(w, lo, hi), w.tail_bound)


def _padded(fn, *args):
    """fn(*args) with every symbol window the operators and the Hankel
    reference read zero-padded to the requested index range."""
    with pytest.MonkeyPatch.context() as mp:
        for module in (operators, reference):
            mp.setattr(module, "symbol_to_window", _padded_symbol_to_window)
        return fn(*args)


@settings(max_examples=40)
@given(u=_INNERS, phi=_SYMBOLS, n=st.integers(1, 12))
# the Galerkin bounds of equal-height blocks differ by an ulp of roundoff here
@example(
    u=BlaschkeProduct(1.0, (0.0, 0.0, 0.5, 0.75)),
    phi=BlaschkeQuotient(
        1.0,
        0,
        (
            0.8245049593687673 * np.exp(3.499527559113243j),
            0.2525351310867481 * np.exp(0.3750381433132193j),
        ),
    ),
    n=7,
)
def test_trimmed_symbol_windows_give_the_padded_results(u, phi, n):
    tol = 1e-9
    basis = tm_basis(u, tol)
    for build in (truncated_toeplitz, corner_gram):
        trimmed, padded = build(basis, phi), _padded(build, basis, phi)
        scale = max(1.0, np.abs(padded.entries).max())
        assert np.abs(trimmed.entries - padded.entries).max() <= 1e-13 * scale
        # the bound reads l2 norms of computed images, which the direct and
        # the FFT product round apart by an ulp
        assert abs(trimmed.entry_error - padded.entry_error) <= 4 * EPS * padded.entry_error
    trimmed = galerkin_sweep(u, phi, [n], tol)[0]
    padded = _padded(galerkin_sweep, u, phi, [n], tol)[0]
    assert abs(trimmed.value - padded.value) <= 1e-13
    # a trimmed block may have fewer rows, never a larger bound beyond roundoff
    assert trimmed.entry_error_bound <= (1 + 4 * EPS) * padded.entry_error_bound
    if is_analytic(phi):
        args = (u, phi, tol)
        trimmed = reference.truncated_toeplitz_norm_hankel(*args)
        padded = _padded(reference.truncated_toeplitz_norm_hankel, *args)
        assert abs(trimmed - padded) <= 1e-13 * max(1.0, padded)


@settings(max_examples=40)
@given(phi=_SYMBOLS, n=st.integers(1, 12))
def test_monomial_blocks_read_the_same_entries_from_padded_windows(phi, n):
    # T_phi, H_phi, H_{conj(phi)}^* and S_phi: the padded window adds rows
    # of each kind past the trimmed block's, and every one of them is zero
    tol = 1e-9
    trimmed = _block_by_kind(phi, n, tol)
    padded = _block_by_kind(phi, n, tol, to_window=_padded_symbol_to_window)
    for t, p in zip(trimmed[1:], padded[1:]):
        assert np.array_equal(t, p[: len(t)]) and not p[len(t) :].any()
    assert trimmed[0].entry_error == padded[0].entry_error


@settings(max_examples=25)
@given(u=_INNERS, phi=_LAURENT, n=st.integers(1, 40))
def test_galerkin_block_rows_reach_the_laurent_support(u, phi, n):
    lo, hi = phi.offset, phi.offset + len(phi.coeffs) - 1
    # the square compression, then the rows phi reaches past it, whatever u
    (block,) = dual_truncated_toeplitz(u, phi, [n], 1e-9)
    assert block.shape == (2 * n + max(hi, 0) + max(-lo, 0), 2 * n)


@settings(max_examples=25)
@given(power=st.integers(0, 4), phi=_LAURENT, n=st.integers(1, 20))
# both Hankel blocks reach into the overflow rows
@example(power=0, phi=LaurentPoly(-3, np.arange(1.0, 8.0)), n=1)
def test_dtto_matches_the_reference_rows_of_a_monomial_inner(power, phi, n):
    _check_dtto_against_reference(phi, power, n)


# ---------------------------------------------------------------------------
# whole-stack assembly against an element-by-element reference


def _pairings(fs, gs):
    """P[j, k] = <f_k, g_j>, one pair of single windows at a time."""
    return np.array([[window_inner_product(f, g) for f in fs] for g in gs])


def _per_element_truncated_toeplitz(basis, phi):
    """A_phi and its entry error from one product per element and one
    pairing per pair of elements."""
    w = _symbol_window_for_basis(phi, basis)
    images = [window_multiply(w, e) for e in basis.basis]
    a = _pairings(images, basis.basis)
    max_tail = max(e.tail_bound for e in basis.basis)
    return a, max(img.tail_bound + img.norm() * max_tail for img in images)


def _per_element_corner_gram(basis, phi):
    """The corner Gram and its entry error from per-element images."""
    phi_w = _symbol_window_for_basis(phi, basis)
    ubar_phi = window_multiply(window_conjugate(basis.inner.window(basis.tol)), phi_w)
    t = [project_analytic(window_multiply(ubar_phi, e)) for e in basis.basis]
    h = [project_antianalytic(window_multiply(phi_w, e)) for e in basis.basis]
    g = _pairings(t, t) + _pairings(h, h)
    err = max(
        2.0 * (ti.tail_bound * max(ti.norm(), 1.0) + hi.tail_bound * max(hi.norm(), 1.0))
        for ti, hi in zip(t, h)
    )
    return g, err


# moduli up to 0.985, with a stratum near the top so that long windows, and
# with them the FFT product, come up often
_STACK_ZERO = st.one_of(
    st.builds(_polar, st.floats(0.0, 0.985), _ANGLE),
    st.builds(_polar, st.floats(0.9, 0.985), _ANGLE),
)


@st.composite
def _stack_inners(draw):
    """Zeros of modulus up to 0.985, zeros at 0 among them, some repeated."""
    distinct = draw(st.lists(st.one_of(st.just(0j), _STACK_ZERO), min_size=1, max_size=4))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=5))
    return BlaschkeProduct(1.0, tuple(distinct[i] for i in picks))


@st.composite
def _unimodular_piecewise(draw):
    cuts = sorted(set(draw(st.lists(st.floats(0.1, 2 * np.pi - 0.1), min_size=1, max_size=3))))
    edges = [0.0, *cuts, 2 * np.pi]
    values = draw(st.lists(_ANGLE, min_size=len(edges) - 1, max_size=len(edges) - 1))
    return PiecewiseArcs(tuple((a, b, np.exp(1j * t)) for a, b, t in zip(edges, edges[1:], values)))


_STACK_QUOTIENT = st.builds(
    BlaschkeQuotient,
    st.builds(_polar, st.just(1.0), _ANGLE),
    st.integers(-2, 2),
    st.lists(_STACK_ZERO, max_size=3).map(tuple),
)


_STACK_SYMBOLS = st.one_of(
    _LAURENT, _STACK_QUOTIENT, _STACK_QUOTIENT.map(Conjugate), _unimodular_piecewise()
)
# every product direct: a short basis and a Laurent symbol
_SHORT_CASE = (BlaschkeProduct(1.0, (0.3, 0j, 0.3)), LaurentPoly(-1, [0.5, 1.0, 0.25j]))
# every product by FFT: a long basis and a long two-sided quotient window
_LONG_CASE = (
    BlaschkeProduct(1.0, (0.985, 0j, -0.985j, 0.985)),
    Conjugate(BlaschkeQuotient(1.0, 1, (0.9, 0.95j))),
)


@settings(max_examples=60)
@given(u=_stack_inners(), phi=_STACK_SYMBOLS)
@example(*_SHORT_CASE)
@example(*_LONG_CASE)
# one zero near the circle, phi = 1: equal coefficients, norms summed apart
@example(BlaschkeProduct(1.0, (_polar(0.984375, 3.4453125),)), BlaschkeQuotient(1.0, 0, ()))
def test_stacked_assembly_matches_the_per_element_reference(u, phi):
    tol = 1e-9
    basis = tm_basis(u, tol)
    for build, reference in (
        (truncated_toeplitz, _per_element_truncated_toeplitz),
        (corner_gram, _per_element_corner_gram),
    ):
        stacked = build(basis, phi)
        ref, ref_err = reference(basis, phi)
        scale = max(1.0, np.abs(ref).max())
        assert np.abs(stacked.entries - ref).max() <= 1e-13 * scale
        # the bound reads l2 norms of computed images: sums over rows padded
        # to the stack width, and products at other FFT lengths, round them
        # apart by a few ulps (up to 6 in 800 random draws)
        assert abs(stacked.entry_error - ref_err) <= 16 * EPS * ref_err


def test_the_reference_examples_reach_both_product_paths():
    tol = 1e-9
    u, phi = _SHORT_CASE
    assert tm_basis(u, tol).window_width() <= _DIRECT_PRODUCT_MAX
    u, phi = _LONG_CASE
    long = tm_basis(u, tol)
    phi_w = _symbol_window_for_basis(phi, long)
    assert min(long.window_width(), len(phi_w.coeffs)) > _DIRECT_PRODUCT_MAX


# ---------------------------------------------------------------------------
# the realization (A_z, e(0)) of the Takenaka-Malmquist basis


@st.composite
def _zero_tuples(draw):
    """Zeros of modulus up to 0.99, zeros at 0 among them, some repeated."""
    distinct = draw(
        st.lists(
            st.one_of(st.just(0j), st.builds(_polar, st.floats(0.0, 0.99), _ANGLE)),
            min_size=1,
            max_size=4,
        )
    )
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=6))
    return tuple(distinct[i] for i in picks)


def _product_formula(zeros, z):
    """e_k(z) = s_k / (1 - conj(lam_k) z) * prod_{i<k} b_{lam_i}(z)."""
    values, prod = [], 1.0
    for lam in zeros:
        pole = 1.0 - np.conj(lam) * z
        values.append(np.sqrt(1.0 - abs(lam) ** 2) / pole * prod)
        prod *= (z - lam) / pole
    return np.array(values)


@settings(max_examples=40)
@given(zeros=_zero_tuples())
@example(zeros=(0j, 0j, 0j))
@example(zeros=(0.99, 0.99, 0j, -0.99j, 0.99))
def test_realization_matches_the_window_route_and_the_product_formula(zeros):
    a, e0, _ = takenaka_realization(zeros)
    u = BlaschkeProduct(1.0, zeros)
    basis = tm_basis(u)
    shift = compressed_shift(u)
    assert np.array_equal(shift.entries, a.astype(complex))
    windowed = truncated_toeplitz(basis, Z)
    assert np.abs(shift.entries - windowed.entries).max() <= shift.entry_error + windowed.entry_error
    # e(z) = (I - z conj(A_z))^{-1} e(0), inside the disc and on the circle
    m = np.conj(a.astype(complex))
    for z in (0.0, 0.5, -0.3 + 0.6j, 0.9j, np.exp(0.7j)):
        e = np.linalg.solve(np.eye(len(zeros)) - z * m, e0.astype(complex))
        ref = _product_formula(zeros, z)
        assert np.abs(e - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_compressed_shift_reads_the_realization_and_builds_no_window(monkeypatch):
    def no_window(self):
        raise AssertionError("compressed_shift built a window")

    monkeypatch.setattr(FourierWindow, "__post_init__", no_window)
    # a stated roundoff bound, not 0
    assert 0.0 < compressed_shift(BlaschkeProduct(1.0, (0.5, 0.0, -0.3j, 0.5))).entry_error <= 1e-15


def test_compressed_shift_answers_zeros_the_window_basis_refuses():
    u = BlaschkeProduct(1.0, (0.999999, 0.3))
    with pytest.raises(BudgetError):
        tm_basis(u)
    assert abs(sigma_min(compressed_shift(u)) - abs(u.at_zero())) <= 1e-12


def test_compressed_shift_refuses_a_constant_inner_function():
    with pytest.raises(SymbolClassError, match="nonconstant"):
        compressed_shift(BlaschkeProduct(1j))
