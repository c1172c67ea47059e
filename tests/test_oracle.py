import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dttokit import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    SymbolClassError,
    constant_symbol,
    ess_range,
    inner_symbol,
    normal_dtto_bounds,
    oracle_m_compressed_shift,
    oracle_m_dual_shift,
    oracle_rank_one_spectrum,
    shift_symbol,
    tm_basis,
    truncated_toeplitz_norm_hankel,
)
from dttokit.fourier import (
    _coeffs_over,
    as_blaschke_quotient,
    constant_value,
    delta_window,
    eval_symbol,
    is_analytic,
    is_unimodular,
    symbol_to_window,
    window_add,
    window_conjugate,
)
from dttokit.minmod import sigma_max
from dttokit.operators import truncated_toeplitz
from dttokit.oracle import _oracle_for, is_normal_sufficient_form

from conftest import random_blaschke

STEP = PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0)))
Z = shift_symbol(1)


# ---------------------------------------------------------------------------
# rank-one spectrum and shift formulas


def test_rank_one_spectrum_basic():
    assert oracle_rank_one_spectrum(1.0, -1.0, 0.75) == {1.0 + 0j, 0.25 + 0j}
    assert oracle_rank_one_spectrum(2.0, 0.0, 1.0) == {2.0 + 0j}
    with pytest.raises(ValueError):
        oracle_rank_one_spectrum(1.0, 1.0, 0.0)


def test_rank_one_spectrum_defect_substitution():
    # alpha = 1, beta = -(1 - |u0|^2), |x|^2 = 1 gives {1, |u0|^2}
    u0 = 0.3 * 0.6
    eigs = sorted(oracle_rank_one_spectrum(1.0, -(1.0 - u0**2), 1.0), key=abs)
    assert abs(eigs[0] - u0**2) < 1e-15
    assert eigs[1] == 1.0 + 0j


def test_compressed_shift_oracle():
    assert oracle_m_compressed_shift(BlaschkeProduct(1.0, (0.0, 0.0))) == 0.0
    assert oracle_m_compressed_shift(BlaschkeProduct(1.0, (0.5,))) == 0.5
    assert abs(oracle_m_compressed_shift(BlaschkeProduct(1.0, (0.3, 0.6))) - 0.18) < 1e-15
    with pytest.raises(ValueError):
        oracle_m_compressed_shift(BlaschkeProduct(1.0, ()))


def test_dual_shift_oracle_dichotomy():
    assert oracle_m_dual_shift(BlaschkeProduct(1.0, (0.0, 0.0))) == 0.0
    assert oracle_m_dual_shift(BlaschkeProduct(1.0, (0.5,))) == 0.5
    assert abs(oracle_m_dual_shift(BlaschkeProduct(1.0, (0.3, 0.6))) - 0.18) < 1e-15
    # a zero anywhere at the origin collapses the value
    assert oracle_m_dual_shift(BlaschkeProduct(1.0, (0.5, 0.0))) == 0.0
    with pytest.raises(ValueError):
        oracle_m_dual_shift(BlaschkeProduct(1.0, ()))


# ---------------------------------------------------------------------------
# essential range


def test_ess_range_step_plus_constant():
    model = ess_range(SumConst(STEP, 3j))
    assert model.kind == "finite_set"
    pts = sorted(model.points.tolist(), key=lambda p: p.real)
    assert abs(pts[0] - (-1 + 3j)) < 1e-15
    assert abs(pts[1] - (1 + 3j)) < 1e-15


def test_ess_range_continuous_segment():
    model = ess_range(LaurentPoly(-1, [1.0, 2j, 1.0]))
    assert model.kind == "segment"
    assert abs(model.points[0] - (-2 + 2j)) < 1e-12
    assert abs(model.points[1] - (2 + 2j)) < 1e-12


def test_ess_range_constant_single_point():
    model = ess_range(constant_symbol(2 + 1j))
    assert model.kind == "finite_set"
    assert len(model.points) == 1 and model.points[0] == 2 + 1j


# ---------------------------------------------------------------------------
# distance from 0 to the convex hull of the range (a segment on its line)


def _piecewise(*values):
    n = len(values)
    return PiecewiseArcs(
        tuple((2 * np.pi * k / n, 2 * np.pi * (k + 1) / n, v) for k, v in enumerate(values))
    )


def test_hull_distance_single_point():
    lo, up = normal_dtto_bounds(constant_symbol(3 + 4j))
    assert lo == up and abs(up - 5.0) < 1e-15


def test_hull_distance_symmetric_pair_projection_formula():
    # {-a + c, a + c} with c orthogonal to a: distance is |c|
    for a, c in ((1.0, 3j), (2.0, 1j), (0.5, -2j)):
        lo, up = normal_dtto_bounds(SumConst(_piecewise(-a, a), c))
        assert abs(lo - abs(c)) < 1e-14
        assert abs(up - abs(a + c)) < 1e-14


def test_hull_distance_containing_origin():
    assert normal_dtto_bounds(_piecewise(-1.0, 0.5, 1.0))[0] == 0.0
    assert normal_dtto_bounds(LaurentPoly(-1, [1.0, 0.0, 1.0]))[0] == 0.0


def test_hull_distance_polygon_edge():
    # the nearest point of the hull is an end of the range's segment, a point
    # of the range, so the bounds meet and squeeze m(D_phi) to it although
    # the range is not convex: 1 + 1j of {1 + 1j, 2 + 1j, 1.5 + 1j}, 3 of
    # {3, 4} and 3 + 1j of {3 + 1j, 4 + 1j}
    for phi, m in (
        (_piecewise(1 + 1j, 2 + 1j, 1.5 + 1j), np.sqrt(2)),
        (SumConst(_piecewise(0.0, 1.0, 0.5), 1 + 1j), np.sqrt(2)),
        (_piecewise(3.0, 4.0), 3.0),
        (SumConst(_piecewise(3.0, 4.0), 1j), np.sqrt(10)),
    ):
        lo, up = normal_dtto_bounds(phi)
        assert abs(lo - m) < 1e-14 and abs(up - m) < 1e-14
        assert lo == up


# ---------------------------------------------------------------------------
# normal-symbol bounds


def test_normal_bounds_step_example():
    lo, up = normal_dtto_bounds(SumConst(STEP, 3j))
    assert abs(lo - 3.0) < 1e-12
    assert abs(up - np.sqrt(10.0)) < 1e-12


def test_normal_bounds_continuous_example():
    lo, up = normal_dtto_bounds(LaurentPoly(-1, [1.0, 2j, 1.0]))
    assert lo == up and abs(up - 2.0) < 1e-10


def test_normal_bounds_real_symbol_collapse():
    # strictly positive real symbol: both bounds hit ess inf |phi|
    lo, up = normal_dtto_bounds(LaurentPoly(-1, [1.0, 3.0, 1.0]))
    assert lo == up and abs(up - 1.0) < 1e-9
    # sign-changing real symbol: essential infimum of |phi| is zero
    lo2, up2 = normal_dtto_bounds(LaurentPoly(-1, [1.0, 0.5, 1.0]))
    assert lo2 < 1e-9 and up2 < 0.05 and lo2 == up2


def test_normal_bounds_take_extrema_at_critical_points():
    # 1 + cos(t - pi/512) vanishes between the angles of any 512-point grid
    shift = np.exp(1j * np.pi / 512)
    phi = LaurentPoly(-1, [0.5 * shift, 1.0, 0.5 / shift])
    lo, up = normal_dtto_bounds(phi)
    assert lo == up <= 1e-12
    assert abs(ess_range(phi).points[1] - 2.0) < 1e-12
    # 0.1 + 2 cos t + 0.6 cos 2t = 1.2 c^2 + 2c - 0.5 with c = cos t: range [-4/3, 2.7]
    seg = ess_range(LaurentPoly(-2, [0.3, 1.0, 0.1, 1.0, 0.3])).points
    assert abs(seg[0] + 4.0 / 3.0) < 1e-12 and abs(seg[1] - 2.7) < 1e-12


def test_normal_bounds_ordering_random_offsets(rng):
    for beta in (0.3 + 1j, -2 + 0.25j, 1j):
        lo, up = normal_dtto_bounds(SumConst(STEP, beta))
        assert lo <= up + 1e-15


def test_normal_bounds_rejects_unrecognized_form():
    for phi in (
        BlaschkeQuotient(1.0, 1, (0.5,)),
        Conjugate(SumConst(BlaschkeQuotient(1.0, 1, ()), 2.0)),
        _piecewise(1.0, 1j),
    ):
        assert not is_normal_sufficient_form(phi)
        with pytest.raises(SymbolClassError):
            ess_range(phi)
        with pytest.raises(SymbolClassError):
            normal_dtto_bounds(phi)


@pytest.mark.parametrize("bad", ["z", Conjugate(3), SumConst("z", 1.0)], ids=repr)
def test_every_symbol_reader_refuses_a_non_symbol(bad):
    for read in (
        constant_value,
        is_unimodular,
        is_analytic,
        as_blaschke_quotient,
        lambda phi: eval_symbol(phi, 1.0),
        lambda phi: symbol_to_window(phi, -2, 2, 1e-12),
        is_normal_sufficient_form,
        ess_range,
    ):
        with pytest.raises(TypeError, match="not a symbol"):
            read(bad)


def test_normal_form_recognition():
    assert is_normal_sufficient_form(SumConst(STEP, 3j))
    assert is_normal_sufficient_form(LaurentPoly(-1, [1.0, 2j, 1.0]))
    assert is_normal_sufficient_form(constant_symbol(5j))
    assert is_normal_sufficient_form(Conjugate(LaurentPoly(-1, [1.0, 2j, 1.0])))
    assert is_normal_sufficient_form(SumConst(Conjugate(SumConst(STEP, 1j)), 2.0))
    assert not is_normal_sufficient_form(LaurentPoly(-1, [1.0, 0.0, 2.0]))
    assert not is_normal_sufficient_form(BlaschkeQuotient(1.0, 1, (0.5,)))


# ---------------------------------------------------------------------------
# Hankel (Nehari) norm route


def test_nehari_vanishes_on_multiples_of_u(rng):
    u = random_blaschke(rng, max_degree=3, max_modulus=0.8)
    assert truncated_toeplitz_norm_hankel(u, inner_symbol(u)) == 0.0
    lifted = BlaschkeQuotient(u.unimodular_constant, 1, u.zeros)
    assert truncated_toeplitz_norm_hankel(u, lifted) == 0.0
    # wrappers that fold away leave the certificate exact
    for wrapped in (Conjugate(Conjugate(lifted)), SumConst(SumConst(lifted, 1j), -1j)):
        assert truncated_toeplitz_norm_hankel(u, wrapped) == 0.0
    assert truncated_toeplitz_norm_hankel(BlaschkeProduct(1.0, (0.0, 0.0)), shift_symbol(3)) == 0.0


def test_nehari_shift_dim_one_matches_modulus():
    u = BlaschkeProduct(1.0, (0.5,))
    val = truncated_toeplitz_norm_hankel(u, Z)
    assert abs(val - 0.5) < 1e-10


def test_nehari_agrees_with_truncated_toeplitz_norm(rng):
    cases = []
    for _ in range(5):
        u = random_blaschke(rng, max_degree=4, max_modulus=0.75)
        deg = int(rng.integers(1, 4))
        coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
        cases.append((u, LaurentPoly(0, coeffs)))
    # zeros near the circle, which a fixed 64 x 64 Hankel missed by up to 1.3e-3
    for _ in range(8):
        d = int(rng.integers(1, 5))
        r = rng.uniform(0.7, 0.95, d)
        u = BlaschkeProduct(1.0, tuple(r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, d))))
        cases.append((u, LaurentPoly(0, rng.standard_normal(3) + 1j * rng.standard_normal(3))))
    for u, phi in cases:
        direct = sigma_max(truncated_toeplitz(tm_basis(u), phi))
        # the Hankel holds all of conj(u) phi: only roundoff separates the routes
        assert abs(truncated_toeplitz_norm_hankel(u, phi) - direct) <= 1e-12


def test_nehari_rejects_non_analytic():
    u = BlaschkeProduct(1.0, (0.5,))
    with pytest.raises(SymbolClassError):
        truncated_toeplitz_norm_hankel(u, LaurentPoly(-1, [1.0]))


# ---------------------------------------------------------------------------
# constant-symbol oracle


def test_constant_symbol_oracle():
    # a constant's oracle is |c|, the value the constant route reports
    assert _oracle_for(None, constant_symbol(1j)) == 1.0
    assert _oracle_for(None, BlaschkeQuotient(-1j, 0, ())) == 1.0
    assert _oracle_for(None, constant_symbol(2.0)) == 2.0
    assert _oracle_for(None, Z) is None
    assert _oracle_for(None, BlaschkeQuotient(1.0, 0, (0.3,))) is None


# ---------------------------------------------------------------------------
# property: conjugations and added constants fold away at any depth

_reals = st.floats(-3.0, 3.0, allow_nan=False)
_complexes = st.builds(complex, _reals, _reals)
# quarter-integers add exactly in any order, so a sum of them is 0 exactly
# when it is 0 on paper
_dyadics = st.integers(-12, 12).map(lambda k: k / 4)
_dyadic_complexes = st.builds(complex, _dyadics, _dyadics)


@st.composite
def _real_cores(draw):
    """A real Laurent polynomial, a real piecewise symbol with arc endpoints
    at 0 and pi, or a constant."""
    kind = draw(st.sampled_from(("laurent", "piecewise", "constant")))
    if kind == "laurent":
        n = draw(st.integers(1, 3))
        pos = [draw(_complexes) for _ in range(n)]
        coeffs = [np.conj(c) for c in pos[::-1]] + [draw(_reals)] + pos
        return LaurentPoly(-n, coeffs)
    if kind == "piecewise":
        return PiecewiseArcs(((0.0, np.pi, draw(_reals)), (np.pi, 2 * np.pi, draw(_reals))))
    return constant_symbol(draw(_complexes))


_units = st.sampled_from((1.0, -1.0, 1j, -1j, np.exp(0.7j)))
_disc_points = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7))


@st.composite
def _cores(draw):
    """Any core class: the real cores, Blaschke quotients with or without
    zeros, zero-padded monomials, and complex piecewise symbols."""
    kind = draw(st.sampled_from(("real", "quotient", "monomial", "piecewise")))
    if kind == "real":
        return draw(_real_cores())
    if kind == "quotient":
        zeros = draw(st.lists(_disc_points, max_size=2))
        return BlaschkeQuotient(draw(_units), draw(st.integers(-2, 2)), tuple(zeros))
    if kind == "monomial":
        c = draw(st.one_of(_units, st.sampled_from((0.5, 2j, 0.0))))
        return LaurentPoly(draw(st.integers(-3, 1)), [0.0, c, 0.0])
    values = st.one_of(_units, _dyadic_complexes)
    return PiecewiseArcs(((0.0, np.pi, draw(values)), (np.pi, 2 * np.pi, draw(values))))


def _wrapper_lists(constants):
    """Wrapper lists, innermost first: None is a conjugation, a number an
    added constant.  Some constants come in pairs that cancel exactly,
    next to each other or across a conjugation."""
    move = st.one_of(
        st.just([None]),
        constants.map(lambda w: [w]),
        constants.map(lambda w: [w, -w]),
        constants.map(lambda w: [w, None, -w.conjugate()]),
    )
    return st.lists(move, max_size=4).map(lambda moves: [w for m in moves for w in m])


_wrappers = _wrapper_lists(_complexes)


def _wrap(core, wrappers):
    """Apply wrappers innermost first: None is Conjugate, a number is SumConst."""
    phi = core
    for w in wrappers:
        phi = Conjugate(phi) if w is None else SumConst(phi, w)
    return phi


def _conj_by_hand(core):
    """conj(core) as a core where the class allows; conj(b_lam) is not a
    Blaschke quotient, so a quotient with zeros keeps one Conjugate."""
    if isinstance(core, LaurentPoly):
        return LaurentPoly(-(core.offset + len(core.coeffs) - 1), np.conj(core.coeffs[::-1]))
    if isinstance(core, BlaschkeQuotient):
        if core.zeros:
            return Conjugate(core)
        return BlaschkeQuotient(np.conj(core.constant), -core.z_power, ())
    return PiecewiseArcs(tuple((t0, t1, np.conj(v)) for t0, t1, v in core.arcs))


def _fold_by_hand(core, wrappers):
    """The same symbol with every conjugation applied to the core and one
    outer SumConst, folded inside out; the SumConst is left off when the
    constants cancel."""
    c, odd = 0.0 + 0.0j, False
    for w in wrappers:
        if w is None:
            odd, c = not odd, c.conjugate()
        else:
            c += w
    if odd:
        core = _conj_by_hand(core)
    return core if c == 0 else SumConst(core, c)


@settings(max_examples=150)
@given(_real_cores(), _wrappers)
def test_wrapped_normal_forms_fold_to_the_same_bounds(core, wrappers):
    phi = _wrap(core, wrappers)
    assert is_normal_sufficient_form(phi)
    assert ess_range(phi).kind in ("finite_set", "segment")
    lo, up = normal_dtto_bounds(phi)
    assert lo <= up
    lo2, up2 = normal_dtto_bounds(_fold_by_hand(core, wrappers))
    assert abs(lo - lo2) <= 1e-12 and abs(up - up2) <= 1e-12
    assert (lo == up) == (lo2 == up2)


_U_ORACLE = BlaschkeProduct(1.0, (0.5, 0.2j))


@settings(max_examples=400)
@given(_cores(), _wrapper_lists(_dyadic_complexes))
def test_every_structural_predicate_sees_through_the_wrappers(core, wrappers):
    nested, folded = _wrap(core, wrappers), _fold_by_hand(core, wrappers)
    for predicate in (
        constant_value,
        is_unimodular,
        is_analytic,
        as_blaschke_quotient,
        is_normal_sufficient_form,
    ):
        assert predicate(nested) == predicate(folded), predicate.__name__
    assert _oracle_for(_U_ORACLE, nested) == _oracle_for(_U_ORACLE, folded)


@settings(max_examples=50)
@given(st.lists(st.sampled_from((None, 0.0)), max_size=8))
def test_shifted_cosine_is_exact_under_any_nesting(wrappers):
    shift = np.exp(1j * np.pi / 512)
    phi = _wrap(LaurentPoly(-1, [0.5 * shift, 1.0, 0.5 / shift]), wrappers)
    lo, up = normal_dtto_bounds(phi)
    assert lo == up <= 1e-12


@st.composite
def _window_cores(draw):
    """A complex Laurent polynomial, a complex piecewise symbol on three
    arcs, or a Blaschke quotient with at least one zero."""
    kind = draw(st.sampled_from(("laurent", "piecewise", "quotient")))
    if kind == "laurent":
        coeffs = draw(st.lists(_complexes, min_size=1, max_size=5))
        return LaurentPoly(draw(st.integers(-4, 3)), coeffs)
    if kind == "piecewise":
        values = [draw(_complexes) for _ in range(3)]
        return PiecewiseArcs(tuple(zip((0.0, 2.0, np.pi), (2.0, np.pi, 2 * np.pi), values)))
    zeros = draw(st.lists(_disc_points, min_size=1, max_size=2))
    return BlaschkeQuotient(draw(_units), draw(st.integers(-2, 2)), tuple(zeros))


_WINDOW_TOL = 1e-12
_HALF_WIDTH = 24


def _holds_its_support(offset, coeffs) -> bool:
    """Both edge coefficients are nonzero, or the block is the zero
    symbol's single coefficient at index 0."""
    if not np.any(coeffs):
        return offset == 0 and len(coeffs) == 1
    return coeffs[0] != 0 and coeffs[-1] != 0


def _window_by_hand(core, wrappers):
    """Window of the wrapped symbol from the core's own window, with each
    wrapper applied by the window primitives, innermost first."""
    w = symbol_to_window(core, -_HALF_WIDTH, _HALF_WIDTH, _WINDOW_TOL)
    for x in wrappers:
        w = window_conjugate(w) if x is None else window_add(w, delta_window(0, x))
    return w


def _value_by_hand(core, wrappers, theta):
    v = eval_symbol(core, theta)
    for x in wrappers:
        v = v.conjugate() if x is None else v + x
    return v


@settings(max_examples=200)
@given(
    _window_cores(),
    _wrappers,
    st.floats(0.1, 1.9),
    st.sampled_from((0.0, 2.0, np.pi)),
)
# the product of the zeros underflows: the window is [0, -4e-205j, 1]
@example(BlaschkeQuotient(1.0, 0, (2e-205j, 2e-205j)), [], 0.1, 0.0)
def test_nested_windows_and_values_match_the_hand_folded_symbol(core, wrappers, t, arc_start):
    nested = _wrap(core, wrappers)
    scale = 1.0 + sum(abs(x) for x in wrappers if x is not None)
    w = symbol_to_window(nested, -_HALF_WIDTH, _HALF_WIDTH, _WINDOW_TOL)
    ref = _window_by_hand(core, wrappers)
    if isinstance(core, PiecewiseArcs):
        assert (w.lo, w.hi) == (-_HALF_WIDTH, _HALF_WIDTH)
    else:
        outside = [n for n in range(-_HALF_WIDTH, _HALF_WIDTH + 1) if not w.lo <= n <= w.hi]
        assert all(w.coeff_at(n) == 0 for n in outside)
        # a product of zeros below about 1e-154 underflows to a zero edge
        if all(z == 0 or abs(z) > 1e-100 for z in getattr(core, "zeros", ())):
            assert _holds_its_support(w.offset, w.coeffs)
    lo, hi = min(w.lo, ref.lo), max(w.hi, ref.hi)
    gap = np.abs(_coeffs_over(w, lo, hi) - _coeffs_over(ref, lo, hi)).max()
    assert gap <= 1e-14 * scale
    assert abs(w.tail_bound - ref.tail_bound) <= 1e-14 * scale * (1.0 + ref.tail_bound)
    # an angle strictly inside one of the piecewise arcs (0, 2), (2, pi), (pi, 2pi)
    theta = arc_start + t * (0.5 if arc_start == 2.0 else 1.0)
    assert abs(eval_symbol(nested, theta) - _value_by_hand(core, wrappers, theta)) <= 1e-14 * scale


# quarter-integer zeros and constants, so that an added constant can cancel
# a quotient's coefficient at index 0 exactly (and no product underflows)
_dyadic_disc_points = st.builds(complex, *[st.integers(-2, 2).map(lambda k: k / 4)] * 2)


@st.composite
def _rational_symbols(draw):
    """A Laurent polynomial with zeros anywhere among its coefficients, or
    a Blaschke quotient, under any wrappers with dyadic constants."""
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.one_of(st.just(0j), _dyadic_complexes), min_size=1, max_size=6))
        core = LaurentPoly(draw(st.integers(-4, 3)), coeffs)
    else:
        zeros = draw(st.lists(_dyadic_disc_points, max_size=3))
        core = BlaschkeQuotient(draw(_units), draw(st.integers(-2, 2)), tuple(zeros))
    return _wrap(core, draw(_wrapper_lists(_dyadic_complexes)))


@settings(max_examples=300)
@given(_rational_symbols())
@example(SumConst(BlaschkeQuotient(1.0, 0, (0.5,)), 0.5))
@example(Conjugate(SumConst(BlaschkeQuotient(1.0, 0, (0.5, -0.5)), 0.25)))
def test_rational_symbols_and_their_windows_hold_their_support(phi):
    core = phi
    while isinstance(core, (Conjugate, SumConst)):
        core = core.of if isinstance(core, Conjugate) else core.term
    if isinstance(core, LaurentPoly):
        assert _holds_its_support(core.offset, core.coeffs)
    w = symbol_to_window(phi, -_HALF_WIDTH, _HALF_WIDTH, _WINDOW_TOL)
    assert _holds_its_support(w.offset, w.coeffs)


@settings(max_examples=100)
@given(
    st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=2),
    _wrappers,
)
def test_nested_piecewise_with_values_on_the_circle_is_unimodular(angles, wrappers):
    # undo the wrappers on the target values, outermost first, so the
    # nested symbol takes the values e^{i angle} on its two arcs
    values = []
    for a in angles:
        v = complex(np.exp(1j * a))
        for x in reversed(wrappers):
            v = v.conjugate() if x is None else v - x
        values.append(v)
    core = PiecewiseArcs(((0.0, np.pi, values[0]), (np.pi, 2 * np.pi, values[1])))
    assert is_unimodular(_wrap(core, wrappers))
