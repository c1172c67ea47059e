import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dttokit import (
    BlaschkeProduct,
    BlaschkeQuotient,
    Conjugate,
    LaurentPoly,
    PiecewiseArcs,
    SumConst,
    conjugated,
    constant_symbol,
    shift_symbol,
)
from dttokit.fourier import (
    _DIRECT_PRODUCT_MAX,
    _FFT_TABLE_MAX,
    _MAX_WINDOW_WIDTH,
    FourierWindow,
    _coeffs_over,
    _fft_length,
    _takenaka_windows,
    delta_window,
    eval_symbol,
    is_analytic,
    is_unimodular,
    project_analytic,
    project_antianalytic,
    symbol_to_window,
    window_conjugate,
    window_inner_product,
    window_multiply,
    window_scale,
    window_shift,
)

from conftest import random_blaschke, random_quotient
from reference import _geometric_powers, blaschke_factor_coeffs, eval_window, geometric_window, window_sub

STEP = PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0)))


# ---------------------------------------------------------------------------
# blaschke_factor_coeffs


def test_blaschke_factor_origin_is_plain_shift():
    w = blaschke_factor_coeffs(0.0, 4)
    assert w.offset == 1
    assert np.array_equal(w.coeffs, [1.0 + 0.0j])
    assert w.tail_bound == 0.0


def test_blaschke_factor_half_matches_termwise_product():
    # oracle: multiply (z - 0.5) into the geometric series sum 0.5^n z^n
    geom = [0.5**n for n in range(40)]
    oracle = [-0.5 * geom[0]] + [geom[n - 1] - 0.5 * geom[n] for n in range(1, 40)]
    w = blaschke_factor_coeffs(0.5, 3)
    assert np.allclose(w.coeffs, oracle[:4], atol=1e-15)
    assert np.allclose(w.coeffs, [-0.5, 0.75, 0.375, 0.1875], atol=1e-15)


def test_blaschke_factor_rejects_boundary_zero():
    with pytest.raises(ValueError):
        blaschke_factor_coeffs(1.0, 5)
    with pytest.raises(ValueError):
        blaschke_factor_coeffs(0.3 + 1.0j, 5)


def test_blaschke_factor_tail_certifies_next_block():
    # l2 mass of indices (n_max, 2 n_max] must sit below the reported tail
    for lam in (0.3, 0.7, 0.55 - 0.4j):
        n_max = 12
        short = blaschke_factor_coeffs(lam, n_max)
        long = blaschke_factor_coeffs(lam, 2 * n_max)
        mass = np.linalg.norm(long.coeffs[n_max + 1 :])
        assert mass <= short.tail_bound


_RING_0985 = tuple(0.985 * np.exp(2j * np.pi * k / 8) for k in range(8))


@pytest.mark.parametrize(
    "zeros",
    [(0j,), (0j, 0.5, 0j), (0.6, 0.6, 0.6j), (0.99, -0.4 + 0.3j), (0.99j, 0.99j, 0.3), _RING_0985],
)
def test_takenaka_recurrence_matches_the_factor_chain(zeros):
    # reference: e_k = s_k g_k p_k and p_{k+1} = p_k b_k, every factor cut
    # four times further out than the widest window, so the chain omits
    # far less than tol; every window must lie within its own tail of it
    tol = 1e-9
    stack, p = _takenaka_windows(zeros, tol)
    elements = stack.rows()
    # the stack holds each element's window and zeros past it, out to the widest
    assert stack.lo == 0 and stack.hi == max(e.hi for e in elements)
    for row, e in zip(stack.coeffs, elements):
        assert np.array_equal(row, _coeffs_over(e, 0, stack.hi))
    n = 4 * max(w.hi for w in elements + (p,)) + 8

    def within_tail(w, ref):
        assert 0 <= w.lo and w.coeffs[0] != 0 and w.coeffs[-1] != 0
        assert w.tail_bound <= tol
        gap = np.linalg.norm(_coeffs_over(ref, 0, ref.hi) - _coeffs_over(w, 0, ref.hi))
        # the in-window coefficients carry roundoff the tails do not count
        assert gap <= w.tail_bound + ref.tail_bound + 1e-15

    ref = delta_window(0)
    for lam, e in zip(zeros, elements):
        s = np.sqrt(1 - abs(lam) ** 2)
        within_tail(e, window_scale(window_multiply(geometric_window(lam, n), ref), s))
        ref = window_multiply(ref, blaschke_factor_coeffs(lam, n))
    within_tail(p, ref)
    # zeros at 0 ahead of an element shift its support, not its values
    assert [e.lo for e in elements] == [sum(z == 0 for z in zeros[:k]) for k in range(len(zeros))]
    assert p.lo == sum(z == 0 for z in zeros)


_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(float).eps


@pytest.mark.skipif(not _EXTENDED, reason="long double is no wider than double here")
@settings(max_examples=80)
@given(
    r=st.floats(0.0, 0.9995),
    theta=st.floats(0.0, 2 * np.pi),
    n=st.integers(1, 4000),
)
def test_doubled_powers_track_a_long_double_reference(r, theta, n):
    a = complex(r * np.cos(theta), r * np.sin(theta))
    ref = np.cumprod(np.concatenate([[1.0], np.full(n - 1, a)]).astype(np.clongdouble))
    normal = np.abs(ref) > 1e-280  # underflow costs both schemes their relative accuracy

    def rel_error(v):
        if not normal.any():
            return 0.0
        return float(np.max(np.abs(v[normal] - ref[normal]) / np.abs(ref[normal])))

    eps = np.finfo(float).eps
    doubled = _geometric_powers(a, n)
    assert doubled[0] == 1.0
    err = rel_error(doubled)
    assert err <= n * eps
    # over a few dozen terms both sit at one or two roundings, where
    # either scheme may lead by a fraction of an ulp
    assert err <= max(rel_error(a ** np.arange(n)), 2.0 * eps)


@pytest.mark.parametrize("lam,n", [(0.5, 3), (0.3 - 0.6j, 40), (0.985 * np.exp(0.3j), 1200)])
def test_geometric_coefficients_are_the_doubled_powers_with_unchanged_tails(lam, n):
    r = abs(lam)
    powers = _geometric_powers(np.conj(lam), n + 1)
    geom = geometric_window(lam, n)
    assert np.array_equal(geom.coeffs, powers)
    assert geom.tail_bound == float(r ** (n + 1) / np.sqrt(1.0 - r * r))
    factor = blaschke_factor_coeffs(lam, n)
    assert factor.coeffs[0] == -lam
    assert np.array_equal(factor.coeffs[1:], (1.0 - r * r) * powers[:-1])
    assert factor.tail_bound == float((1.0 - r * r) * r**n / np.sqrt(1.0 - r * r))


def test_quotient_conjugate_matches_two_sided_expansion():
    # conj(zbar b_a) = -a z + (1 - a^2) + (1 - a^2) sum_k a^k zbar^k
    alpha = 0.5
    w = symbol_to_window(Conjugate(BlaschkeQuotient(1.0, -1, (alpha,))), -10, 10, 1e-13)
    assert abs(w.coeff_at(1) - (-alpha)) < 1e-14
    assert abs(w.coeff_at(0) - (1 - alpha**2)) < 1e-14
    for k in range(1, 10):
        assert abs(w.coeff_at(-k) - (1 - alpha**2) * alpha**k) < 1e-13


# ---------------------------------------------------------------------------
# symbol_to_window


def test_monomial_window_is_exact_delta():
    w = symbol_to_window(shift_symbol(1), -2, 2, 1e-12)
    assert w.tail_bound == 0.0
    assert w.coeff_at(1) == 1.0
    assert all(w.coeff_at(n) == 0.0 for n in (-2, -1, 0, 2))


def test_quotient_window_two_sided_coefficients():
    alpha = 0.5
    w = symbol_to_window(BlaschkeQuotient(1.0, -1, (alpha,)), -6, 6, 1e-12)
    # the window starts at the quotient's lowest index, not at the requested -6
    assert w.lo == -1 and w.hi >= 6
    assert all(w.coeff_at(n) == 0 for n in range(-6, -1))
    assert w.coeffs[0] != 0 and w.coeffs[-1] != 0
    assert abs(w.coeff_at(-1) + alpha) < 1e-15
    assert abs(w.coeff_at(0) - (1 - alpha**2)) < 1e-15
    for k in range(1, 6):
        assert abs(w.coeff_at(k) - (1 - alpha**2) * alpha**k) < 1e-14
    assert w.tail_bound <= 1e-12


def _simpson(f_vals, ts):
    h = ts[1] - ts[0]
    weights = np.ones(len(ts))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * np.sum(weights * f_vals)


def test_step_window_against_arcwise_quadrature():
    # oracle: Simpson quadrature of each (smooth) arc separately
    w = symbol_to_window(STEP, -9, 9, 1.0)
    for n in range(-7, 8):
        quad = 0.0 + 0.0j
        for t0, t1, v in STEP.arcs:
            ts = np.linspace(t0, t1, 4097)
            quad += _simpson(v * np.exp(-1j * n * ts), ts) / (2 * np.pi)
        assert abs(w.coeff_at(n) - quad) < 1e-10
    assert abs(w.coeff_at(0)) < 1e-15
    assert abs(w.coeff_at(3) - 2.0 / (1j * np.pi * 3)) < 1e-14


def test_symbol_window_rejects_bad_inputs():
    with pytest.raises(ValueError):
        symbol_to_window(shift_symbol(1), 3, 2, 1e-9)
    with pytest.raises(ValueError):
        symbol_to_window(shift_symbol(1), -2, 2, 0.0)
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            symbol_to_window(shift_symbol(1), -2, 2, tol)


# ---------------------------------------------------------------------------
# window algebra


def test_multiply_shift_against_its_conjugate():
    prod = window_multiply(delta_window(1), delta_window(-1))
    assert prod.coeff_at(0) == 1.0
    assert prod.norm() == 1.0


def test_multiply_reproduces_blaschke_factor():
    lam = 0.5
    prod = window_multiply(
        window_sub(delta_window(1), delta_window(0, lam)), geometric_window(lam, 50)
    )
    ref = blaschke_factor_coeffs(lam, 40)
    for n in range(30):
        assert abs(prod.coeff_at(n) - ref.coeff_at(n)) < 1e-13


def test_multiply_by_monomial_shifts_indices():
    f = blaschke_factor_coeffs(0.4, 10)
    shifted = window_multiply(delta_window(2), f)
    assert shifted.offset == f.offset + 2
    assert np.array_equal(shifted.coeffs, f.coeffs)


def _random_window(seed, length, offset, tail):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return FourierWindow(offset, coeffs * rng.uniform(0.1, 10.0), tail)


def _check_product_frame(f, g, prod):
    assert prod.offset == f.offset + g.offset
    assert len(prod.coeffs) == len(f.coeffs) + len(g.coeffs) - 1
    tail = f.norm() * g.tail_bound + g.norm() * f.tail_bound + f.tail_bound * g.tail_bound
    assert prod.tail_bound == tail


_offsets = st.integers(-50, 50)
_tails = st.sampled_from((0.0, 1e-12, 0.25))


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, _DIRECT_PRODUCT_MAX),
    st.integers(1, 700),
    _offsets,
    _offsets,
    _tails,
    _tails,
    st.booleans(),
)
def test_multiply_short_factor_is_direct_convolution(seed, m, n, lo_f, lo_g, tf, tg, swap):
    f = _random_window(seed, m, lo_f, tf)
    g = _random_window(seed + 1, n, lo_g, tg)
    if swap:
        f, g = g, f
    prod = window_multiply(f, g)
    assert prod.coeffs.tobytes() == np.convolve(f.coeffs, g.coeffs).tobytes()
    _check_product_frame(f, g, prod)


@settings(max_examples=40)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(_DIRECT_PRODUCT_MAX + 1, 1500),
    st.integers(_DIRECT_PRODUCT_MAX + 1, 1500),
    _offsets,
    _offsets,
    _tails,
    _tails,
)
def test_multiply_long_factors_match_extended_precision(seed, m, n, lo_f, lo_g, tf, tg):
    # reference: the direct Cauchy product in long double; the FFT error is
    # normwise, O(eps log2 L) times the mixed l1/l2 norms of the factors
    f = _random_window(seed, m, lo_f, tf)
    g = _random_window(seed + 1, n, lo_g, tg)
    prod = window_multiply(f, g)
    ref = np.convolve(f.coeffs.astype(np.clongdouble), g.coeffs.astype(np.clongdouble))
    err = float(np.max(np.abs(prod.coeffs.astype(np.clongdouble) - ref)))
    l1f, l1g = np.abs(f.coeffs).sum(), np.abs(g.coeffs).sum()
    bound = 64 * np.finfo(float).eps * np.log2(_fft_length(m + n - 1)) * (
        l1f * g.norm() + f.norm() * l1g
    )
    assert err <= bound
    _check_product_frame(f, g, prod)


def test_multiply_exact_windows_stay_exact_beside_long_factors():
    # deltas and monomial windows take the direct path beside any factor
    exact = FourierWindow(-3, geometric_window(0.3 - 0.4j, 5 * _DIRECT_PRODUCT_MAX).coeffs, 0.0)
    monomial = symbol_to_window(shift_symbol(3), -2, 4, 1e-12)
    cases = ((delta_window(2), 2, 1.0), (delta_window(-7, 0.5 - 2j), -7, 0.5 - 2j), (monomial, 3, 1.0))
    for short, power, c in cases:
        for f, g in ((short, exact), (exact, short)):
            prod = window_multiply(f, g)
            assert prod.tail_bound == 0.0
            shifted = [prod.coeff_at(n + power) for n in range(exact.lo, exact.hi + 1)]
            assert np.array_equal(shifted, c * exact.coeffs)


def _random_stack(seed, rows, length, offset):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((rows, length)) + 1j * rng.standard_normal((rows, length))
    return FourierWindow(offset, coeffs, rng.uniform(0.0, 1e-3, rows))


def _pairings(fs, gs):
    """P[j, k] = <f_k, g_j>, one pair of single windows at a time."""
    return np.array([[window_inner_product(f, g) for f in fs] for g in gs])


@pytest.mark.parametrize("m", [3, _DIRECT_PRODUCT_MAX + 50])
def test_stack_products_and_pairings_are_those_of_their_rows(m):
    stack = _random_stack(7, 4, 300, -20)
    f = _random_window(8, m, 5, 1e-6)
    rows = stack.rows()
    assert [(w.lo, w.hi) for w in rows] == [(-20, 279)] * 4
    for prod in (window_multiply(f, stack), window_multiply(stack, f)):
        assert prod.coeffs.shape == (4, 300 + m - 1) and prod.tail_bound.shape == (4,)
        for row, tail, w in zip(prod.coeffs, prod.tail_bound, rows):
            ref = window_multiply(f, w)
            assert prod.lo == ref.lo and prod.hi == ref.hi
            if m <= _DIRECT_PRODUCT_MAX:  # row by row, the same convolution
                assert np.array_equal(row, ref.coeffs)
            else:
                assert np.abs(row - ref.coeffs).max() <= 1e-12 * np.abs(ref.coeffs).max()
            # the row norms are summed in another order
            assert tail == pytest.approx(ref.tail_bound, rel=1e-14)
    # P[j, k] = <f_k, g_j>, whatever mix of stacks and single windows
    ref = _pairings(rows, rows)
    assert np.abs(window_inner_product(stack, stack) - ref).max() <= 1e-12
    assert np.abs(window_inner_product(f, stack) - _pairings([f], rows)[:, 0]).max() <= 1e-12
    assert np.abs(window_inner_product(stack, f) - _pairings(rows, [f])[0]).max() <= 1e-12
    assert np.abs(stack.gram - ref).max() <= 1e-12
    assert not stack.gram.flags.writeable


def test_stack_projections_keep_the_tails_and_copy_the_kept_block():
    stack = _random_stack(9, 3, 50, -20)
    pos, neg = project_analytic(stack), project_antianalytic(stack)
    assert (pos.lo, pos.hi, neg.lo, neg.hi) == (0, 29, -20, -1)
    assert np.array_equal(pos.coeffs, stack.coeffs[:, 20:])
    assert np.array_equal(neg.coeffs, stack.coeffs[:, :20])
    for part in (pos, neg):
        assert np.array_equal(part.tail_bound, stack.tail_bound)
        assert not np.shares_memory(part.coeffs, stack.coeffs)
    # nothing on the kept side: one zero coefficient per row, as for a window
    right = FourierWindow(3, stack.coeffs, stack.tail_bound)
    empty = project_antianalytic(right)
    assert (empty.lo, empty.coeffs.shape) == (-1, (3, 1)) and not empty.coeffs.any()
    assert project_analytic(right).coeffs.shape == (3, 50)


def test_stack_invariants_and_rows():
    coeffs = np.zeros((3, 5), dtype=complex)
    coeffs[0, 1:3] = (1.0, 2.0j)
    coeffs[1, 4] = -1.0
    stack = FourierWindow(-2, coeffs, [0.0, 1e-3, 0.5])
    assert (stack.lo, stack.hi) == (-2, 2)
    assert np.array_equal(stack.norm(), [np.sqrt(5.0), 1.0, 0.0])
    rows = stack.rows()
    assert [(w.lo, w.hi, w.tail_bound) for w in rows] == [(-1, 0, 0.0), (2, 2, 1e-3), (-2, -2, 0.5)]
    assert not rows[2].coeffs.any()
    assert not stack.coeffs.flags.writeable and not stack.tail_bound.flags.writeable
    # conj(f) mirrors the indices of every row, not the order of the rows
    conj = window_conjugate(stack)
    assert conj.lo == -2 and np.array_equal(conj.coeffs, np.conj(coeffs[:, ::-1]))
    for bad_coeffs, bad_tails in (
        (np.ones((2, 0)), [0.0, 0.0]),
        (np.ones((2, 3)), [0.0, -1.0]),
        (np.ones((2, 3)), [0.0, np.nan]),
        (np.ones((2, 3)), [np.inf, 0.0]),
    ):
        with pytest.raises(ValueError):
            FourierWindow(0, bad_coeffs, bad_tails)


def test_single_window_readers_refuse_a_stack():
    stack = FourierWindow(0, np.eye(2), [0.0, 0.0])
    with pytest.raises(ValueError, match="eval_window takes one window"):
        eval_window(stack, 0.5)
    with pytest.raises(ValueError, match="coeff_at takes one window"):
        stack.coeff_at(0)
    # each row still answers on its own
    assert [eval_window(w, 0.5) for w in stack.rows()] == [1.0, 0.5]
    assert [w.coeff_at(0) for w in stack.rows()] == [1.0, 0.0]


def test_window_tail_shape_must_match_the_rows():
    for bad_coeffs, bad_tails in (
        (np.ones(4), [0.0]),
        (np.ones((2, 3)), [0.0]),
        (np.ones((2, 3)), 0.0),
        (np.ones((2, 3)), [0.0, 0.0, 0.0]),
        (np.ones((1, 2, 3)), [[0.0, 0.0]]),
    ):
        with pytest.raises(ValueError, match="one tail per row"):
            FourierWindow(0, bad_coeffs, bad_tails)


def test_window_wraps_its_coefficients_without_a_copy():
    for coeffs, tail in ((np.arange(4.0) + 1j, 0.1), (np.ones((2, 3), dtype=complex), [0.0, 0.1])):
        w = FourierWindow(-1, coeffs, tail)
        assert np.shares_memory(w.coeffs, coeffs)
        # the view is read-only, the caller's array is left as it was
        assert not w.coeffs.flags.writeable and coeffs.flags.writeable


def _owner(a):
    """The array that owns the memory a views."""
    while a.base is not None:
        a = a.base
    return a


def test_kept_windows_own_their_coefficients():
    elements, p = _takenaka_windows((0.9, 0j, -0.5j, 0.9), 1e-10)
    # copies cut from the doubling stack, which is not kept alive
    assert not np.shares_memory(p.coeffs, elements.coeffs)
    for w in (p, elements):
        assert _owner(w.coeffs).nbytes == w.coeffs.nbytes
    for f in (_random_window(3, 40, -10, 0.0), _random_stack(4, 3, 40, -10)):
        for part in (project_analytic(f), project_antianalytic(f)):
            assert not np.shares_memory(part.coeffs, f.coeffs)
            assert _owner(part.coeffs).nbytes == part.coeffs.nbytes


def test_fft_length_is_smallest_5_smooth_at_least_n():
    limit = 5000
    smooth = [k for k in range(1, 2 * limit) if _is_5_smooth(k)]
    for n in range(1, limit + 1):
        assert _fft_length(n) == next(k for k in smooth if k >= n)


def test_fft_length_table_covers_every_admitted_product():
    # the longest admitted product, conj(u) phi e_k: u and e_k of at most
    # _MAX_WINDOW_WIDTH + 1 coefficients, a piecewise phi over [-W - 1, W + 1]
    longest = 4 * (_MAX_WINDOW_WIDTH + 2)
    assert longest < _FFT_TABLE_MAX
    for n in (longest - 7, longest, 1 << 22, _FFT_TABLE_MAX - 1, _FFT_TABLE_MAX):
        assert _fft_length(n) == next(k for k in range(n, 2 * n) if _is_5_smooth(k))
    # beyond the table, a power of two
    assert _fft_length(_FFT_TABLE_MAX + 1) == 2 * _FFT_TABLE_MAX


def _is_5_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


def test_conjugate_reflects_support_and_is_involutive():
    f = blaschke_factor_coeffs(0.5, 8)
    c = window_conjugate(f)
    assert c.hi == 0 and c.lo == -8
    back = window_conjugate(c)
    assert back.offset == f.offset
    assert np.array_equal(back.coeffs, f.coeffs)
    assert window_conjugate(delta_window(1)).coeff_at(-1) == 1.0


def test_inner_product_examples():
    z = delta_window(1)
    assert window_inner_product(z, z) == 1.0
    assert window_inner_product(blaschke_factor_coeffs(0.5, 20), delta_window(0)) == -0.5


def test_inner_product_against_quadrature():
    # <b_a, 1> by trapezoidal quadrature on the circle
    lam = 0.37 + 0.21j
    w = blaschke_factor_coeffs(lam, 60)
    ts = np.linspace(0.0, 2 * np.pi, 4097)[:-1]
    vals = (np.exp(1j * ts) - lam) / (1 - np.conj(lam) * np.exp(1j * ts))
    quad = vals.mean()
    assert abs(window_inner_product(w, delta_window(0)) - quad) < 1e-12


# ---------------------------------------------------------------------------
# eval_symbol


def test_eval_symbol_examples():
    assert abs(eval_symbol(shift_symbol(1), 0.0) - 1.0) < 1e-15
    assert abs(eval_symbol(SumConst(LaurentPoly(-1, [1, 0, 1]), 2j), np.pi / 2) - 2j) < 1e-12
    assert abs(eval_symbol(SumConst(STEP, 3j), 1.0) - (1 + 3j)) < 1e-15
    assert abs(eval_symbol(SumConst(STEP, 3j), 4.0) - (-1 + 3j)) < 1e-15


def test_eval_symbol_rejects_arc_endpoint():
    with pytest.raises(ValueError):
        eval_symbol(STEP, np.pi)
    with pytest.raises(ValueError):
        eval_symbol(STEP, 0.0)


def test_quotient_unimodular_on_circle(rng):
    phi = random_quotient(rng, max_degree=4)
    for theta in rng.uniform(0.0, 2 * np.pi, 512):
        assert abs(abs(eval_symbol(phi, theta)) - 1.0) < 1e-10


def test_conjugate_eval_consistency(rng):
    phi = random_quotient(rng, max_degree=3)
    for theta in rng.uniform(0.0, 2 * np.pi, 64):
        lhs = eval_symbol(Conjugate(phi), theta)
        assert abs(lhs - np.conj(eval_symbol(phi, theta))) < 1e-13


def test_parseval_for_rational_windows(rng):
    # trapezoid at 2048 nodes vs coefficient l2 norm
    thetas = np.linspace(0.0, 2 * np.pi, 2049)[:-1]
    for _ in range(5):
        u = random_blaschke(rng, max_degree=4, max_modulus=0.8)
        phi = BlaschkeQuotient(u.unimodular_constant, -1, u.zeros)
        w = symbol_to_window(phi, -40, 40, 1e-10)
        quad = np.mean([abs(eval_symbol(phi, t)) ** 2 for t in thetas])
        assert abs(w.norm() ** 2 - quad) <= w.tail_bound + 1e-8


# ---------------------------------------------------------------------------
# data model validation


def test_window_norm_is_the_block_l2_norm():
    w = FourierWindow(-2, np.array([3.0, 4.0j, 0.0, -12.0]))
    assert w.norm() == 13.0
    assert w.norm() == np.linalg.norm(w.coeffs)


def test_window_invariants():
    with pytest.raises(ValueError):
        FourierWindow(0, np.array([], dtype=complex), 0.0)
    with pytest.raises(ValueError):
        FourierWindow(0, np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        FourierWindow(0, np.array([1.0]), np.inf)


def test_blaschke_product_invariants():
    with pytest.raises(ValueError):
        BlaschkeProduct(2.0, (0.5,))
    with pytest.raises(ValueError):
        BlaschkeProduct(1.0, (1.2,))
    # NaN fails every comparison, so it must be refused, not let through
    nan = float("nan")
    for make in (
        lambda: BlaschkeProduct(1.0, (nan,)),
        lambda: BlaschkeProduct(1.0, (complex(0.1, nan),)),
        lambda: BlaschkeProduct(nan, ()),
        lambda: BlaschkeQuotient(nan, 1, ()),
        lambda: BlaschkeQuotient(1.0, 0, (nan,)),
        lambda: BlaschkeQuotient(2.0, 0, ()),
        lambda: BlaschkeQuotient(1.0, 0, (1.0,)),
    ):
        with pytest.raises(ValueError, match="must"):
            make()
    u = BlaschkeProduct(1j, (0.5, -0.25j))
    assert u.degree == 2
    assert abs(u.at_zero() - 1j * 0.5 * (-0.25j) * ((-1) ** 2)) < 1e-15
    for tol in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            u.window(tol)


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewiseArcs(((0.0, 3.0, 1.0),))  # does not reach 2 pi
    with pytest.raises(ValueError):
        PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi + 0.1, 2 * np.pi, -1.0)))  # gap


def test_structural_predicates():
    assert is_unimodular(BlaschkeQuotient(1.0, -1, (0.5,)))
    assert is_unimodular(conjugated(shift_symbol(1)))
    assert is_unimodular(STEP)
    assert not is_unimodular(SumConst(STEP, 3j))
    assert is_analytic(LaurentPoly(0, [1.0, 2.0]))
    assert not is_analytic(LaurentPoly(-1, [1.0, 2.0]))
    inner = BlaschkeQuotient(1.0, 2, (0.3,))
    assert is_unimodular(inner) and is_analytic(inner)
    quotient = BlaschkeQuotient(1.0, -1, (0.3,))
    assert not (is_unimodular(quotient) and is_analytic(quotient))
    assert is_analytic(constant_symbol(2.0)) and not is_unimodular(constant_symbol(2.0))
