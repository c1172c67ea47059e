"""Laurent coefficient arithmetic on the unit circle with certified tails.

Coefficient convention used throughout the package:

    f_hat(n) = (1/2pi) * integral_0^{2pi} f(e^{it}) e^{-int} dt,

so analytic functions (H^2) occupy indices n >= 0 and the co-analytic
half H^2_- the indices n <= -1.

A :class:`FourierWindow` holds a finite contiguous block of coefficients
plus ``tail_bound``, an l2 bound on everything the block omits.  All
window operations propagate these bounds, so downstream matrix entries
come with a per-entry error certificate.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

TWO_PI = 2.0 * np.pi
_PAIRING_BLOCK = 2048  # indices per stacked block in window_inner_product
# Shorter-factor length up to which window_multiply convolves directly.  On a
# 2-vCPU x86 host with numpy 2.4 the FFT product wins from here on for long
# factors of 2k to 50k coefficients; the crossover rises to about 300 at 300k.
_DIRECT_PRODUCT_MAX = 128
# Largest width the Takenaka-Malmquist and Blaschke product windows may
# share, refused before they are built.  Zeros at modulus 0.9999 need about
# 0.28M coefficients at tol 1e-12, whatever the degree.
_MAX_WINDOW_WIDTH = 1 << 20
# Largest tabulated FFT length.  The longest product the width refusal
# admits is conj(u) phi e_k in the corner images, with u and e_k at most
# _MAX_WINDOW_WIDTH + 1 coefficients long and a piecewise phi over twice
# the basis width: about 2^22 coefficients in all.
_FFT_TABLE_MAX = 1 << 23


class SymbolClassError(ValueError):
    """Raised when a symbol falls outside the class an operation supports."""


class BudgetError(SymbolClassError):
    """Raised when a predicted window width or Galerkin block exceeds its budget."""


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True, eq=False)
class FourierWindow:
    """A finite Laurent coefficient block with a certified l2 tail bound,
    or a stack of such blocks over one shared index range.

    ``coeffs[..., j]`` is the coefficient of index ``offset + j``, with
    shape (W,) for one window or (rows, W) for a stack whose row k is a
    window, zero outside its own support.  ``tail_bound`` has shape
    ``coeffs.shape[:-1]`` (a float for one window): the l2 norm of each
    row underestimates the true L2 norm of its function by at most its
    tail.  Products and pairings take a stack whole, so a basis is
    multiplied and paired in one call rather than element by element.
    The coefficients are taken without a copy and held as a read-only
    view.
    """

    offset: int
    coeffs: np.ndarray
    tail_bound: Union[float, np.ndarray] = 0.0

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128).view()
        tails = np.array(self.tail_bound, dtype=float)
        if arr.ndim not in (1, 2) or arr.size == 0 or tails.shape != arr.shape[:-1]:
            raise ValueError("a window needs nonempty 1-D or 2-D coefficients and one tail per row")
        # a NaN fails the first comparison
        if not 0.0 <= tails.min() <= tails.max() < math.inf:
            raise ValueError("tail_bound must be finite and nonnegative")
        arr.flags.writeable = False
        tails.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "tail_bound", tails if tails.ndim else float(tails))

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + self.coeffs.shape[-1] - 1

    def coeff_at(self, n: int) -> complex:
        """Coefficient of index ``n`` of one window; zero outside the
        stored block."""
        if self.coeffs.ndim != 1:
            raise ValueError("coeff_at takes one window, not a stack")
        j = n - self.offset
        if 0 <= j < len(self.coeffs):
            return complex(self.coeffs[j])
        return 0.0 + 0.0j

    def norm(self):
        """l2 norm of the stored block, or of each row of a stack."""
        return self._norm

    @functools.cached_property
    def _norm(self):
        # computed on first use and kept, as numpy.linalg.norm sums it: the
        # coefficients are read-only
        if self.coeffs.ndim == 2:
            norms = _row_norms(self.coeffs)
            norms.flags.writeable = False
            return norms
        re, im = self.coeffs.real, self.coeffs.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """G[j, k] = <row_k, row_j>, formed on first use and kept: the rows
        are read-only, so the Gram of a cached basis build is formed once."""
        g = _pairing(self, self)
        g.flags.writeable = False
        return g

    def rows(self) -> tuple:
        """The rows as windows, each from its first nonzero coefficient to
        its last (one zero coefficient for a zero row)."""
        out = []
        for row, tail in zip(self.coeffs, self.tail_bound):
            nz = np.flatnonzero(row)
            a, b = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 1)
            out.append(FourierWindow(self.offset + a, row[a:b], tail))
        return tuple(out)


def delta_window(n: int, value: complex = 1.0) -> FourierWindow:
    return FourierWindow(n, np.array([value], dtype=np.complex128), 0.0)


def _coeffs_over(w: FourierWindow, lo: int, hi: int) -> np.ndarray:
    """Coefficients of w at the indices lo..hi, zero outside its block."""
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    a, b = max(lo, w.lo), min(hi, w.hi)
    if a <= b:
        out[a - lo : b - lo + 1] = w.coeffs[a - w.lo : b - w.lo + 1]
    return out


def _smooth_numbers(limit: int) -> tuple:
    """Every 5-smooth integer 2^a 3^b 5^c <= limit, in increasing order."""
    out = []
    p5 = 1
    while p5 <= limit:
        p3 = p5
        while p3 <= limit:
            p = p3
            while p <= limit:
                out.append(p)
                p *= 2
            p3 *= 3
        p5 *= 5
    return tuple(sorted(out))


_FFT_LENGTHS = _smooth_numbers(_FFT_TABLE_MAX)


def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer 2^a 3^b 5^c that is >= n; above the table,
    which every product of admitted windows stays under, the next power
    of two."""
    if n > _FFT_TABLE_MAX:
        return 1 << (n - 1).bit_length()
    return _FFT_LENGTHS[bisect.bisect_left(_FFT_LENGTHS, n)]


def _cauchy_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full linear convolution of a and b along their last axis, a 1-D
    factor against every row of a 2-D one: direct, row by row, when the
    shorter factor has at most _DIRECT_PRODUCT_MAX coefficients,
    otherwise by one batched FFT at a zero-padded 5-smooth length.  The
    transform of a (of the 2-D factor, if there is one) is multiplied and
    inverted in place and becomes the result, so no second array of that
    size is made."""
    if b.ndim > a.ndim:
        a, b = b, a
    n = a.shape[-1] + b.shape[-1] - 1
    if min(a.shape[-1], b.shape[-1]) <= _DIRECT_PRODUCT_MAX:
        if a.ndim == 1:
            return np.convolve(a, b)
        out = np.empty((len(a), n), dtype=np.complex128)
        for row, src in zip(out, a):
            row[:] = np.convolve(src, b)
        return out
    fa = np.fft.fft(a, _fft_length(n))
    fa *= np.fft.fft(b, fa.shape[-1])
    return np.fft.ifft(fa, out=fa)[..., :n]


def window_multiply(f: FourierWindow, g: FourierWindow) -> FourierWindow:
    """Cauchy product of two windows, or of a window with every row of a
    stack (the result is then a stack).

    The output tail is propagated as ||f|| tail(g) + ||g|| tail(f)
    + tail(f) tail(g), row by row for a stack, which also bounds the
    pointwise error of the block coefficients caused by the omitted
    factor tails.  It counts truncation only: floating-point roundoff, of
    either the direct or the FFT product, is not in the tail.
    """
    coeffs = _cauchy_product(f.coeffs, g.coeffs)
    tail = f.norm() * g.tail_bound + g.norm() * f.tail_bound + f.tail_bound * g.tail_bound
    return FourierWindow(f.offset + g.offset, coeffs, tail)


def window_conjugate(f: FourierWindow) -> FourierWindow:
    """Coefficients of conj(f): g_hat(n) = conj(f_hat(-n)), row by row for
    a stack."""
    return FourierWindow(-f.hi, np.conj(f.coeffs[..., ::-1]), f.tail_bound)


def window_scale(f: FourierWindow, c: complex) -> FourierWindow:
    return FourierWindow(f.offset, f.coeffs * complex(c), abs(c) * f.tail_bound)


def window_shift(f: FourierWindow, k: int) -> FourierWindow:
    return FourierWindow(f.offset + k, f.coeffs, f.tail_bound)


def window_add(f: FourierWindow, g: FourierWindow) -> FourierWindow:
    lo = min(f.lo, g.lo)
    hi = max(f.hi, g.hi)
    out = _coeffs_over(f, lo, hi) + _coeffs_over(g, lo, hi)
    return FourierWindow(lo, out, f.tail_bound + g.tail_bound)


def window_inner_product(f: FourierWindow, g: FourierWindow):
    """l2 pairing sum f_hat(n) conj(g_hat(n)) over the common support.

    Realizes the L2(T) inner product; the absolute error is at most
    ||f|| tail(g) + ||g|| tail(f) + tail(f) tail(g).  Either argument may
    be a stack; the result is then the array of pairings
    P[j, k] = <f_k, g_j>, with the axis of a single-window argument
    dropped.
    """
    p = _pairing(f, g).reshape(g.coeffs.shape[:-1] + f.coeffs.shape[:-1])
    return complex(p) if p.ndim == 0 else p


def _pairing(f: FourierWindow, g: FourierWindow) -> np.ndarray:
    """P[j, k] = <f_k, g_j> for the rows of two windows, a single window
    read as a one-row stack.  Both are read over their common index range
    a block of indices at a time, as views of their rows, so the copies
    stay small."""
    fs, gs = np.atleast_2d(f.coeffs), np.atleast_2d(g.coeffs)
    lo, hi = max(f.lo, g.lo), min(f.hi, g.hi)
    p = np.zeros((len(gs), len(fs)), dtype=np.complex128)
    for a in range(lo, hi + 1, _PAIRING_BLOCK):
        b = min(a + _PAIRING_BLOCK - 1, hi)
        gbar = np.conj(gs[:, a - g.lo : b - g.lo + 1])
        p += gbar @ fs[:, a - f.lo : b - f.lo + 1].T
    return p


def _keep(f: FourierWindow, lo: int, hi: int, empty_at: int) -> FourierWindow:
    """The indices lo..hi of a window or of every row of a stack, tails
    kept; one zero coefficient at index empty_at if f stores none of them.
    A window takes its coefficients without a copy, so the kept block is
    copied out here and the product it was cut from can be freed."""
    a, b = max(f.lo, lo), min(f.hi, hi)
    if a > b:
        zero = np.zeros(f.coeffs.shape[:-1] + (1,), dtype=np.complex128)
        return replace(f, offset=empty_at, coeffs=zero)
    return replace(f, offset=a, coeffs=f.coeffs[..., a - f.lo : b - f.lo + 1].copy())


def project_analytic(f: FourierWindow) -> FourierWindow:
    """Keep indices n >= 0 (the H^2 part) of a window or of every row of a
    stack.  Tail bounds are preserved."""
    return _keep(f, 0, f.hi, 0)


def project_antianalytic(f: FourierWindow) -> FourierWindow:
    """Keep indices n <= -1 (the H^2_- part) of a window or of every row of
    a stack.  Tail bounds are preserved."""
    return _keep(f, f.lo, -1, -1)


# ---------------------------------------------------------------------------
# Blaschke products


def blaschke_factor_value(lam: complex, z: complex) -> complex:
    return (z - lam) / (1.0 - np.conj(lam) * z)


def _check_tol(tol: float) -> None:
    """Reject any tolerance outside 0 < tol < inf, naming the value."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _checked_inner_data(constant, zeros):
    """(constant, zeros) as complex values, after checking |constant| = 1
    within 1e-12 and |z| < 1 for every zero; NaN fails both checks."""
    c = complex(constant)
    if not abs(abs(c) - 1.0) <= 1e-12:
        raise ValueError(f"constant must have modulus 1 within 1e-12, got {c!r}")
    zs = tuple(complex(z) for z in zeros)
    for z in zs:
        if not abs(z) < 1.0:
            raise ValueError(f"every Blaschke zero must satisfy |z| < 1, got {z!r}")
    return c, zs


@dataclass(frozen=True)
class BlaschkeProduct:
    """A finite Blaschke product: unimodular constant times factors b_lam.

    ``zeros`` lie in the open unit disc; repeated zeros are allowed and
    zeros at the origin encode plain powers of z.
    """

    unimodular_constant: complex = 1.0 + 0.0j
    zeros: tuple = ()

    def __post_init__(self):
        c, zs = _checked_inner_data(self.unimodular_constant, self.zeros)
        object.__setattr__(self, "unimodular_constant", c)
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z: complex) -> complex:
        v = self.unimodular_constant
        for lam in self.zeros:
            v *= blaschke_factor_value(lam, z)
        return v

    def at_zero(self) -> complex:
        return self(0.0)

    def window(self, tol: float) -> FourierWindow:
        """Analytic coefficient window with certified tail <= tol."""
        _check_tol(tol)
        return window_scale(_blaschke_product_window(self.zeros, tol), self.unimodular_constant)


def takenaka_realization(zeros: tuple):
    """(A_z, e(0), eta): the d x d realization of the Takenaka-Malmquist
    basis of the zeros, in long double, and a bound on its rounding.

    A_z[j, k] = <z e_k, e_j> is lower triangular with diagonal lam_k, and
    A_z[i, j] = s_i s_j prod_{j<k<i} (-conj lam_k) below it;
    e(0)[k] = e_k(0) = s_k prod_{i<k} (-lam_i), with
    s = sqrt((1 - |lam|)(1 + |lam|)).  Every f in the model space
    satisfies f = f(0) + z S* f, and S* e = conj(A_z) e, so

        e(z) = (I - z conj(A_z))^{-1} e(0),    e_hat(n) = conj(A_z)^n e(0).

    Repeated zeros and zeros at 0 need no special case.  Each entry is a
    product of at most d + 2 rounded factors, and |lam| is rounded once
    before 1 - |lam| is formed, so every entry of A_z and e(0) is within
    relative error eta = eps_ld (2 d + 4 + 1/(1 - max |lam|)) of its exact
    value for the zeros as given, eps_ld the long-double epsilon.
    """
    lam = np.array(zeros, dtype=np.clongdouble)
    d = len(lam)
    r = np.abs(lam)
    s = np.sqrt((1 - r) * (1 + r))
    i, j = np.arange(d)[:, None], np.arange(d)
    # column j accumulates -conj(lam_k) for k = j+1, j+2, ... down the rows
    steps = np.where(i >= j + 2, -np.conj(lam)[i - 1], 1)
    a = np.cumprod(steps, axis=0) * (s[:, None] * s) * (i > j)
    a.flat[:: d + 1] = lam
    e0 = s * np.cumprod(np.concatenate(([1], -lam[:-1])))
    eta = float(np.finfo(np.longdouble).eps) * (2 * d + 4 + 1.0 / (1.0 - float(r.max())))
    return a, e0, eta


def _row_norms(x) -> np.ndarray:
    """l2 norms of the rows of a complex matrix, as floats."""
    v = x.view(x.real.dtype)
    return np.sqrt(np.einsum("ij,ij->i", v, v), dtype=float)


def _power_error(fros, eta: float, gamma: float) -> float:
    """delta_N for N = 2^(len(fros) - 1), from the Frobenius norms of
    the squares M^(2^j) (see _takenaka_windows)."""
    err = eta * fros[0]
    for f in fros[:-1]:
        err = (min(f, 1.0 + err) + min(1.0, f + err)) * err + gamma * f * f
    return err


@functools.lru_cache(maxsize=2)
def _takenaka_windows(zeros: tuple, tol: float):
    """Takenaka-Malmquist elements (e_1, ..., e_d) of the zeros, as the
    rows of one window stack, and their Blaschke product window
    p, each cut where its own certified tail first meets the budget
    tol/(2(d+1)).

    p is the last element of the zeros followed by a zero at 0, so one
    realization of that tuple (:func:`takenaka_realization`) gives all
    d + 1 windows: with M = conj(A_z), the coefficients at index n are
    M^n e(0), and orthonormality makes the mass of element k past index
    N - 1 exactly ||row_k(M^N)||.  Squaring M finds the first power of
    two N at which every such tail meets the budget, about
    log(budget)/log(max |lam|) whatever the degree; N past
    _MAX_WINDOW_WIDTH is refused before anything of width N is
    allocated.  The (d+1) x N stack is filled by doubling,
    stack[:, k:2k] = M^k stack[:, :k], each square carried in long
    double.  Element k is cut at the first index where its tail, the row
    norm plus the stored coefficients past the cut, meets the budget, and
    the stack rows are zeroed past their cuts; the coefficients that
    vanish because zeros at 0 precede an element are exact zeros, which p
    and the element's window (:meth:`FourierWindow.rows`) leave out of
    their block, so every window holds its own support.

    Margin: each reported tail is that mass times
    1 + (_MAX_WINDOW_WIDTH + 2d + 2) eps, for the rounding of the sums,
    plus delta_N >= ||fl(M^N) - M^N||_2.  delta_1 = eta ||M||_F covers the
    realization's rounding; squaring X_k = fl(M^k), f = ||X_k||_F, sets

        delta_2k = (min(f, 1 + delta_k) + min(1, f + delta_k)) delta_k
                   + gamma f^2,

    since ||M^k|| <= 1, with gamma = 2 (d + 3) eps_ld for a complex
    long-double dot product of length d + 1.  Without decay this stays
    below 2 N (d + 1) (eta + (d + 1) gamma); once ||X_k||_F falls under
    1/2 it stops growing.  Roundoff in the stored coefficients is not in
    the tail, as for every window.  The budget tol/(2(d+1)) lets the
    tails of all d + 1 windows add up to at most tol/2.  The last two
    (zeros, tol) requests stay cached, so one job builds the windows of
    each inner function once.
    """
    a, e0, eta = takenaka_realization(zeros + (0j,))
    d1 = len(e0)
    budget = tol / (2.0 * d1)
    gamma = 2.0 * (d1 + 2) * float(np.finfo(np.longdouble).eps)
    slack = 1.0 + (_MAX_WINDOW_WIDTH + 2 * d1) * np.finfo(float).eps
    # the diagonal of M^k is conj(lam)^k, so no k below
    # log(budget)/log(max |lam|) fits: square that far first and read the
    # norms of those squares at once
    r_max = max(map(abs, zeros))
    reach = min(math.log(budget) / math.log(r_max) if r_max > 0 else 0.0, _MAX_WINDOW_WIDTH)
    squares = [np.conj(a)]
    while 1 << (len(squares) - 1) < reach:
        squares.append(squares[-1] @ squares[-1])
    v = np.array(squares).view(np.longdouble)
    fros = np.sqrt(np.einsum("kij,kij->k", v, v), dtype=float).tolist()
    rows = _row_norms(squares[-1])
    while rows.max() * slack + _power_error(fros, eta, gamma) > budget:
        if 1 << (len(squares) - 1) >= _MAX_WINDOW_WIDTH:
            raise BudgetError(
                f"predicted window width exceeds {_MAX_WINDOW_WIDTH}; "
                "zeros too close to the unit circle for this tolerance"
            )
        squares.append(squares[-1] @ squares[-1])
        rows = _row_norms(squares[-1])
        fros.append(math.sqrt(rows @ rows))
    err = _power_error(fros, eta, gamma)

    n = 1 << (len(squares) - 1)
    stack = np.empty((d1, n), dtype=np.complex128)
    stack[:, 0] = e0
    for j, sq in enumerate(np.array(squares[:-1], dtype=np.complex128)):
        k = 1 << j
        np.matmul(sq, stack[:, :k], out=stack[:, k : 2 * k])

    # dropped[k, L - 1]: the mass of the last L stored coefficients of row k
    squared = stack.real**2
    squared += stack.imag**2
    dropped = np.cumsum(squared[:, ::-1], axis=1)
    rooms = ((budget - err) / slack) ** 2 - rows**2
    offsets = list(itertools.accumulate((z == 0 for z in zeros), initial=0))
    cuts, tails = [], []
    for drop, room, tail_n, off in zip(dropped, rooms, rows, offsets):
        cut = max(n - int(np.searchsorted(drop, room, side="right")), off + 1)
        omitted = tail_n**2 + (drop[n - cut - 1] if cut < n else 0.0)
        cuts.append(cut)
        tails.append(math.sqrt(omitted) * slack + err)
    # copies, so that no kept window holds on to the doubling stack
    p = FourierWindow(offsets[-1], stack[-1, offsets[-1] : cuts[-1]].copy(), tails[-1])
    elements = stack[:-1, : max(cuts[:-1])].copy()
    for row, cut in zip(elements, cuts):
        row[cut:] = 0.0
    return FourierWindow(0, elements, tails[:-1]), p


def _blaschke_product_window(zeros, tol: float) -> FourierWindow:
    return _takenaka_windows(zeros, tol)[1] if zeros else delta_window(0)


# ---------------------------------------------------------------------------
# symbols


@dataclass(frozen=True, eq=False)
class LaurentPoly:
    """Finite Laurent polynomial: coeffs[j] multiplies z^(offset + j),
    stored from the first nonzero coefficient to the last (the zero
    polynomial as LaurentPoly(0, [0]))."""

    offset: int
    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("Laurent polynomial needs a nonempty coefficient vector")
        nz = np.flatnonzero(arr)
        a, b = (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 1)
        arr = arr[a:b].copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "offset", int(self.offset) + a if nz.size else 0)


@dataclass(frozen=True)
class BlaschkeQuotient:
    """Unimodular symbol c * z^m * prod b_lam with m in Z."""

    constant: complex = 1.0 + 0.0j
    z_power: int = 0
    zeros: tuple = ()

    def __post_init__(self):
        c, zs = _checked_inner_data(self.constant, self.zeros)
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "z_power", int(self.z_power))
        object.__setattr__(self, "zeros", zs)


@dataclass(frozen=True)
class Conjugate:
    of: "SymbolExpr"


@dataclass(frozen=True)
class SumConst:
    term: "SymbolExpr"
    constant: complex


@dataclass(frozen=True)
class PiecewiseArcs:
    """Piecewise-constant symbol on arcs covering [0, 2pi) disjointly.

    ``arcs`` is a sequence of (t0, t1, value); after sorting the arcs must
    tile [0, 2pi] exactly.
    """

    arcs: tuple

    def __post_init__(self):
        parsed = sorted(
            ((float(a), float(b), complex(v)) for a, b, v in self.arcs),
            key=lambda arc: (arc[0], arc[1]),
        )
        if not parsed:
            raise ValueError("need at least one arc")
        if abs(parsed[0][0]) > 1e-12 or abs(parsed[-1][1] - TWO_PI) > 1e-12:
            raise ValueError("arcs must cover [0, 2pi)")
        for (_, b, _), (a2, _, _) in zip(parsed, parsed[1:]):
            if abs(b - a2) > 1e-12:
                raise ValueError("arcs must be disjoint and contiguous")
        for a, b, _ in parsed:
            if not b > a:
                raise ValueError("each arc needs positive length")
        object.__setattr__(self, "arcs", tuple(parsed))


SymbolExpr = Union[LaurentPoly, BlaschkeQuotient, Conjugate, SumConst, PiecewiseArcs]


def inner_symbol(u: BlaschkeProduct) -> BlaschkeQuotient:
    """Represent a finite Blaschke product as a unimodular symbol."""
    return BlaschkeQuotient(u.unimodular_constant, 0, u.zeros)


def conjugated(phi: SymbolExpr) -> SymbolExpr:
    """conj(phi), collapsing double conjugation."""
    if isinstance(phi, Conjugate):
        return phi.of
    return Conjugate(phi)


def shift_symbol(power: int = 1) -> LaurentPoly:
    """The monomial z^power."""
    return LaurentPoly(power, [1.0])


def constant_symbol(c: complex) -> LaurentPoly:
    return LaurentPoly(0, [c])


# -- structural classification ----------------------------------------------


def _fold_wrappers(phi: SymbolExpr):
    """Strip SumConst and Conjugate wrappers to any depth into one core.

    Returns (core, c, odd) with phi = (conj(core) if odd else core) + c.
    Laurent and piecewise cores absorb c and the conjugation, a zero-free
    quotient as its monomial; only a quotient with zeros keeps them.  An
    unwrapped symbol comes back as is.  Windows, values and predicates
    all read this core, so this is the one place that refuses a
    non-symbol, with TypeError.
    """
    core, c, odd = phi, 0.0 + 0.0j, False
    while isinstance(core, (SumConst, Conjugate)):
        if isinstance(core, Conjugate):
            odd, core = not odd, core.of
        else:
            c += complex(core.constant).conjugate() if odd else complex(core.constant)
            core = core.term
    if not isinstance(core, (LaurentPoly, BlaschkeQuotient, PiecewiseArcs)):
        raise TypeError(f"not a symbol: {phi!r}")
    if (c == 0 and not odd) or (isinstance(core, BlaschkeQuotient) and core.zeros):
        return core, c, odd
    if isinstance(core, PiecewiseArcs):
        arcs = tuple((t0, t1, (v.conjugate() if odd else v) + c) for t0, t1, v in core.arcs)
        return PiecewiseArcs(arcs), 0j, False
    if isinstance(core, BlaschkeQuotient):
        core = LaurentPoly(core.z_power, [core.constant])
    w = FourierWindow(core.offset, core.coeffs)
    w = window_conjugate(w) if odd else w
    w = window_add(w, delta_window(0, c)) if c != 0 else w
    return LaurentPoly(w.offset, w.coeffs), 0j, False


def _monomial(phi: LaurentPoly):
    """(power, coefficient) when phi has at most one nonzero term, else None."""
    return (phi.offset, complex(phi.coeffs[0])) if len(phi.coeffs) == 1 else None


def constant_value(phi: SymbolExpr) -> Optional[complex]:
    """Constant value of phi if it simplifies to one, else None."""
    core = _fold_wrappers(phi)[0]
    if isinstance(core, LaurentPoly):
        term = _monomial(core)
        return term[1] if term is not None and term[0] == 0 else None
    if isinstance(core, BlaschkeQuotient):
        return core.constant if core.z_power == 0 and not core.zeros else None
    vals = [v for _, _, v in core.arcs]
    return vals[0] if all(abs(v - vals[0]) <= 1e-15 for v in vals) else None


def is_unimodular(phi: SymbolExpr) -> bool:
    """Structural check that |phi| = 1 a.e. on the circle.  A quotient with
    zeros plus a constant that does not cancel never is."""
    core, c, _ = _fold_wrappers(phi)
    v = constant_value(core)
    if v is not None:
        return abs(abs(v) - 1.0) <= 1e-12
    if isinstance(core, BlaschkeQuotient):
        return c == 0
    if isinstance(core, PiecewiseArcs):
        return all(abs(abs(v) - 1.0) <= 1e-12 for _, _, v in core.arcs)
    term = _monomial(core)
    return term is not None and abs(abs(term[1]) - 1.0) <= 1e-12


def is_analytic(phi: SymbolExpr) -> bool:
    """Structural check that phi has no negative Laurent coefficients; the
    conjugate of a quotient with zeros never is analytic."""
    core, _, odd = _fold_wrappers(phi)
    if isinstance(core, LaurentPoly):
        return core.offset >= 0
    if isinstance(core, BlaschkeQuotient):
        return not odd and core.z_power >= 0
    return constant_value(core) is not None


def as_blaschke_quotient(phi: SymbolExpr) -> Optional[BlaschkeQuotient]:
    """View phi as a BlaschkeQuotient if its structure permits."""
    core, c, odd = _fold_wrappers(phi)
    if isinstance(core, LaurentPoly):
        term = _monomial(core)
        if term is None or abs(abs(term[1]) - 1.0) > 1e-12:
            return None
        return BlaschkeQuotient(term[1], term[0], ())
    if not isinstance(core, BlaschkeQuotient) or c != 0 or odd:
        return None
    return core


# -- evaluation ---------------------------------------------------------------


def eval_symbol(phi: SymbolExpr, theta: float) -> complex:
    """Pointwise value phi(e^{i theta}) for theta in [0, 2pi).

    Piecewise symbols are undefined on arc endpoints (a null set); hitting
    one exactly raises ValueError.
    """
    core, c, odd = _fold_wrappers(phi)
    z = np.exp(1j * theta)
    if isinstance(core, LaurentPoly):
        n = np.arange(core.offset, core.offset + len(core.coeffs))
        return complex(np.sum(core.coeffs * np.exp(1j * theta * n)))
    if isinstance(core, PiecewiseArcs):
        for t0, t1, v in core.arcs:
            if theta == t0 or theta == t1:
                raise ValueError("symbol value is undefined on an arc endpoint")
            if t0 < theta < t1:
                return v
        raise ValueError("angle must lie in [0, 2pi)")
    v = core.constant * z**core.z_power
    for lam in core.zeros:
        v *= blaschke_factor_value(lam, z)
    return complex(np.conj(v) if odd else v) + c


# -- coefficient windows ------------------------------------------------------


def _sum_inv_sq_tail(n: int) -> float:
    # bound on sum_{k >= n} 1/k^2
    if n <= 1:
        return np.pi * np.pi / 6.0
    return 1.0 / (n - 1)


def _piecewise_window(phi: PiecewiseArcs, lo: int, hi: int) -> FourierWindow:
    ns = np.arange(lo, hi + 1)
    k = np.where(ns == 0, 1, ns)  # index 0 is the mean, set below
    out = np.zeros(len(ns), dtype=np.complex128)
    for t0, t1, v in phi.arcs:
        out += v * (np.exp(-1j * ns * t0) - np.exp(-1j * ns * t1)) / (TWO_PI * 1j * k)
    c0 = sum(v * (t1 - t0) / TWO_PI for t0, t1, v in phi.arcs)
    # jump magnitude controls the O(1/n) decay
    vals = [v for _, _, v in phi.arcs]
    jumps = sum(abs(vals[i] - vals[i - 1]) for i in range(len(vals)))
    tail_sq = (jumps / TWO_PI) ** 2 * (_sum_inv_sq_tail(hi + 1) + _sum_inv_sq_tail(-lo + 1))
    tail = float(np.sqrt(tail_sq))
    if lo <= 0 <= hi:
        out[-lo] = c0
    else:
        tail += abs(c0)
    return FourierWindow(lo, out, tail)


def symbol_to_window(phi: SymbolExpr, lo: int, hi: int, tol: float) -> FourierWindow:
    """Coefficient window of phi.

    A rational symbol's window is its certified block at its own support,
    whatever [lo, hi], cut for a quotient where its certified tail meets
    tol; both edge coefficients are nonzero unless a product of zeros
    below about 1e-154 in modulus underflows.  For PiecewiseArcs the
    window covers exactly [lo, hi] and the O(1/n) tail is reported as-is.
    """
    if lo > hi:
        raise ValueError("empty index interval")
    _check_tol(tol)
    core, c, odd = _fold_wrappers(phi)
    if isinstance(core, PiecewiseArcs):
        return _piecewise_window(core, lo, hi)
    if isinstance(core, LaurentPoly):
        return FourierWindow(core.offset, core.coeffs, 0.0)
    # certified block: every omitted coefficient is covered by the tail
    w = _blaschke_product_window(core.zeros, tol)
    w = window_shift(window_scale(w, core.constant), core.z_power)
    # only a quotient with zeros still carries a conjugation or a constant
    w = window_conjugate(w) if odd else w
    if c == 0:
        return w
    # c can cancel an edge coefficient at index 0, which the Laurent form drops
    s = window_add(w, delta_window(0, c))
    p = LaurentPoly(s.offset, s.coeffs)
    return FourierWindow(p.offset, p.coeffs, s.tail_bound)


# ---------------------------------------------------------------------------
# JSON schema


def _c2j(c: complex):
    c = complex(c)
    return [c.real, c.imag]


def _j2c(v) -> complex:
    if not (isinstance(v, (list, tuple)) and len(v) == 2):
        raise ValueError("complex values must be [re, im] pairs")
    re, im = float(v[0]), float(v[1])
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"complex values must be finite, got [{re!r}, {im!r}]")
    return complex(re, im)


def symbol_to_json(phi: SymbolExpr) -> dict:
    if isinstance(phi, LaurentPoly):
        return {"kind": "laurent", "offset": phi.offset, "coeffs": [_c2j(c) for c in phi.coeffs]}
    if isinstance(phi, BlaschkeQuotient):
        return {
            "kind": "blaschke_quotient",
            "constant": _c2j(phi.constant),
            "z_power": phi.z_power,
            "zeros": [_c2j(z) for z in phi.zeros],
        }
    if isinstance(phi, Conjugate):
        return {"kind": "conjugate", "of": symbol_to_json(phi.of)}
    if isinstance(phi, SumConst):
        return {"kind": "sum", "left": symbol_to_json(phi.term), "constant": _c2j(phi.constant)}
    if isinstance(phi, PiecewiseArcs):
        return {
            "kind": "piecewise",
            "arcs": [{"from": a, "to": b, "value": _c2j(v)} for a, b, v in phi.arcs],
        }
    raise TypeError(f"not a symbol: {phi!r}")


def symbol_from_json(obj: dict) -> SymbolExpr:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("symbol JSON must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "laurent":
        return LaurentPoly(int(obj["offset"]), [_j2c(c) for c in obj["coeffs"]])
    if kind == "blaschke_quotient":
        return BlaschkeQuotient(
            _j2c(obj.get("constant", [1.0, 0.0])),
            int(obj.get("z_power", 0)),
            tuple(_j2c(z) for z in obj.get("zeros", [])),
        )
    if kind == "conjugate":
        return Conjugate(symbol_from_json(obj["of"]))
    if kind == "sum":
        return SumConst(symbol_from_json(obj["left"]), _j2c(obj["constant"]))
    if kind == "piecewise":
        return PiecewiseArcs(tuple((a["from"], a["to"], _j2c(a["value"])) for a in obj["arcs"]))
    raise ValueError(f"unknown symbol kind: {kind!r}")


def blaschke_to_json(u: BlaschkeProduct) -> dict:
    return {
        "kind": "blaschke_product",
        "constant": _c2j(u.unimodular_constant),
        "zeros": [_c2j(z) for z in u.zeros],
    }


def blaschke_from_json(obj: dict) -> BlaschkeProduct:
    if not isinstance(obj, dict):
        raise ValueError("inner-function JSON must be an object")
    kind = obj.get("kind", "blaschke_product")
    if kind == "blaschke_quotient":
        zp = int(obj.get("z_power", 0))
        if zp < 0:
            raise ValueError("an inner function cannot carry a negative power of z")
        zeros = tuple(_j2c(z) for z in obj.get("zeros", [])) + (0.0 + 0.0j,) * zp
        return BlaschkeProduct(_j2c(obj.get("constant", [1.0, 0.0])), zeros)
    if kind != "blaschke_product":
        raise ValueError(f"unknown inner-function kind: {kind!r}")
    return BlaschkeProduct(
        _j2c(obj.get("constant", [1.0, 0.0])),
        tuple(_j2c(z) for z in obj.get("zeros", [])),
    )
