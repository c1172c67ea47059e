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
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

TWO_PI = 2.0 * np.pi
_PAIRING_BLOCK = 2048  # indices per stacked block in window_inner_product
# Shorter-factor length up to which window_multiply convolves directly.  On a
# 2-vCPU x86 host with numpy 2.4 the FFT product wins from here on for long
# factors of 2k to 50k coefficients; the crossover rises to about 300 at 300k.
_DIRECT_PRODUCT_MAX = 128
# Largest index a Blaschke product window may reach, refused before it is
# built.  A degree-2 product with zeros at modulus 0.9999 reaches about 0.5M
# at tol 1e-12.
_MAX_WINDOW_WIDTH = 1 << 20
# Largest tabulated FFT length.  The longest product the width refusal
# admits is conj(u) phi e_k in the corner images, with u and e_k at most
# _MAX_WINDOW_WIDTH + 1 coefficients long and a piecewise phi over twice
# the basis width: about 2^22 coefficients in all.
_FFT_TABLE_MAX = 1 << 23


class SymbolClassError(ValueError):
    """Raised when a symbol falls outside the class an operation supports."""


# ---------------------------------------------------------------------------
# windows


@dataclass(frozen=True, eq=False)
class FourierWindow:
    """A finite Laurent coefficient block with a certified l2 tail bound.

    ``coeffs[j]`` is the coefficient of index ``offset + j``.  The l2 norm
    of the block underestimates the true L2 norm of the function by at
    most ``tail_bound``.
    """

    offset: int
    coeffs: np.ndarray
    tail_bound: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("window coefficients must be a nonempty 1-D sequence")
        if not (np.isfinite(self.tail_bound) and self.tail_bound >= 0.0):
            raise ValueError("tail_bound must be finite and nonnegative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "tail_bound", float(self.tail_bound))

    @property
    def lo(self) -> int:
        return self.offset

    @property
    def hi(self) -> int:
        return self.offset + len(self.coeffs) - 1

    def coeff_at(self, n: int) -> complex:
        """Coefficient of index ``n``; zero outside the stored block."""
        j = n - self.offset
        if 0 <= j < len(self.coeffs):
            return complex(self.coeffs[j])
        return 0.0 + 0.0j

    def norm(self) -> float:
        """l2 norm of the stored block."""
        return self._norm

    @functools.cached_property
    def _norm(self) -> float:
        # computed on first use and kept, as numpy.linalg.norm sums it: the
        # coefficients are read-only
        re, im = self.coeffs.real, self.coeffs.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def eval_at(self, z: complex) -> complex:
        """Sum c_n z^n over the stored block (z != 0 if lo < 0)."""
        n = np.arange(self.lo, self.hi + 1)
        return complex(np.sum(self.coeffs * np.power(complex(z), n)))


def delta_window(n: int, value: complex = 1.0) -> FourierWindow:
    return FourierWindow(n, np.array([value], dtype=np.complex128), 0.0)


def _coeffs_over(w: FourierWindow, lo: int, hi: int) -> np.ndarray:
    """Coefficients of w at the indices lo..hi, zero outside its block."""
    out = np.zeros(hi - lo + 1, dtype=np.complex128)
    a, b = max(lo, w.lo), min(hi, w.hi)
    if a <= b:
        out[a - lo : b - lo + 1] = w.coeffs[a - w.lo : b - w.lo + 1]
    return out


def _stack_windows(windows, lo: int, hi: int) -> np.ndarray:
    """One row per window: its coefficients at the indices lo..hi."""
    rows = np.empty((len(windows), hi - lo + 1), dtype=np.complex128)
    for row, w in zip(rows, windows):
        row[:] = _coeffs_over(w, lo, hi)
    return rows


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
    """Full linear convolution of a and b: direct when the shorter factor
    has at most _DIRECT_PRODUCT_MAX coefficients, otherwise by FFT at a
    zero-padded 5-smooth length.  The transform of a is released on
    return, before the caller copies the result into a window."""
    if min(len(a), len(b)) <= _DIRECT_PRODUCT_MAX:
        return np.convolve(a, b)
    n = len(a) + len(b) - 1
    fa = np.fft.fft(a, _fft_length(n))
    fa *= np.fft.fft(b, len(fa))
    return np.fft.ifft(fa)[:n]


def window_multiply(f: FourierWindow, g: FourierWindow) -> FourierWindow:
    """Cauchy product of two windows.

    The output tail is propagated as ||f|| tail(g) + ||g|| tail(f)
    + tail(f) tail(g), which also bounds the pointwise error of the
    block coefficients caused by the omitted factor tails.  It counts
    truncation only: floating-point roundoff, of either the direct or
    the FFT product, is not in the tail.
    """
    coeffs = _cauchy_product(f.coeffs, g.coeffs)
    tail = f.norm() * g.tail_bound + g.norm() * f.tail_bound + f.tail_bound * g.tail_bound
    return FourierWindow(f.offset + g.offset, coeffs, tail)


def window_conjugate(f: FourierWindow) -> FourierWindow:
    """Coefficients of conj(f): g_hat(n) = conj(f_hat(-n))."""
    return FourierWindow(-f.hi, np.conj(f.coeffs[::-1]), f.tail_bound)


def window_scale(f: FourierWindow, c: complex) -> FourierWindow:
    return FourierWindow(f.offset, f.coeffs * complex(c), abs(c) * f.tail_bound)


def window_shift(f: FourierWindow, k: int) -> FourierWindow:
    return FourierWindow(f.offset + k, f.coeffs, f.tail_bound)


def window_add(f: FourierWindow, g: FourierWindow) -> FourierWindow:
    lo = min(f.lo, g.lo)
    hi = max(f.hi, g.hi)
    out = _coeffs_over(f, lo, hi) + _coeffs_over(g, lo, hi)
    return FourierWindow(lo, out, f.tail_bound + g.tail_bound)


def window_sub(f: FourierWindow, g: FourierWindow) -> FourierWindow:
    return window_add(f, window_scale(g, -1.0))


def window_inner_product(f, g):
    """l2 pairing sum f_hat(n) conj(g_hat(n)) over the common support.

    Realizes the L2(T) inner product; the absolute error is at most
    ||f|| tail(g) + ||g|| tail(f) + tail(f) tail(g).  Either argument may
    be a sequence of windows; the result is then the array of pairings
    P[j, k] = <f_k, g_j>, with the axis of a single-window argument
    dropped.  Both sides are stacked over their common index range, a
    block of indices at a time, so the stacked copies stay small.
    """
    fs = [f] if isinstance(f, FourierWindow) else list(f)
    gs = [g] if isinstance(g, FourierWindow) else list(g)
    lo = max(min(w.lo for w in fs), min(w.lo for w in gs))
    hi = min(max(w.hi for w in fs), max(w.hi for w in gs))
    p = np.zeros((len(gs), len(fs)), dtype=np.complex128)
    for a in range(lo, hi + 1, _PAIRING_BLOCK):
        b = min(a + _PAIRING_BLOCK - 1, hi)
        gbar = _stack_windows(gs, a, b)
        p += np.conj(gbar, out=gbar) @ _stack_windows(fs, a, b).T
    if isinstance(f, FourierWindow):
        p = p[:, 0]
    if isinstance(g, FourierWindow):
        p = p[0]
    return complex(p) if p.ndim == 0 else p


def project_analytic(f: FourierWindow) -> FourierWindow:
    """Keep indices n >= 0 (the H^2 part).  Tail bound is preserved."""
    if f.hi < 0:
        return FourierWindow(0, np.zeros(1, dtype=np.complex128), f.tail_bound)
    lo = max(f.lo, 0)
    return FourierWindow(lo, f.coeffs[lo - f.lo :], f.tail_bound)


def project_antianalytic(f: FourierWindow) -> FourierWindow:
    """Keep indices n <= -1 (the H^2_- part)."""
    if f.lo > -1:
        return FourierWindow(-1, np.zeros(1, dtype=np.complex128), f.tail_bound)
    hi = min(f.hi, -1)
    return FourierWindow(f.lo, f.coeffs[: hi - f.lo + 1], f.tail_bound)


# ---------------------------------------------------------------------------
# Blaschke products


def _geometric_powers(a: complex, n: int) -> np.ndarray:
    """a^0, ..., a^(n-1) by doubling: the pass at k fills out[k:2k] with
    out[:k] times a^k, so the run takes log2(n) vector products.

    a^k is carried by squaring in long double (extended precision on x86)
    and rounded once per pass, so entry j picks up about one rounding per
    set bit of j: relative error near log2(n) eps, where that of the
    complex powers a ** j grows in proportion to j.
    """
    out = np.empty(n, dtype=np.complex128)
    out[0] = 1.0
    step = np.clongdouble(a)
    k = 1
    while k < n:
        m = min(k, n - k)
        np.multiply(out[:m], np.complex128(step), out=out[k : k + m])
        k += m
        step *= step
    return out


def blaschke_factor_value(lam: complex, z: complex) -> complex:
    return (z - lam) / (1.0 - np.conj(lam) * z)


def blaschke_factor_coeffs(lam: complex, n_max: int) -> FourierWindow:
    """Analytic expansion of the factor (z - lam)/(1 - conj(lam) z).

    Coefficients: c_0 = -lam and c_n = (1 - |lam|^2) conj(lam)^{n-1} for
    1 <= n <= n_max.  The omitted geometric tail is certified:
    tail = (1 - |lam|^2) |lam|^{n_max} / sqrt(1 - |lam|^2).
    """
    lam = complex(lam)
    r = abs(lam)
    if r >= 1.0:
        raise ValueError("Blaschke factor zero must lie in the open unit disc")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if lam == 0:
        return delta_window(1)
    c = np.empty(n_max + 1, dtype=np.complex128)
    c[0] = -lam
    c[1:] = (1.0 - r * r) * _geometric_powers(np.conj(lam), n_max)
    tail = (1.0 - r * r) * r**n_max / np.sqrt(1.0 - r * r)
    return FourierWindow(0, c, float(tail))


def geometric_window(lam: complex, n_max: int) -> FourierWindow:
    """Expansion of 1/(1 - conj(lam) z): coefficients conj(lam)^n."""
    lam = complex(lam)
    r = abs(lam)
    if r >= 1.0:
        raise ValueError("pole parameter must lie in the open unit disc")
    if lam == 0:
        return delta_window(0)
    c = _geometric_powers(np.conj(lam), n_max + 1)
    tail = r ** (n_max + 1) / np.sqrt(1.0 - r * r)
    return FourierWindow(0, c, float(tail))


def _check_tol(tol: float) -> None:
    """Reject any tolerance outside 0 < tol < inf, naming the value."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _factor_width(r: float, tol: float) -> int:
    """Smallest n with sqrt(1 - r^2) * r^n <= tol (geometric l2 tail)."""
    if r == 0.0:
        return 1
    n = int(np.ceil(np.log(max(tol, 1e-300) / np.sqrt(1.0 - r * r)) / np.log(r)))
    return max(n, 1)


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


@functools.lru_cache(maxsize=2)
def _takenaka_windows(zeros: tuple, tol: float):
    """Takenaka-Malmquist elements (e_1, ..., e_d) of the zeros and their
    Blaschke product window p_{d+1}, from one recurrence at the per-factor
    l2 budget tol/(2(d+1)).  With p_1 = 1, s_k = sqrt(1 - |lam_k|^2) and
    g_k the geometric window of lam_k up to index n_k,

        e_k = s_k g_k p_k,    p_{k+1} = -lam_k p_k + s_k z e_k

    (the shift z e_k when lam_k = 0): one Cauchy product per zero.
    p_{k+1} is p_k times the factor of lam_k cut after index n_k + 1.  The
    true p_k is unimodular and the cut factor is at most
    1 + (1 + r) r^(n_k+1) on the circle, so
    s_k r^(n_k+1) + (1 + (1 + r) r^(n_k+1)) tail(p_k) bounds its tail.
    Widths past _MAX_WINDOW_WIDTH are refused before anything is
    allocated.  The last two (zeros, tol) requests stay cached, so one job
    builds the basis and product window of each inner function once.
    """
    budget = tol / (2.0 * (len(zeros) + 1))
    widths = [_factor_width(abs(lam), budget) for lam in zeros]
    reach = sum(widths) + len(widths)  # last index of p_{d+1}, the widest window
    if reach > _MAX_WINDOW_WIDTH:
        raise SymbolClassError(
            f"predicted window width {reach} exceeds {_MAX_WINDOW_WIDTH}; "
            "zeros too close to the unit circle for this tolerance"
        )
    elements = []
    p = delta_window(0)
    for lam, n in zip(zeros, widths):
        r = abs(lam)
        s = math.sqrt(1.0 - r * r)
        e = window_scale(window_multiply(geometric_window(lam, n), p), s)
        elements.append(e)
        if lam == 0:
            p = window_shift(e, 1)
            continue
        c = np.zeros(len(e.coeffs) + 1, dtype=np.complex128)
        c[: len(p.coeffs)] = -lam * p.coeffs
        c[1:] += s * e.coeffs
        cut = r ** (n + 1)
        p = FourierWindow(p.offset, c, s * cut + (1.0 + (1.0 + r) * cut) * p.tail_bound)
    return tuple(elements), p


def _blaschke_product_window(zeros, tol: float) -> FourierWindow:
    if not zeros:
        return delta_window(0)
    build_tol = tol
    for _ in range(8):
        w = _takenaka_windows(zeros, build_tol)[1]
        if w.tail_bound <= tol:
            return w
        build_tol /= 8.0
    raise RuntimeError("could not certify Blaschke product tail; zeros too close to the circle")


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


def _divides(u: BlaschkeProduct, phi: BlaschkeQuotient, atol: float = 1e-12) -> bool:
    """Whether u divides phi as inner functions (zero multisets match)."""
    if phi.z_power < 0:
        return False
    pool = list(phi.zeros) + [0.0 + 0.0j] * phi.z_power
    for lam in u.zeros:
        hit = next((i for i, mu in enumerate(pool) if abs(mu - lam) <= atol), None)
        if hit is None:
            return False
        pool.pop(hit)
    return True


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
    all read this core.
    """
    core, c, odd = phi, 0.0 + 0.0j, False
    while isinstance(core, (SumConst, Conjugate)):
        if isinstance(core, Conjugate):
            odd, core = not odd, core.of
        else:
            c += complex(core.constant).conjugate() if odd else complex(core.constant)
            core = core.term
    if (c == 0 and not odd) or (isinstance(core, BlaschkeQuotient) and core.zeros):
        return core, c, odd
    if isinstance(core, PiecewiseArcs):
        arcs = tuple((t0, t1, (v.conjugate() if odd else v) + c) for t0, t1, v in core.arcs)
        return PiecewiseArcs(arcs), 0j, False
    if isinstance(core, BlaschkeQuotient):
        core = LaurentPoly(core.z_power, [core.constant])
    if not isinstance(core, LaurentPoly):
        return core, c, odd
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
    if isinstance(core, PiecewiseArcs):
        vals = [v for _, _, v in core.arcs]
        return vals[0] if all(abs(v - vals[0]) <= 1e-15 for v in vals) else None
    raise TypeError(f"not a symbol: {phi!r}")


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
    if isinstance(core, PiecewiseArcs):
        return constant_value(core) is not None
    return False


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
    if not isinstance(core, BlaschkeQuotient):
        raise TypeError(f"not a symbol: {phi!r}")
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
    whatever [lo, hi], widened for a quotient until the geometric tail is
    <= tol; both edge coefficients are nonzero unless a product of zeros
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
    if not isinstance(core, BlaschkeQuotient):
        raise TypeError(f"not a symbol: {phi!r}")
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
