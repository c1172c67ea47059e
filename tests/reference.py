"""Reference builders the tests check the library against.

None of them is on a route of the library: the Blaschke-factor and
geometric expansions (from doubled powers), window difference and
evaluation, the reduced minimum modulus with its rank cutoff, the
matrix of the conjugation f -> u conj(z f) on K_u^perp, and the Hankel
(Nehari) route to truncated Toeplitz norms.
"""

import warnings

import numpy as np

from dttokit.fourier import (
    FourierWindow,
    delta_window,
    symbol_to_window,
    window_add,
    window_conjugate,
    window_multiply,
    window_scale,
)
from dttokit.operators import _hankel_view

RANK_TOL = 1e-8


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


def window_sub(f: FourierWindow, g: FourierWindow) -> FourierWindow:
    return window_add(f, window_scale(g, -1.0))


def eval_window(w: FourierWindow, z: complex) -> complex:
    """Sum c_n z^n over the stored block of one window (z != 0 if lo < 0)."""
    if w.coeffs.ndim != 1:
        raise ValueError("eval_window takes one window, not a stack")
    n = np.arange(w.lo, w.hi + 1)
    return complex(np.sum(w.coeffs * np.power(complex(z), n)))


def reduced_min_modulus(a: np.ndarray) -> float:
    """Smallest singular value above the kernel cutoff RANK_TOL, scaled by
    the matrix norm.  If every singular value falls below it the matrix is
    degenerate: a warning is issued and 0 is returned."""
    s = np.linalg.svd(a, compute_uv=False)
    above = s[s > RANK_TOL * max(1.0, float(s[0]))]
    if above.size == 0:
        warnings.warn("all singular values fall below the rank cutoff; degenerate compression")
        return 0.0
    return float(above[-1])


def conjugation_action(n: int) -> np.ndarray:
    """Matrix M of the antilinear conjugation f -> u conj(z f) on K_u^perp.

    In the {u z^k} (+) {zbar^j} coordinates, k, j < n, the map sends
    u z^k -> zbar^{k+1} and zbar^j -> u z^{j-1}, so it acts as
    x -> M conj(x) with M the 2n x 2n block swap, the same for every inner
    u.  The compression is exact: the conjugation preserves both the
    retained subspace and its complement, and C T C has matrix M conj(T) M.
    """
    m = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    eye = np.eye(n)
    m[:n, n:] = eye
    m[n:, :n] = eye
    return m


def truncated_toeplitz_norm_hankel(u, phi, tol: float = 1e-12) -> float:
    """|A_phi| for analytic phi, as sigma_max of the Hankel matrix of
    conj(u) phi (the L-infinity distance from conj(u) phi to H^infinity by
    the Nehari theorem).

    With W the top index of u's window, conj(u) phi has no coefficient
    below -W, so the Hankel of side W + 1 holds all of it and the value is
    exact up to u's window tail.  The SVD costs O(W^3).
    """
    uw = u.window(tol)
    w = window_multiply(window_conjugate(uw), symbol_to_window(phi, -1, uw.hi, tol))
    side = uw.hi + 1
    h = _hankel_view(w, -(2 * side - 1), side, side)[::-1, ::-1]
    return float(np.linalg.svd(h, compute_uv=False)[0])
