"""Finite matrix realizations of the operators acting on and around K_u.

Builders cover the truncated Toeplitz operator A_phi = P_{K_u} M_phi |_{K_u},
the compressed shift A_z, the Gram of the corner operator
P_{K_u^perp} M_phi |_{K_u}, and the Galerkin blocks of the dual truncated
Toeplitz operator D_phi on K_u^perp.  The Toeplitz block T_phi, the
Hankel blocks H_{u phi} and H_{u conj(phi)}^* and the dual Toeplitz block
S_phi on monomials are slices of those blocks (see :func:`_dtto_block`).

Galerkin block ordering follows the unitary identification of K_u^perp
with H^2 (+) H^2_-: analytic coordinates {z^n}_{n=0..N-1} first (they
stand for {u z^n}), then the co-analytic {zbar^n}_{n=1..N}.  Columns and
the first 2N rows take that order; the rows past them are the analytic
overflow {z^n}_{n>=N}, then the co-analytic overflow {zbar^n}_{n>N}.
"""

from dataclasses import dataclass

import numpy as np

from .fourier import (
    BlaschkeProduct,
    BudgetError,
    FourierWindow,
    SymbolClassError,
    SymbolExpr,
    project_analytic,
    project_antianalytic,
    symbol_to_window,
    takenaka_realization,
    window_conjugate,
    window_inner_product,
    window_multiply,
    _coeffs_over,
)
from .modelspace import ModelBasis

# Largest dual truncated Toeplitz block, in bytes, that
# dual_truncated_toeplitz plans; a larger one is refused before any block
# of the schedule is allocated.
_MAX_BLOCK_BYTES = 1 << 30


def _check_block_bytes(rows: int, cols: int):
    nbytes = 16 * rows * cols  # complex128 entries
    if nbytes > _MAX_BLOCK_BYTES:
        raise BudgetError(
            f"predicted Galerkin block of {nbytes} bytes exceeds {_MAX_BLOCK_BYTES}; "
            "use smaller truncations"
        )


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense complex matrix with a per-entry error bound.

    Singular values computed downstream inherit the perturbation caveat
    entry_error * sqrt(rows * cols).  The entries are taken without a
    copy and held as a read-only view.
    """

    entries: np.ndarray
    entry_error: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128).view()
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("matrix entries must form a nonempty 2-D array")
        if not (np.isfinite(self.entry_error) and self.entry_error >= 0.0):
            raise ValueError("entry_error must be finite and nonnegative")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)
        object.__setattr__(self, "entry_error", float(self.entry_error))

    @property
    def shape(self):
        return self.entries.shape

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.entries.conj().T, self.entry_error)

    def sv_perturbation(self) -> float:
        m, n = self.shape
        return self.entry_error * float(np.sqrt(m * n))


# ---------------------------------------------------------------------------
# the strided view every monomial block is read from


def _hankel_view(w: FourierWindow, first: int, rows: int, cols: int) -> np.ndarray:
    """Read-only (rows, cols) view with entry (j, k) = w_hat(first + j + k).

    All entries share one zero-padded coefficient vector.  Every block of
    D_phi is a flip of this view: reversing the columns indexes the
    entries by j - k (Toeplitz), reversing the rows by k - j (dual
    Toeplitz), and reversing both by -j - k (Hankel).
    """
    v = _coeffs_over(w, first, first + rows + cols - 2)
    s = v.strides[0]
    return np.lib.stride_tricks.as_strided(v, (rows, cols), (s, s), writeable=False)


# ---------------------------------------------------------------------------
# model-space blocks


def _symbol_window_for_basis(phi: SymbolExpr, basis: ModelBasis) -> FourierWindow:
    """Window of phi at the basis tolerance for products with the basis
    elements: over [-W - 1, W + 1], W the basis width, if phi is piecewise,
    else its own certified block."""
    wb = basis.window_width()
    return symbol_to_window(phi, -wb - 1, wb + 1, basis.tol)


def truncated_toeplitz(basis: ModelBasis, phi: SymbolExpr) -> OperatorMatrix:
    """A_phi on the model space: entry (j, k) = <phi e_k, e_j>, from one
    product of phi with the basis stack and one pairing."""
    w = _symbol_window_for_basis(phi, basis)
    images = window_multiply(w, basis.elements)
    a = window_inner_product(images, basis.elements)
    err = np.max(images.tail_bound + images.norm() * basis.max_tail())
    return OperatorMatrix(a, err)


def compressed_shift(u: BlaschkeProduct) -> OperatorMatrix:
    """The compressed shift A_z on K_u; satisfies I - A* A = (S* u)(S* u)^*.

    Read off the realization of u's zeros, so no window is built.  Every
    entry has modulus at most 1, so entry_error = eps/2 + eta bounds its
    roundoff: one rounding to double after the realization's own
    relative error eta.  A constant u (degree 0) raises SymbolClassError.
    """
    if u.degree < 1:
        raise SymbolClassError("inner function must be nonconstant")
    a, _, eta = takenaka_realization(u.zeros)
    return OperatorMatrix(a, np.finfo(float).eps / 2.0 + eta)


def corner_images(basis: ModelBasis, phi: SymbolExpr):
    """Image stacks (T_{conj(u) phi} e_k, H_phi e_k) of the corner decomposition.

    The corner operator P_{K_u^perp} M_phi |_{K_u} splits orthogonally into
    a part landing in u H^2 (carried by T_{conj(u) phi}) and a part landing
    in H^2_- (carried by H_phi).  Row k of each stack is the image of e_k.
    """
    phi_w = _symbol_window_for_basis(phi, basis)
    ubar_phi = window_multiply(window_conjugate(basis.inner.window(basis.tol)), phi_w)
    t_imgs = project_analytic(window_multiply(ubar_phi, basis.elements))
    h_imgs = project_antianalytic(window_multiply(phi_w, basis.elements))
    return t_imgs, h_imgs


def corner_gram(basis: ModelBasis, phi: SymbolExpr) -> OperatorMatrix:
    """Gram matrix of the corner images; the matrix of B* B on the basis.

    For unimodular phi this equals I - A_phi* A_phi, since multiplication
    by phi is an isometry of L^2.
    """
    t, h = corner_images(basis, phi)
    g = t.gram + h.gram
    err = np.max(
        2.0 * (t.tail_bound * np.maximum(t.norm(), 1.0) + h.tail_bound * np.maximum(h.norm(), 1.0))
    )
    return OperatorMatrix(g, err)


# ---------------------------------------------------------------------------
# dual truncated Toeplitz block


def _dtto_block(windows, n: int, ha: int, hc: int) -> OperatorMatrix:
    """D_phi on the first n input coordinates of each kind, from the
    windows of phi, u phi and u conj(phi):

        [ T_phi          H_{u conj(phi)}^* ]
        [ H_{u phi}      S_phi             ]

    The rows are the 2n x 2n square compression (n analytic, then n
    co-analytic), then ha analytic and hc co-analytic overflow rows.
    """
    phi_w, u_phi, u_phibar = windows
    t = _hankel_view(phi_w, -(n - 1), n + ha, n)[:, ::-1]
    hs = _hankel_view(u_phibar, -(2 * n + ha - 1), n + ha, n)[::-1, ::-1]
    h = _hankel_view(u_phi, -(2 * n + hc - 1), n + hc, n)[::-1, ::-1]
    s = _hankel_view(phi_w, -(n + hc - 1), n + hc, n)[::-1]
    a = np.empty((2 * n + ha + hc, 2 * n), dtype=np.complex128)
    for out, j in ((a[:n], slice(n)), (a[2 * n : 2 * n + ha], slice(n, None))):
        out[:, :n] = t[j]
        np.conj(hs[j], out=out[:, n:])
    for out, j in ((a[n : 2 * n], slice(n)), (a[2 * n + ha :], slice(n, None))):
        out[:, :n] = h[j]
        out[:, n:] = s[j]
    return OperatorMatrix(a, max(w.tail_bound for w in windows))


def dual_truncated_toeplitz(u: BlaschkeProduct, phi: SymbolExpr, schedule, tol: float = 1e-12):
    """Galerkin compressions of the dual truncated Toeplitz operator, one per
    truncation n of the schedule: all 2n input monomials, the 2n x 2n
    square compression, then max(hi, 0) analytic and max(-lo, 0)
    co-analytic overflow rows for phi's window on [lo, hi].  u is
    analytic, so u phi and u conj(phi) reach no further row, and the
    block's size does not depend on u.  Every block is checked against
    the byte budget before the returned iterator assembles the first.

    The windows of phi, u phi and u conj(phi) are certified to a tail of
    tol/(2 sqrt(n)), so the image of every input basis vector is kept up
    to a tail <= tol/sqrt(n).  Piecewise phi is windowed over [-2n, 2n]
    only, so its further rows need not vanish."""
    plans = []
    for n in schedule:
        if n < 1:
            raise ValueError("truncations must be >= 1")
        _check_block_bytes(2 * n, 2 * n)  # every block holds the square compression
        t = tol / np.sqrt(n) / 2.0
        phi_w = symbol_to_window(phi, -2 * n, 2 * n, t)
        uw = u.window(t)
        windows = phi_w, window_multiply(uw, phi_w), window_multiply(uw, window_conjugate(phi_w))
        ha, hc = max(phi_w.hi, 0), max(-phi_w.lo, 0)
        _check_block_bytes(2 * n + ha + hc, 2 * n)
        plans.append((windows, n, ha, hc))
    return (_dtto_block(*plan) for plan in plans)
