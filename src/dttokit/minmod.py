"""Minimum moduli from finite matrices, with theorem-backed shortcuts.

For a finite matrix the minimum modulus inf_{|x|=1} |Mx| is the smallest
singular value (zero whenever the matrix is wider than tall).  Galerkin
compressions of non-invertible infinite-dimensional operators can show
spurious small singular values, so the exact finite-dimensional routes
through the model space are the authoritative computations here and
:func:`galerkin_sweep` serves as a consistency probe only.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fourier import (
    BlaschkeProduct,
    SymbolClassError,
    SymbolExpr,
    conjugated,
    is_unimodular,
)
from .modelspace import tm_basis
from .operators import (
    OperatorMatrix,
    corner_images,
    corner_gram,
    dual_truncated_toeplitz,
    truncated_toeplitz,
)
from .oracle import analytic_compressions


@dataclass(frozen=True)
class MinModReport:
    """A computed minimum modulus of ``quantity`` with its provenance and
    error data.  ``lower`` and ``upper`` enclose the value when the route
    bounds it from both sides; the method is ``bounds`` exactly when they
    differ, so a one-sided value is never tagged exact."""

    value: float
    method: str  # finite_exact | galerkin_sweep | oracle | bounds
    truncation: Optional[int] = None
    entry_error_bound: float = 0.0
    oracle_value: Optional[float] = None
    quantity: str = "m(D_phi)"
    lower: Optional[float] = None
    upper: Optional[float] = None

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("minimum modulus cannot be negative")
        if self.method not in ("finite_exact", "galerkin_sweep", "oracle", "bounds"):
            raise ValueError(f"unknown method tag: {self.method!r}")
        if (self.lower is None) != (self.upper is None):
            raise ValueError("lower and upper come as a pair")
        if self.lower is not None and not self.lower <= self.value <= self.upper:
            raise ValueError(f"value {self.value} outside [{self.lower}, {self.upper}]")
        if (self.method == "bounds") != (self.lower is not None and self.lower < self.upper):
            raise ValueError("the method is 'bounds' exactly when lower < upper")

    @property
    def discrepancy(self) -> Optional[float]:
        if self.oracle_value is None:
            return None
        return abs(self.value - self.oracle_value)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "method": self.method,
            "quantity": self.quantity,
            "lower": self.lower,
            "upper": self.upper,
            "oracle": self.oracle_value,
            "discrepancy": self.discrepancy,
            "entry_error": self.entry_error_bound,
            "truncation": self.truncation,
        }


# ---------------------------------------------------------------------------
# singular-value primitives


def sigma_min(mat: OperatorMatrix) -> float:
    """inf |Mx| over unit input vectors: zero for wide matrices, else the
    smallest singular value.  Carries the entry_error * sqrt(rows*cols)
    perturbation caveat of its OperatorMatrix."""
    m, n = mat.shape
    if m < n:
        return 0.0
    return float(np.linalg.svd(mat.entries, compute_uv=False)[-1])


def sigma_max(mat: OperatorMatrix) -> float:
    return float(np.linalg.svd(mat.entries, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# theorem-backed routes for m(D_phi), unimodular phi


def _require_unimodular(phi: SymbolExpr):
    if not is_unimodular(phi):
        raise SymbolClassError("this route requires a unimodular symbol")


def min_modulus_unimodular(
    u: BlaschkeProduct, phi: SymbolExpr, tol: float = 1e-12
) -> MinModReport:
    """m(D_phi) for unimodular phi, via the exact dim(K_u) reduction.

    Isometry of M_phi gives m(D_phi) = m(A_{conj(phi)}), so the value is
    the smallest singular value of the truncated Toeplitz matrix of
    conj(phi) on the model space: a dim x dim computation, no truncation.
    """
    _require_unimodular(phi)
    basis = tm_basis(u, tol)
    a = truncated_toeplitz(basis, conjugated(phi))
    return MinModReport(sigma_min(a), "finite_exact", None, a.sv_perturbation())


def min_modulus_toeplitz_hankel(
    u: BlaschkeProduct, phi: SymbolExpr, tol: float = 1e-12
) -> MinModReport:
    """m(D_phi) for unimodular phi through the corner Gram route.

    Computes sqrt(1 - lambda_max(G)) where G is the Gram of the images
    (T_{conj(u phi)} e_k, H_{conj(phi)} e_k).  Independent of
    :func:`min_modulus_unimodular`; the two must agree within the
    combined entry error.
    """
    _require_unimodular(phi)
    basis = tm_basis(u, tol)
    g = corner_gram(basis, conjugated(phi))
    lam_max = float(np.linalg.eigvalsh(g.entries)[-1])
    value = float(np.sqrt(max(0.0, 1.0 - lam_max)))
    return MinModReport(value, "finite_exact", None, g.sv_perturbation())


def min_modulus_bounds(
    u: BlaschkeProduct, phi: SymbolExpr, tol: float = 1e-12
):
    """Two-sided bounds on m(D_phi) from the restricted operator norms.

    lower = sqrt(max(0, 1 - (|T|^2 + |H|^2))) and
    upper = min(sqrt(1 - |T|^2), sqrt(1 - |H|^2)), where T and H are the
    corner pieces T_{conj(u phi)} and H_{conj(phi)} restricted to K_u.
    """
    _require_unimodular(phi)
    basis = tm_basis(u, tol)
    t_imgs, h_imgs = corner_images(basis, conjugated(phi))
    t_sq = float(np.linalg.eigvalsh(t_imgs.gram)[-1])
    h_sq = float(np.linalg.eigvalsh(h_imgs.gram)[-1])
    lower = float(np.sqrt(max(0.0, 1.0 - (t_sq + h_sq))))
    upper = float(
        min(np.sqrt(max(0.0, 1.0 - t_sq)), np.sqrt(max(0.0, 1.0 - h_sq)))
    )
    return lower, upper


def min_modulus_corner(
    u: BlaschkeProduct, phi: SymbolExpr, tol: float = 1e-12
) -> MinModReport:
    """Minimum modulus of the corner operator B_phi = P_{K_u^perp} M_phi |_{K_u}
    for analytic phi; any other symbol raises SymbolClassError.

    B_phi* B_phi = G = A_{|phi|^2} - A_phi* A_phi, both compressions d x d
    functions of the compressed shift (:func:`analytic_compressions`), so
    no window is built.  The value is sqrt(lambda_min(G)), or, for inner
    phi, sqrt(1 - sigma_max(A_phi)^2), with the windowed corner Gram at
    ``tol`` attached as the oracle cross-value.  entry_error bounds
    ||G - fl(G)||_2, so lambda_min, not its square root: with e and e2
    the bounds of A_phi and A_{|phi|^2},
    e2 + e (2 ||A_phi||_F + e) + (d + 2) eps ||A_phi||_F^2 + eps ||G||_F
    for the product and the difference, and e (2 sigma_max + e) for
    inner phi.  The eigensolver's own roundoff is not in it.
    """
    a, a2 = analytic_compressions(u, phi)
    e = a.entry_error
    if is_unimodular(phi):
        s = sigma_max(a)
        value = float(np.sqrt(max(0.0, 1.0 - s * s)))
        g = corner_gram(tm_basis(u, tol), phi)
        cross = float(np.sqrt(max(0.0, float(np.linalg.eigvalsh(g.entries)[0]))))
        return MinModReport(value, "finite_exact", None, float(e * (2.0 * s + e)), cross, "m(B_phi)")
    x = a.entries
    g = a2.entries - x.conj().T @ x
    fx = float(np.linalg.norm(x))
    eps = np.finfo(float).eps
    err = a2.entry_error + e * (2.0 * fx + e) + eps * ((u.degree + 2) * fx * fx + np.linalg.norm(g))
    value = float(np.sqrt(max(0.0, float(np.linalg.eigvalsh(g)[0]))))
    return MinModReport(value, "finite_exact", None, float(err), quantity="m(B_phi)")


# ---------------------------------------------------------------------------
# Galerkin sweep (consistency probe)


def galerkin_sweep(
    u: BlaschkeProduct,
    phi: SymbolExpr,
    schedule: Sequence[int],
    tol: float = 1e-9,
) -> list:
    """Minimum modulus of rectangular compressions over growing subspaces.

    Each block is the 2n x 2n square compression plus the output rows
    phi's window reaches past it, so its size does not depend on u.  For
    a rational symbol those are every nonzero output row, so each value
    is (up to tol) an upper bound on m(D_phi) and the sequence is
    non-increasing within 2 tol.  A piecewise block drops nonzero rows,
    so its value is not certified as an upper bound.  This is a
    consistency probe for the theorem-backed routes, not an authoritative
    computation.
    """
    schedule = [int(n) for n in schedule]
    if not schedule:
        raise ValueError("schedule must be nonempty")
    if u.degree < 1:
        raise SymbolClassError("inner function must be nonconstant")
    # every truncation and every block's bytes are checked before the first SVD
    blocks = dual_truncated_toeplitz(u, phi, schedule, tol)
    return [
        MinModReport(sigma_min(block), "galerkin_sweep", n, block.sv_perturbation())
        for n, block in zip(schedule, blocks)
    ]
