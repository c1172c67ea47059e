"""Orthonormal bases, reproducing kernels and projections for model spaces.

The model space of a finite Blaschke product u of degree d is the
d-dimensional space H^2 (-) u H^2.  It is realized here through the
Takenaka-Malmquist basis

    e_k(z) = sqrt(1 - |lam_k|^2) / (1 - conj(lam_k) z) * prod_{i<k} b_{lam_i}(z),

which is orthonormal in exact arithmetic, uses the zeros in the order
given, and reduces to the monomials {1, z, ..., z^{d-1}} when u = z^d.
"""

from dataclasses import dataclass

import numpy as np

from .fourier import (
    BlaschkeProduct,
    FourierWindow,
    SymbolClassError,
    geometric_window,
    window_add,
    window_inner_product,
    window_multiply,
    window_scale,
    _check_tol,
    _factor_width,
    _stack_windows,
    _takenaka_windows,
)

GRAM_DEFECT_LIMIT = 1e-10


@dataclass(frozen=True)
class ModelBasis:
    """Takenaka-Malmquist basis of a finite-dimensional model space."""

    inner: BlaschkeProduct
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def window_width(self) -> int:
        return max(e.hi for e in self.basis)

    def max_tail(self) -> float:
        return max(e.tail_bound for e in self.basis)


def gram_matrix(windows) -> np.ndarray:
    """Gram matrix G[j, k] = <w_k, w_j> of a sequence of windows."""
    return window_inner_product(windows, windows)


def tm_basis(u: BlaschkeProduct, tol: float = 1e-12) -> ModelBasis:
    """Orthonormal Takenaka-Malmquist basis, expanded as certified windows.

    Widens the windows automatically if the numerical Gram defect exceeds
    the 1e-10 target.  Rejects constant inner functions (degree 0), whose
    model space is trivial, with SymbolClassError.
    """
    if u.degree < 1:
        raise SymbolClassError("inner function must be nonconstant")
    _check_tol(tol)
    build_tol = tol
    for _ in range(4):
        elements = _takenaka_windows(u.zeros, build_tol)[0]
        defect = np.abs(gram_matrix(elements) - np.eye(u.degree)).max()
        if defect <= GRAM_DEFECT_LIMIT:
            return ModelBasis(u, elements)
        build_tol /= 100.0
    raise RuntimeError("could not reach the Gram orthonormality target; zeros too extreme")


def reproducing_kernel(u: BlaschkeProduct, lam: complex, tol: float = 1e-12) -> FourierWindow:
    """Window of k_lam(z) = (1 - conj(u(lam)) u(z)) / (1 - conj(lam) z).

    Satisfies <f, k_lam> = f(lam) for every f in the model space.
    """
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise ValueError("kernel point must lie in the open unit disc")
    _check_tol(tol)
    geom = geometric_window(lam, _factor_width(abs(lam), tol / 4.0))
    uw = u.window(tol / 4.0)
    prod = window_multiply(uw, geom)
    return window_add(geom, window_scale(prod, -np.conj(u(lam))))


def project_onto_model_space(basis: ModelBasis, f: FourierWindow) -> np.ndarray:
    """Coordinates <f, e_k> of the orthogonal projection onto the model space."""
    return window_inner_product(f, basis.basis)


def synthesize(basis: ModelBasis, coords) -> FourierWindow:
    """Window of sum coords[k] e_k."""
    coords = np.asarray(coords, dtype=np.complex128)
    if coords.shape != (basis.dim,):
        raise ValueError("coordinate vector length must equal the basis dimension")
    lo = min(e.lo for e in basis.basis)
    hi = max(e.hi for e in basis.basis)
    tail = sum(abs(c) * e.tail_bound for c, e in zip(coords, basis.basis))
    return FourierWindow(lo, coords @ _stack_windows(basis.basis, lo, hi), tail)
