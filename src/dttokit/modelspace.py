"""Orthonormal bases and reproducing kernels for model spaces.

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
    takenaka_realization,
    _check_tol,
    _takenaka_windows,
)

GRAM_DEFECT_LIMIT = 1e-10


@dataclass(frozen=True)
class ModelBasis:
    """Takenaka-Malmquist basis of a finite-dimensional model space: the
    elements are the rows of one window stack, built for the tolerance
    ``tol`` (the one asked for, before any widening retry)."""

    inner: BlaschkeProduct
    elements: FourierWindow
    tol: float

    @property
    def dim(self) -> int:
        return len(self.elements.coeffs)

    @property
    def basis(self) -> tuple:
        """The elements as windows, each over its own support; derived from
        the stack on every read."""
        return self.elements.rows()

    def window_width(self) -> int:
        return self.elements.hi

    def max_tail(self) -> float:
        return float(self.elements.tail_bound.max())


def tm_basis(u: BlaschkeProduct, tol: float = 1e-12) -> ModelBasis:
    """Orthonormal Takenaka-Malmquist basis, one stack of certified windows.

    Widens the windows automatically if the numerical Gram defect exceeds
    the 1e-10 target.  The Gram is kept with the cached build, so a second
    call for the same zeros pairs nothing.  Rejects constant inner
    functions (degree 0), whose model space is trivial, with
    SymbolClassError.
    """
    if u.degree < 1:
        raise SymbolClassError("inner function must be nonconstant")
    _check_tol(tol)
    build_tol = tol
    for _ in range(4):
        elements = _takenaka_windows(u.zeros, build_tol)[0]
        defect = np.abs(elements.gram - np.eye(u.degree)).max()
        if defect <= GRAM_DEFECT_LIMIT:
            return ModelBasis(u, elements, tol)
        build_tol /= 100.0
    raise RuntimeError("could not reach the Gram orthonormality target; zeros too extreme")


def reproducing_kernel(basis: ModelBasis, lam: complex) -> FourierWindow:
    """Window of k_lam(z) = (1 - conj(u(lam)) u(z)) / (1 - conj(lam) z).

    Read off the basis and u's realization (:func:`takenaka_realization`):
    k_lam = sum_k conj(e_k(lam)) e_k, where e(lam) solves the d x d system
    (I - lam conj(A_z)) x = e(0), and its tail is sum_k |e_k(lam)| tail(e_k).
    Satisfies <f, k_lam> = f(lam) for every f in the model space.
    """
    lam = complex(lam)
    if abs(lam) >= 1.0:
        raise ValueError("kernel point must lie in the open unit disc")
    elements = basis.elements
    a, e0, _ = takenaka_realization(basis.inner.zeros)
    m = np.eye(basis.dim) - lam * np.conj(a).astype(np.complex128)
    e = np.linalg.solve(m, e0.astype(np.complex128))
    return FourierWindow(0, np.conj(e) @ elements.coeffs, np.abs(e) @ elements.tail_bound)
