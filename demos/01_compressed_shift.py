"""The minimum modulus of a compressed shift is |u(0)|.

The compressed shift A_z on the model space of a finite Blaschke product
u satisfies the rank-one defect identity I - A*A = (S*u)(S*u)^*, which
pins its two singular values at 1 and |u(0)|.  This script builds the
matrix from u's zeros alone (no Fourier window of u is formed) for a
handful of random products and compares the smallest singular value
against the closed form, then repeats the comparison for a zero at
modulus 0.999999, where the window basis is refused as over budget.
"""

import numpy as np

from dttokit import (
    BlaschkeProduct,
    compressed_shift,
    oracle_m_compressed_shift,
    sigma_min,
)

rng = np.random.default_rng(7)

print(f"{'degree':>6} {'|u(0)|':>12} {'sigma_min':>14} {'deviation':>12}")
for _ in range(8):
    degree = int(rng.integers(1, 7))
    zeros = rng.uniform(0, 0.9, degree) * np.exp(1j * rng.uniform(0, 2 * np.pi, degree))
    u = BlaschkeProduct(1.0, tuple(zeros))
    value = sigma_min(compressed_shift(u))
    target = oracle_m_compressed_shift(u)
    print(f"{degree:>6} {target:>12.8f} {value:>14.8f} {abs(value - target):>12.2e}")

print()
print("A zero at the origin forces |u(0)| = 0 and a nontrivial kernel:")
u = BlaschkeProduct(1.0, (0.0, 0.35))
print(f"  u = z * b_0.35:  sigma_min = {sigma_min(compressed_shift(u)):.2e}")

print()
print("A zero at modulus 0.999999 is answered from the zeros alone:")
u = BlaschkeProduct(1.0, (0.999999, 0.3))
value = sigma_min(compressed_shift(u))
print(f"  u = b_0.999999 * b_0.3:  |u(0)| = {oracle_m_compressed_shift(u):.10f}  sigma_min = {value:.10f}")
