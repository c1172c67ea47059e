"""The corner operator: mapping the model space into its complement.

In the 2x2 block decomposition of multiplication by phi over
K_u (+) K_u^perp, the corner B_phi = P_perp M_phi |_{K_u} measures how
much of phi K_u leaks out of the model space.  For unimodular phi,
m(B_phi) = sqrt(1 - |A_phi|^2); for the shift symbol this is zero
exactly when dim K_u > 1, and sqrt(1 - |u(0)|^2) in dimension one.
"""

import numpy as np

from dttokit import (
    BlaschkeProduct,
    inner_symbol,
    min_modulus_corner,
    min_modulus_unimodular,
    shift_symbol,
    truncated_toeplitz_norm_hankel,
)

Z = shift_symbol(1)

print("m(B_z) against the dimension of the model space:")
for d in (1, 2, 3, 4):
    u = BlaschkeProduct(1.0, (0.45,) * d)
    print(f"  dim = {d}:  m(B_z) = {min_modulus_corner(u, Z).value:.8f}")
print("(in dimensions > 1 the value is zero; sqrt(1 - s^2) amplifies the")
print(" ~1e-15 matrix noise near s = 1 to the ~1e-8 printed above)")
print()

print("Dimension one splits the energy between both blocks:")
for lam in (0.2, 0.5, 0.7):
    u = BlaschkeProduct(1.0, (lam,))
    mb = min_modulus_corner(u, Z).value
    ma = min_modulus_unimodular(u, Z).value
    print(
        f"  lam = {lam}:  m(B_z) = {mb:.6f}, m(A_z) = {ma:.6f}, "
        f"m(B_z)^2 + m(A_z)^2 = {mb**2 + ma**2:.12f}"
    )
print()

print("Truncated Toeplitz norms via the Hankel matrix (Nehari route):")
u = BlaschkeProduct(1.0, (0.5,))
print(f"  |A_z| on the b_0.5 space: {truncated_toeplitz_norm_hankel(u, Z):.10f}")
u2 = BlaschkeProduct(1.0, (0.3, 0.6))
print(f"  |A_u| (symbol divisible by u): {truncated_toeplitz_norm_hankel(u2, inner_symbol(u2))}")
