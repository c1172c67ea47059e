"""Essential-range bounds for normal symbols.

When the symbol is a real-valued function plus a complex constant the
operator is normal, and its minimum modulus is sandwiched between the
distance from 0 to the convex hull of the essential range and the
essential infimum of |phi|.  A convex range collapses the sandwich to an
equality.
"""

import numpy as np

from dttokit import LaurentPoly, PiecewiseArcs, SumConst, ess_range, normal_dtto_bounds

step = PiecewiseArcs(((0.0, np.pi, 1.0), (np.pi, 2 * np.pi, -1.0)))

print("Step symbol +/-1 shifted by 3i: a two-point essential range")
model = ess_range(SumConst(step, 3j))
print(f"  essential range: {sorted(model.points.tolist(), key=lambda p: p.real)}")
lo, up = normal_dtto_bounds(SumConst(step, 3j))
print(f"  bounds: {lo:.6f} <= m <= {up:.6f}   (exact value not determined)")
print()

print("Continuous symbol z + zbar + 2i: a segment, hence a convex range")
model = ess_range(LaurentPoly(-1, [1.0, 2j, 1.0]))
print(f"  essential range: segment {model.points[0]} .. {model.points[1]}")
lo, up = normal_dtto_bounds(LaurentPoly(-1, [1.0, 2j, 1.0]))
assert lo == up
print(f"  bounds coincide: m = {up}")
print()

print("Real-valued symbols always collapse the sandwich:")
for coeffs, label in (([1.0, 3.0, 1.0], "z + 3 + zbar"), ([1.0, 0.5, 1.0], "z + 0.5 + zbar")):
    lo, up = normal_dtto_bounds(LaurentPoly(-1, coeffs))
    assert lo == up
    print(f"  {label:<14} -> m = ess inf |phi| = {up:.6f}")
