"""Walk through the polygon geometry and the equivalent product weights.

Run as:  python3 demos/polygon_and_weights.py
"""

import numpy as np

from pencilab import (build_polygon, from_polygon, r_degree, shift,
                      trace_weight_quadrature, xi_product_eval, xi_sum_eval)

# The model symbol |xi|^2 (|xi|^2 + lambda^2) has exponent points
# (4,0) and (2,2): total xi-degree against lambda-degree.
npg = build_polygon({(4, 0), (2, 2)})
print("vertices:", [(int(a), int(b)) for a, b in npg.vertices])
for s in npg.sides:
    print(f"  side {s.start} -> {s.end}: slope r = {s.r}, degree d = {s.d}")
print("r-degree at r=2:", r_degree(npg, 2), "(attained at the corner (2,2))")

# The lattice-point sum and the two-factor product are equivalent weights;
# the constants are what we measure, not assume.
w = from_polygon(npg)
print("\nproduct factors (r, m):", w.factors)
ratios = []
for lam in np.geomspace(1.0, 1e3, 7):
    for xi in [0.0, 0.1, 1.0, 10.0, 100.0]:
        ratios.append(xi_sum_eval(npg, xi, lam) / xi_product_eval(w, xi, lam))
print("sum/product band over a small grid: [%.3f, %.3f]"
      % (min(ratios), max(ratios)))

# Shifting the polygon to the left truncates factors; half-integer shifts
# give the trace-space weights.
for s in (1, 2, "3/2"):
    from fractions import Fraction
    sh = shift(w, Fraction(s))
    print(f"shift by {s}: factors {sh.factors}")

# The trace weight sigma'_l from quadrature tracks the shifted weight.
print("\ntrace weight vs shifted-weight prediction (l = 1):")
from fractions import Fraction
sw = shift(w, Fraction(3, 2))
for lam in (1.0, 10.0, 100.0):
    got, _ = trace_weight_quadrature(w, 1, 5.0, lam)
    pred = xi_product_eval(sw, 5.0, lam)
    print(f"  lambda = {lam:6.1f}: sigma' = {got:10.4f}, "
          f"prediction = {pred:10.4f}, ratio = {got / pred:.3f}")
