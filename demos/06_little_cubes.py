#!/usr/bin/env python3
"""Exact little cubes: composition, the symmetric action, and components.

Everything is exact (integers over a shared denominator inside a TD-map,
Fractions when read back), so the operad axioms are literal equalities, and
the sampled component counter recovers the homotopy count of arity-2
configurations: two orderings of intervals on a line, one component of two
squares in the plane.
"""

from fractions import Fraction as F

from chainops.cubes import (CubesElement, IntervalsElement, TDMap,
                            count_components, gamma_cubes,
                            generated_operad_element, sigma_cubes)

kappa = TDMap(2, (F(55, 100), F(55, 100)), F(40, 100))
lam = TDMap(2, (F(10, 100), F(30, 100)), F(25, 100))
print("composite of TD-maps:", kappa.compose(lam))

c = CubesElement(2, (TDMap(2, (F(0), F(0)), F(2, 5)),
                     TDMap(2, (F(1, 2), F(1, 2)), F(2, 5))))
d1 = CubesElement(2, (TDMap(2, (F(0), F(0)), F(1, 3)),
                      TDMap(2, (F(1, 2), F(1, 2)), F(1, 3))))
d2 = CubesElement.unit(2)
out = gamma_cubes(c, [d1, d2])
print("gamma of a 2-cubes pair with (pair, unit): arity", out.k)
for td in out.cubes:
    print("   a=%s b=%s" % (td.a, td.b))

print("swap then swap is the identity:",
      sigma_cubes(sigma_cubes(c, (2, 1)), (2, 1)) == c)

a = IntervalsElement(((F(0), F(1, 4)), (F(1, 2), F(3, 4))))
print("interval pair in both orders lands in the two components:")
print("   ", generated_operad_element(a, (1, 2)).cubes)
print("   ", generated_operad_element(a, (2, 1)).cubes)

print("sampled component counts:")
print("   intervals, arity 2:", count_components(1, 2, 5))
print("   squares,   arity 2:", count_components(2, 2, 4))
