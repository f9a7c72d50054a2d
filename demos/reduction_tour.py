"""Tour of the reduced-space computations: the relations at a regular
level, graded integer quotients, Betti numbers two ways, and duality.

Run with:  python3 demos/reduction_tour.py
"""

from fractions import Fraction

from semifree import (
    beta_class,
    betti_by_counting,
    graded_quotient,
    hypercube_data,
    poincare_check,
    presentation_from_data,
    reduced_chern_series,
)
from semifree.cube import all_subsets

# Reduce the n=3 model at the balanced level: the moment map is |J| - 3/2,
# so four points sit below zero and four above.  The model level is one
# more fixed-point document, hypercube_data(n, c), whose points carry those
# moment values, and presentation_from_data reads from it the areas
# lambda_i and mu(empty), over one common denominator (here 2).  The
# presentation sums mu(J) for every subset J, and the points above the
# level are the J with mu(J) > 0, those below the J with mu(J) < 0.
n = 3
data = hypercube_data(n, Fraction(3, 2))
pres = presentation_from_data(data)
moments = list(zip(all_subsets(n), pres.moments))
print("relations from points above the level:",
      [sorted(J) for J, mu in moments if mu > 0])
print("relations from points below the level:",
      [str(beta_class(J, n)) for J, mu in moments if mu < 0])

# The quotient ring, degree by degree: one integer echelon basis of the
# relations per degree gives the rank, and Smith normal form of that basis
# the torsion.
q = graded_quotient(pres, 2 * (n - 1))
print("\nBetti numbers of the reduced space:", q.ranks)
print("torsion:", q.torsion, "(always empty here)")
print("Euler characteristic:", q.euler_characteristic)

# The same ranks fall out of pure point counting below the level.
print("by counting:", betti_by_counting(data))

# Duality of the reduced space, and the images of the Chern classes,
# reduced against the echelon bases the quotient kept.
print("Poincare duality:", poincare_check(q))
for i, coefficients in enumerate(reduced_chern_series(q), start=1):
    print(f"c{i} image over the degree-{i} monomials:", list(coefficients))

# Sweep every regular level of every small model: the two computations of
# the Betti numbers always agree.
print("\nlevel sweep:")
for m in range(1, 6):
    for step in range(m):
        c = Fraction(2 * step + 1, 2)
        dm = hypercube_data(m, c)
        qm = graded_quotient(presentation_from_data(dm), 2 * (m - 1))
        agree = betti_by_counting(dm) == qm.ranks
        print(f"  n={m}, c={c}: betti {qm.ranks}, counting agrees: {agree}")
