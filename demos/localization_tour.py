"""Tour of the localization toolkit: exact integration over fixed points,
the forced fixed-point counts, and the consistency sieve for weight data.

Run with:  python3 demos/localization_tour.py
"""

from semifree import (
    FixedPoint,
    FixedPointData,
    RestrictionAssignment,
    Term,
    consistency_check,
    counts,
    euler_class,
    gamma_restrictions,
    hypercube_data,
    integrate,
    predict_counts,
    search_candidates,
    verify_moment_equations,
)

# The simplest datum: a single two-sphere rotating about its axis.  Two
# fixed points, weights +1 at the bottom and -1 at the top.
sphere = FixedPointData(1, (FixedPoint("south", (1,)), FixedPoint("north", (-1,))))
one = RestrictionAssignment({p.id: Term(1) for p in sphere.points})
print("integral of 1 over the sphere:", integrate(sphere, one))

# Restricting the top Chern class to each point gives its Euler class, and
# the integral counts the fixed points.
top = RestrictionAssignment({p.id: euler_class(p.weights) for p in sphere.points})
print("Euler characteristic of the sphere:", integrate(sphere, top))

# The product of n spheres with the diagonal action: 2^n fixed points,
# one per subset of sphere indices.
n = 3
cube = hypercube_data(n)
print(f"\nfixed-point counts of the n={n} model:", counts(cube))
print("counts forced for ANY semifree datum:", predict_counts(n, 1))

# Below the middle degree, every power of the canonical degree-two class
# integrates to zero; these are the moment equations.
for l, value in verify_moment_equations(cube):
    print(f"  moment equation l={l}: {value}")

# At the top power, the integral is exact and nonzero.
g = gamma_restrictions(cube)
g_top = RestrictionAssignment({p.id: g[p.id] ** n for p in cube.points})
print("integral of the top power:", integrate(cube, g_top), "(equals (-1)^n n!)")

# The sieve: every monomial in the Chern classes must integrate to zero
# below the middle degree and to an integer at or above it.  Semifree
# two-point data in dimension 6 always fails...
bad = FixedPointData(3, (FixedPoint("A", (1, 1, -1)), FixedPoint("B", (-1, -1, 1))))
print("\nsemifree two-point datum passes the sieve:", consistency_check(bad, 3).passed)

# ...but one non-semifree configuration survives every test.
survivors = search_candidates(3, num_points=2, weight_bound=2, max_degree=3)
print("surviving two-point configurations with |weights| <= 2:")
for config in survivors:
    print("  ", config)
