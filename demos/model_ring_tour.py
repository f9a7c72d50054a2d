"""Tour of the model ring Z[a_1..a_n, y]/(a_i y - a_i^2) and the deduction
pipeline that identifies abstract fixed points with subsets of {1..n}.

Run with:  python3 demos/model_ring_tour.py
"""

from semifree import (
    CubeClass,
    FixedPoint,
    FixedPointData,
    alpha_class,
    beta_class,
    equivariant_chern_series,
    express_in_basis,
    hypercube_data,
    injectivity_rank_check,
    restrict_class,
    run_pipeline,
)
from semifree.cube import all_subsets

n = 3
subsets = all_subsets(n)

# Each fixed point is a subset J; each basis class alpha_J restricts to
# x^|J| exactly at the supersets of J.  In normal form a_S y^m = x^m alpha_S,
# so the basis expansion of a class just groups its terms by subset.
print("restriction table of the alpha basis (rows = classes, cols = points):")
for J in subsets:
    row = [str(restrict_class(alpha_class(J), Jp)) for Jp in subsets]
    print(f"  alpha_{sorted(J) or '0'}: {row}")

# The downward classes: beta_J is supported on the subsets of J.
b = beta_class(frozenset({1}), n)
print("\nbeta_{1} =", b)
print("beta_{1} at the empty set:", restrict_class(b, frozenset()))
print("beta_{1} at {1,2}:", restrict_class(b, {1, 2}))

# Any homogeneous ring element expands uniquely over the alpha basis with
# Term coefficients c*x^m; y itself is x times the unit.
y = CubeClass.gen_y()
print("\ny expands as:", {tuple(sorted(J)): str(p) for J, p in express_in_basis(y, n).items()})

# Restriction to the fixed points is injective degree by degree.
print("\ninjectivity ranks:", [
    (e.degree, e.rank, e.basis_size) for e in injectivity_rank_check(n).entries
])

# The equivariant Chern series of the model.
for i, c in enumerate(equivariant_chern_series(n, n), start=1):
    print(f"c{i} =", c)

# The pipeline: abstract semifree data with binomial counts is forced to
# look exactly like the model.  Rename the points to see the bijection
# being rediscovered.
base = hypercube_data(n)
scrambled = FixedPointData(
    n, tuple(FixedPoint(f"pt{i}", p.weights) for i, p in enumerate(base.points))
)
subset_of = run_pipeline(scrambled)
print("\nrecovered identification of points with subsets:")
for pid, J in subset_of.items():
    print(f"  {pid} (index {2 * len(J)}) -> {sorted(J)}")
