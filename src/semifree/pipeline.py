"""Deduction pipeline identifying fixed points with subsets of {1..n}.

Given semifree data with binomial counts N_k = C(n, k), the restrictions of
the degree-two generator classes are forced by n alone.  Generator j
restricts to 0 or x at each point, so its restrictions over the index-2k
points sum to C(n-1, k-1) x, the number of k-subsets holding j (0 at
k = 0); their squares sum to the same multiple of x^2, and an integer
multiset whose sum equals its square sum has every c(c - 1) = 0, so each
value is 0 or 1.  This is why `solve` prints those level lines from n once
the counts are checked.  The pipeline checks the counts and pairs the
points in (index, id) order with the subsets in (size, lexicographic)
order, so the C(n, k) points of index 2k meet the C(n, k) subsets of size
k; the point -> subset dict it returns is a bijection respecting the
index.  The pairing reads no moment values: the families built from it
are right only where the moment depends on the index alone, as on
hypercube_data(n, c).
"""

from __future__ import annotations

from .cube import all_subsets
from .errors import NotSemifree
from .fixed_points import FixedPointData, require_binomial_counts


def run_pipeline(data: FixedPointData) -> dict[str, frozenset]:
    """The point -> subset map, in level order, once the data is checked
    to be semifree with binomial counts, which force it.  The points of
    one index, in id order, are paired with the subsets of that size in
    lexicographic order, whatever their moment values."""
    if not data.semifree:
        raise NotSemifree("the deduction applies to semifree data only")
    require_binomial_counts(data)
    # with N_k = C(n, k) each point of index 2k gets its own k-subset and
    # every subset is used: generator j restricts to x there iff j is in it
    return {p.id: J for p, J in zip(data.points, all_subsets(data.n), strict=True)}
