"""Deduction pipeline identifying fixed points with subsets of {1..n}.

Given semifree data with binomial counts, the restrictions of the degree-two
generator classes are forced: their level sums and squared level sums are
binomial multiples of x (forced_level_sum), every individual restriction is
0 or x (solve_value_multiset), and each point of index 2k sees exactly k
unit restrictions.  The pipeline checks the counts and pairs the points in
(index, id) order with the subsets in (size, lexicographic) order, so the
C(n, k) points of index 2k meet the C(n, k) subsets of size k; the point ->
subset dict it returns is a bijection respecting the index.
"""

from __future__ import annotations

import math

from .algebra import Term
from .cube import all_subsets
from .errors import NoIntegerSolution, NotSemifree
from .fixed_points import FixedPointData, require_binomial_counts


def forced_level_sum(n: int, k: int) -> Term:
    """Sum of one generator's restrictions over the index-2k points: C(n-1,k-1) x."""
    if not 0 <= k <= n:
        raise ValueError(f"level {k} out of range for n={n}")
    return Term(math.comb(n - 1, k - 1), 1) if k else Term()


def solve_value_multiset(total: int, count: int) -> tuple[int, ...]:
    """Integers c_1..c_count with sum = square sum = total: forced to be 0/1.

    From sum c_i = sum c_i^2 we get sum c_i(c_i - 1) = 0 with every term
    nonnegative, so each c_i is 0 or 1.
    """
    if total < 0 or total > count:
        raise NoIntegerSolution(
            f"no 0/1 multiset of size {count} sums to {total}"
        )
    return (1,) * total + (0,) * (count - total)


def run_pipeline(data: FixedPointData) -> dict[str, frozenset]:
    """The point -> subset map, in level order, once the data is checked
    to be semifree with binomial counts, which force it."""
    if not data.semifree:
        raise NotSemifree("the deduction applies to semifree data only")
    require_binomial_counts(data)
    # with N_k = C(n, k) each point of index 2k gets its own k-subset and
    # every subset is used: generator j restricts to x there iff j is in it
    return {p.id: J for p, J in zip(data.points, all_subsets(data.n), strict=True)}
