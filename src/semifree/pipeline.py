"""Deduction pipeline identifying fixed points with subsets of {1..n}.

Given semifree data with binomial counts, the restrictions of the degree-two
generator classes are forced: their level sums and squared level sums are
binomial multiples of x, every individual restriction is 0 or x, and each
point of index 2k sees exactly k unit restrictions.  The pipeline checks the
counts and builds the canonical table, pairing the points in (index, id)
order with the subsets in (size, lexicographic) order, so the C(n, k) points
of index 2k meet the C(n, k) subsets of size k; the same loop records this
point -> subset dict, a bijection respecting the index, returned beside the
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .algebra import UniPoly, X
from .cube import alpha_class, all_subsets, beta_class, restrict_class, subset_id
from .errors import NoIntegerSolution, NotSemifree
from .fixed_points import FixedPointData, require_binomial_counts


@dataclass(frozen=True)
class RestrictionTable:
    """Restrictions of the n degree-two generators to every fixed point."""

    n: int
    point_levels: tuple[tuple[str, int], ...]  # (point id, negative-weight count)
    entries: dict[tuple[int, str], UniPoly]  # (generator j, point id) -> poly


def forced_level_sum(n: int, k: int) -> UniPoly:
    """Sum of one generator's restrictions over the index-2k points: C(n-1,k-1) x."""
    if not 0 <= k <= n:
        raise ValueError(f"level {k} out of range for n={n}")
    if k == 0:
        return UniPoly()
    return UniPoly.monomial(math.comb(n - 1, k - 1), 1)


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


@dataclass(frozen=True)
class Certificate:
    n: int
    level_sums: tuple[UniPoly, ...]  # index k = 0..n
    level_value_multisets: tuple[tuple[int, ...], ...]
    table: RestrictionTable


def model_restriction_table(n: int) -> RestrictionTable:
    """The table of the model space, computed from the ring side."""
    point_levels = []
    entries = {}
    for J in all_subsets(n):
        pid = subset_id(J)
        point_levels.append((pid, len(J)))
        for j in range(1, n + 1):
            entries[(j, pid)] = restrict_class(alpha_class({j}), J)
    return RestrictionTable(n, tuple(point_levels), entries)


def run_pipeline(data: FixedPointData) -> tuple[Certificate, dict[str, frozenset]]:
    """Full deduction: counts -> forced sums -> 0/1 values -> the point ->
    subset map, in level order."""
    if not data.semifree:
        raise NotSemifree("the deduction applies to semifree data only")
    n = data.n
    N = require_binomial_counts(data).N
    level_sums = tuple(forced_level_sum(n, k) for k in range(n + 1))
    multisets = tuple(solve_value_multiset(int(s.coefficient(1)), N_k)
                      for s, N_k in zip(level_sums, N))

    # canonical realization: points in (index, id) order meet subsets in
    # (size, lex) order; with N_k = C(n, k) each point of index 2k gets its
    # own k-subset and every subset is used, a bijection respecting the index
    entries: dict[tuple[int, str], UniPoly] = {}
    subsets: dict[str, frozenset] = {}
    for p, J in zip(data.points, all_subsets(n), strict=True):
        subsets[p.id] = J
        for j in range(1, n + 1):
            entries[(j, p.id)] = X if j in J else UniPoly()
    point_levels = tuple((pid, len(J)) for pid, J in subsets.items())
    table = RestrictionTable(n, point_levels, entries)
    return Certificate(n, level_sums, multisets, table), subsets


def beta_comparison_check(n: int) -> bool:
    """Model identity behind the downward classes: for every subset J and
    generator j, a_j|_J * x^(n-|J|) equals beta_J|_{j} * x."""
    for J in all_subsets(n):
        k = len(J)
        beta = beta_class(J, n)
        for j in range(1, n + 1):
            lhs = restrict_class(alpha_class({j}), J) * UniPoly.monomial(1, n - k)
            rhs = restrict_class(beta, {j}) * X
            if lhs != rhs:
                return False
    return True
