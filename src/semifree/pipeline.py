"""Deduction pipeline identifying fixed points with subsets of {1..n}.

Given semifree data with binomial counts, the restrictions of the degree-two
generator classes are forced: their level sums and squared level sums are
binomial multiples of x, every individual restriction is 0 or x, and each
point of index 2k sees exactly k unit restrictions.  The pipeline checks the
counts and builds the canonical table, matching the C(n, k) points of index
2k with the C(n, k) subsets of size k; the same loop records the point ->
subset map, a bijection respecting the index, returned beside the
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .algebra import UniPoly, X
from .cube import alpha_class, all_subsets, beta_class, restrict_class, subset_id
from .errors import CountMismatch, NoIntegerSolution, NotSemifree
from .fixed_points import FixedPointData, counts
from .localization import predict_counts


@dataclass(frozen=True)
class RestrictionTable:
    """Restrictions of the n degree-two generators to every fixed point."""

    n: int
    point_levels: tuple[tuple[str, int], ...]  # (point id, negative-weight count)
    entries: dict[tuple[int, str], UniPoly]  # (generator j, point id) -> poly


@dataclass(frozen=True)
class Bijection:
    """Point id -> subset of {1..n}, respecting the index."""

    n: int
    subsets: dict[str, frozenset]


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


def run_pipeline(data: FixedPointData) -> tuple[Certificate, Bijection]:
    """Full deduction: counts -> forced sums -> 0/1 values -> bijection."""
    if not data.semifree:
        raise NotSemifree("the deduction applies to semifree data only")
    n = data.n
    if counts(data).N != predict_counts(n, 1).N:
        raise CountMismatch(
            f"counts {counts(data).N} differ from the binomial row {predict_counts(n, 1).N}"
        )
    level_sums = tuple(forced_level_sum(n, k) for k in range(n + 1))
    multisets = tuple(
        solve_value_multiset(
            math.comb(n - 1, k - 1) if k >= 1 else 0, math.comb(n, k)
        )
        for k in range(n + 1)
    )

    # canonical realization: within each level, points ordered by id are
    # matched with subsets in lexicographic order.  With distinct ids and
    # N_k = C(n, k) this pairs every point with its own subset of size k
    # and uses every subset, so the map is a bijection respecting the index.
    by_level: dict[int, list[str]] = {}
    for p in data.points:
        by_level.setdefault(p.negative_count, []).append(p.id)
    entries: dict[tuple[int, str], UniPoly] = {}
    point_levels = []
    subsets: dict[str, frozenset] = {}
    for k in range(n + 1):
        pids = sorted(by_level.get(k, []))
        for pid, J in zip(pids, combinations(range(1, n + 1), k), strict=True):
            point_levels.append((pid, k))
            subsets[pid] = frozenset(J)
            for j in range(1, n + 1):
                entries[(j, pid)] = X if j in J else UniPoly()
    table = RestrictionTable(n, tuple(point_levels), entries)
    return Certificate(n, level_sums, multisets, table), Bijection(n, subsets)


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
