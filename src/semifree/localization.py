"""Integration over fixed points, representation Chern calculus, and the
moment-constraint machinery for fixed-point data.

The central operation sums restriction / Euler class over the fixed points,
exactly.  Every restriction is c*x^d and every Euler class w*x^n, so the sum
is a Laurent polynomial in the degree-two generator x.  Everything else here
(count prediction, consistency sieve, candidate search) is built on top of
that sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import RatFunc, UniPoly, vandermonde_kernel
from .errors import CountTooLarge, NotSemifree, SearchSpaceTooLarge, ZeroWeight
from .fixed_points import CountVector, FixedPoint, FixedPointData, counts, validate


class RestrictionAssignment:
    """Restrictions of one equivariant class to every fixed point.

    Each entry is homogeneous of one common degree: a rational multiple of
    x^d, or zero.
    """

    __slots__ = ("values", "degree")

    def __init__(self, values: dict[str, UniPoly]):
        degree = None
        for pid, poly in values.items():
            if not poly:
                continue
            if not poly.is_monomial():
                raise ValueError(f"entry at {pid!r} is not homogeneous: {poly}")
            if degree is None:
                degree = poly.degree
            elif poly.degree != degree:
                raise ValueError(
                    f"entry at {pid!r} has degree {poly.degree}, expected {degree}"
                )
        self.values = dict(values)
        self.degree = degree  # None for the zero assignment

    def __getitem__(self, pid: str) -> UniPoly:
        return self.values[pid]

    def __contains__(self, pid: str) -> bool:
        return pid in self.values


def euler_class(weights) -> UniPoly:
    """Product of the weights times x^(number of weights)."""
    weights = tuple(weights)
    if any(w == 0 for w in weights):
        raise ZeroWeight(f"zero weight in {weights}")
    return UniPoly.monomial(math.prod(weights), len(weights))


def elementary_symmetric(values, up_to: int) -> list[int]:
    """sigma_1 .. sigma_up_to of the given integers."""
    sigma = [1] + [0] * up_to
    for v in values:
        for i in range(min(up_to, len(sigma) - 1), 0, -1):
            sigma[i] += v * sigma[i - 1]
    return sigma[1:]


def rep_chern_classes(weights, up_to: int) -> list[UniPoly]:
    """Chern classes of a weight representation: sigma_i(weights) * x^i."""
    weights = tuple(weights)
    return [
        UniPoly.monomial(s, i + 1)
        for i, s in enumerate(elementary_symmetric(weights, up_to))
    ]


def integrate(data: FixedPointData, alpha: RestrictionAssignment) -> RatFunc:
    """Sum of restriction over Euler class, over all fixed points."""
    total = RatFunc(UniPoly())
    for p in data.points:
        total = total + RatFunc(alpha[p.id], euler_class(p.weights))
    return total


def gamma_restrictions(data: FixedPointData) -> RestrictionAssignment:
    """The degree-two class restricting to (index/2) * x at each point.

    Only defined for semifree data, where the closed form holds.
    """
    if not data.semifree:
        raise NotSemifree("gamma restrictions need all weights +-1")
    return RestrictionAssignment(
        {p.id: UniPoly.monomial(p.negative_count, 1) for p in data.points}
    )


# Largest n that predict_counts accepts: `count --n 4000` takes 0.2 s and
# prints 3.5 MB on a 2-core Xeon; the row and its text take 0.09 s at
# n = 4000 and 0.54 s at n = 8000.
MAX_COUNT_N = 4000
# Most digits a count may have: Python converts no longer integer to text.
# With N0 = 1, C(n, n/2) passes it near n = 14300.
MAX_COUNT_DIGITS = 4300


def predict_counts(n: int, N0: int) -> CountVector:
    """Counts forced by the moment equations: N_k = N0 * C(n, k)."""
    if n < 1 or N0 < 1:
        raise ValueError("n and N0 must be at least 1")
    if n > MAX_COUNT_N:
        raise CountTooLarge(f"n={n} exceeds the count bound {MAX_COUNT_N}")
    if N0 * math.comb(n, n // 2) >= 10**MAX_COUNT_DIGITS:
        raise CountTooLarge(
            f"N0 * C({n}, {n // 2}) has more than {MAX_COUNT_DIGITS} digits"
        )
    kernel = vandermonde_kernel(n)
    return CountVector(tuple(int(N0 * abs(a)) for a in kernel))


@dataclass(frozen=True)
class MomentEquationReport:
    sums: tuple[tuple[int, Fraction], ...]  # (exponent l, alternating sum)

    @property
    def passed(self) -> bool:
        return all(s == 0 for _, s in self.sums)


def verify_moment_equations(data: FixedPointData) -> MomentEquationReport:
    """Check the alternating moment sums sum_k N_k k^l (-1)^k = 0, l < n."""
    validate(data)
    if not data.semifree:
        raise NotSemifree("moment equations hold in this form only for semifree data")
    N = counts(data).N
    sums = []
    for l in range(data.n):
        s = sum(Fraction(N[k] * k**l * (-1) ** k) for k in range(data.n + 1))
        sums.append((l, s))
    return MomentEquationReport(tuple(sums))


def _exponent_vectors(n: int, max_degree: int):
    """All (e_1..e_n) with sum i*e_i <= max_degree, in graded-lex order."""
    by_degree: dict[int, list[tuple[int, ...]]] = {
        d: [] for d in range(max_degree + 1)
    }

    def rec(i: int, remaining: int, prefix: tuple[int, ...]):
        if i > n:
            by_degree[max_degree - remaining].append(prefix)
            return
        for e in range(remaining // i, -1, -1):
            rec(i + 1, remaining - i * e, prefix + (e,))

    rec(1, max_degree, ())
    out = []
    for d in range(max_degree + 1):
        out.extend(sorted(by_degree[d], reverse=True))
    return out


@dataclass(frozen=True)
class ConsistencyEntry:
    exponents: tuple[int, ...]  # exponent of c_i is entry i-1
    degree: int
    value: Fraction  # coefficient of x^(degree - n) in the integral
    ok: bool


@dataclass(frozen=True)
class ConsistencyReport:
    n: int
    entries: tuple[ConsistencyEntry, ...]

    @property
    def failures(self) -> tuple[ConsistencyEntry, ...]:
        return tuple(e for e in self.entries if not e.ok)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


def consistency_check(data: FixedPointData, max_degree: int) -> ConsistencyReport:
    """Sieve the data through all Chern monomial integrals up to a degree.

    A monomial c_1^e1 ... c_n^en of total degree d integrates to
    (sum over points of prod sigma_i^ei / prod weights) * x^(d-n).
    Below the middle degree this must vanish; at or above it the value
    must be an integer.
    """
    validate(data)
    n = data.n
    per_point = []
    for p in data.points:
        sigma = elementary_symmetric(p.weights, max_degree if max_degree >= n else n)
        per_point.append((sigma, p.weight_product))
    entries = []
    for e in _exponent_vectors(n, max_degree):
        d = sum((i + 1) * ei for i, ei in enumerate(e))
        total = Fraction(0)
        for sigma, wprod in per_point:
            num = 1
            for i, ei in enumerate(e):
                if ei:
                    num *= sigma[i] ** ei
            total += Fraction(num, wprod)
        ok = (total == 0) if d < n else (total.denominator == 1)
        entries.append(ConsistencyEntry(e, d, total, ok))
    return ConsistencyReport(n, tuple(entries))


def search_candidates(
    n: int,
    num_points: int,
    weight_bound: int,
    max_degree: int,
    cap: int = 200_000,
) -> list[tuple[tuple[int, ...], ...]]:
    """All weight configurations surviving the consistency sieve.

    A configuration is a multiset of points, each a sorted tuple of n
    nonzero weights in [-weight_bound, weight_bound]; the returned list is
    canonical (weights sorted within a point, points sorted) and
    duplicate-free.
    """
    if min(n, num_points, weight_bound, max_degree) < 1:
        raise ValueError("all search parameters must be at least 1")
    values = [w for w in range(-weight_bound, weight_bound + 1) if w != 0]
    shapes = math.comb(len(values) + n - 1, n)
    total = math.comb(shapes + num_points - 1, num_points)
    if total > cap:
        raise SearchSpaceTooLarge(f"{total} candidate configurations exceed cap {cap}")
    point_shapes = list(combinations_with_replacement(values, n))
    passing = []
    for config in combinations_with_replacement(point_shapes, num_points):
        data = FixedPointData(
            n,
            tuple(
                FixedPoint(f"F{i}", weights) for i, weights in enumerate(config)
            ),
        )
        if consistency_check(data, max_degree).passed:
            passing.append(tuple(config))
    return passing
