"""Integration over fixed points, representation Chern calculus, and the
moment-constraint machinery for fixed-point data.

The central operation sums restriction / Euler class over the fixed points,
exactly.  Every restriction is one Term c*x^d and every Euler class the
Term prod(w)*x^n, so the sum is one rational multiple of x^(d-n), and
integrate returns that coefficient, summed as integers over one common
denominator.  Count prediction needs no integral: the moment equations
sum_k (-1)^k k^l N_k = 0, l < n, have a one-dimensional kernel, the
binomial row up to sign, so predict_counts writes N0 * C(n, k).

The consistency sieve integrates Chern monomials, and for those the sum has
a closed form: at a point with weights w the monomial c_1^e1 ... c_n^en
restricts to prod sigma_i(w)^e_i times a power of x.  monomial_numerators
writes these values per point shape as integers over one common denominator
(the lcm of the |prod w|), so an integral is a column sum of integers;
monomial_integrals writes one row per distinct weight multiset and adds it
times its multiplicity.  consistency_check reports every column;
search_candidates computes the columns below the middle degree once for all
point shapes, looks up the last shape of each configuration by the
degree-0 value that cancels the others' sum, sums the other columns below
the middle for those alone, and only for the survivors asks that every
integral from the middle degree on be an integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .algebra import Term
from .errors import (CountTooLarge, IntegralTooLarge, NotSemifree,
                     SearchSpaceTooLarge, TooManyMonomials, ZeroWeight)
from .fixed_points import FixedPointData, counts


class RestrictionAssignment:
    """Restrictions of one equivariant class to every fixed point.

    Each entry is a Term of one common degree: a rational multiple of x^d,
    or zero.
    """

    __slots__ = ("values", "degree")

    def __init__(self, values: dict[str, Term]):
        self.values = dict(values)
        self.degree = None  # None for the zero assignment
        for pid, term in self.values.items():
            if term and self.degree is None:
                self.degree = term.degree
            elif term and term.degree != self.degree:
                raise ValueError(
                    f"entry at {pid!r} has degree {term.degree}, expected {self.degree}")

    def __getitem__(self, pid: str) -> Term:
        return self.values[pid]


def euler_class(weights) -> Term:
    """Product of the weights times x^(number of weights); a zero weight
    raises ZeroWeight."""
    weights = tuple(weights)
    if any(w == 0 for w in weights):
        raise ZeroWeight(f"zero weight in {weights}")
    return Term(math.prod(weights), len(weights))


def elementary_symmetric(values, up_to: int) -> list[int]:
    """sigma_1 .. sigma_up_to of the given integers."""
    sigma = [1] + [0] * up_to
    for v in values:
        for i in range(up_to, 0, -1):
            sigma[i] += v * sigma[i - 1]
    return sigma[1:]


def rep_chern_classes(weights, up_to: int) -> list[Term]:
    """Chern classes of a weight representation: sigma_i(weights) * x^i."""
    return [Term(s, i + 1) for i, s in enumerate(elementary_symmetric(weights, up_to))]


def integrate(data: FixedPointData, alpha: RestrictionAssignment) -> Fraction:
    """Sum of restriction over Euler class, over all fixed points: the
    coefficient of x^(alpha.degree - n), or 0 for the zero assignment.

    Every point of FixedPointData has n nonzero weights, so a nonzero
    restriction c*x^d over the Euler class prod(w)*x^n is the scalar
    c/prod(w) times the one power x^(d - n).  A missing point raises
    KeyError.

    The scalars are summed as integers over L, the lcm of the
    c.denominator * |prod(w)|, and divided by L once.
    """
    pairs = [(alpha[p.id].coeff, math.prod(p.weights)) for p in data.points]
    denominator = math.lcm(*(c.denominator * w for c, w in pairs))
    return Fraction(sum(c.numerator * (denominator // (c.denominator * w)) for c, w in pairs),
                    denominator)


def gamma_restrictions(data: FixedPointData) -> RestrictionAssignment:
    """The degree-two class restricting to (index/2) * x at each point.

    Only defined for semifree data, where the closed form holds.
    """
    if not data.semifree:
        raise NotSemifree("gamma restrictions need all weights +-1")
    return RestrictionAssignment(
        {p.id: Term(p.negative_count, 1) for p in data.points}
    )


# Largest n that predict_counts accepts: `count --n 4000` takes 0.22 s and
# prints 3.5 MB on a 2-core Xeon; the row takes 5 ms at n = 4000 and 18 ms
# at n = 8000, its text 0.07 s and 0.52 s.
MAX_COUNT_N = 4000
# Most digits a count, or a numerator or denominator of an integral that
# `check` prints, may have: Python converts no longer integer to text.
# With N0 = 1, C(n, n/2) passes it near n = 14300.
MAX_COUNT_DIGITS = 4300
# The least integer of more than MAX_COUNT_DIGITS digits.
DIGITS_LIMIT = 10**MAX_COUNT_DIGITS


def predict_counts(n: int, N0: int) -> tuple[int, ...]:
    """Counts forced by the moment equations: N_k = N0 * C(n, k)."""
    if n < 1 or N0 < 1:
        raise ValueError("n and N0 must be at least 1")
    if n > MAX_COUNT_N:
        raise CountTooLarge(f"n={n} exceeds the count bound {MAX_COUNT_N}")
    if N0 * math.comb(n, n // 2) >= DIGITS_LIMIT:
        raise CountTooLarge(
            f"N0 * C({n}, {n // 2}) has more than {MAX_COUNT_DIGITS} digits"
        )
    row = [N0]
    for k in range(n):
        # N0 C(n, k+1) = N0 C(n, k) (n-k) / (k+1), exactly
        row.append(row[-1] * (n - k) // (k + 1))
    return tuple(row)


def verify_moment_equations(data: FixedPointData) -> tuple[tuple[int, int], ...]:
    """The pairs (l, sum_k N_k k^l (-1)^k), l < n: the moment equations
    hold when every sum is 0."""
    if not data.semifree:
        raise NotSemifree("moment equations hold in this form only for semifree data")
    N = counts(data)
    levels = range(data.n + 1)
    return tuple((l, sum(N[k] * k**l * (-1) ** k for k in levels)) for l in range(data.n))


# Most Chern monomials that chern_monomials lists, and most exponents they
# hold (monomials times n).  On a 2-core Xeon the largest `check` these allow
# of the two points of weights all 1 and all -1 takes 1.2-2.0 s at 56-69 MB
# (n = 1..20) or less (n = 40: 1 s); the tests and the benchmark use degrees
# up to 6.
MAX_CHERN_MONOMIALS = 100_000
MAX_CHERN_EXPONENTS = 2_000_000


@dataclass(frozen=True)
class ChernMonomials:
    """The monomials c_1^e1 ... c_n^en of degree <= a bound, by degree, and
    within a degree in decreasing lexicographic order of (e1..en).

    Monomial 0 is 1; steps[j - 1] = (k, i) writes monomial j as monomial k
    times its first factor c_{i+1} (the c with the least index that occurs),
    so a point's values follow in one pass.
    """

    n: int
    exponents: tuple[tuple[int, ...], ...]  # exponent of c_i is entry i-1
    degrees: tuple[int, ...]
    steps: tuple[tuple[int, int], ...]


def chern_monomials(n: int, max_degree: int) -> ChernMonomials:
    """All (e_1..e_n) with sum i*e_i <= max_degree, with their degrees and
    steps (see ChernMonomials), listed in their final order.

    A monomial of degree d whose first factor is c_{i+1} is one of degree
    d - i - 1 with no earlier factor, times c_{i+1}; taking i = 0, 1, ... in
    turn, each block in the order of its lower degree, lists degree d in
    decreasing lexicographic order, and the pair (index of the lower
    monomial, i) is its step.  Refused above MAX_CHERN_MONOMIALS monomials
    or MAX_CHERN_EXPONENTS exponents as soon as the degree listed passes the
    cap, before any exponents are built.  Only c_i with i <= max_degree occur.
    """
    cap = min(MAX_CHERN_MONOMIALS, MAX_CHERN_EXPONENTS // n)
    steps = [(0, n)]  # monomial 1, whose i = n says that it has no factor
    start = [0]  # start[d]: index of the first monomial of degree d
    for d in range(max_degree + 1):
        for i in range(min(n, d)):
            steps += [(k, i) for k in range(start[d - i - 1], start[d - i]) if steps[k][1] >= i]
        if len(steps) > cap:
            raise TooManyMonomials(
                f"Chern monomials of degree <= {max_degree} in n={n} exceed cap {cap}"
            )
        start.append(len(steps))
    exponents, degrees = [(0,) * n], [0]
    for k, i in steps[1:]:
        e = exponents[k]
        exponents.append(e[:i] + (e[i] + 1,) + e[i + 1:])
        degrees.append(degrees[k] + i + 1)
    return ChernMonomials(n, tuple(exponents), tuple(degrees), tuple(steps[1:]))


def monomial_numerators(monomials: ChernMonomials, shapes):
    """Each point shape's integral of every monomial, over one common
    denominator.

    A shape is a tuple of n nonzero weights w; at it the monomial
    c_1^e1 ... c_n^en restricts to prod sigma_i(w)^e_i * x^d over the Euler
    class prod(w) * x^n.  Returns L, the lcm of the shapes' |prod w|, and an
    iterator, read once, that makes each shape's integer row
    prod sigma_i(w)^e_i * (L / prod w), in order, when it is reached.
    """
    products = [math.prod(w) for w in shapes]
    denominator = math.lcm(*products)
    # c_i with i above the largest degree has exponent 0 in every monomial
    top = min(monomials.n, monomials.degrees[-1])

    def rows():
        for w, wprod in zip(shapes, products):
            sigma = elementary_symmetric(w, top)
            values = [denominator // wprod]
            for k, i in monomials.steps:
                values.append(values[k] * sigma[i])
            yield values

    return denominator, rows()


def monomial_integrals(monomials: ChernMonomials, shapes) -> tuple[int, list[int]]:
    """Integrals of every monomial over a multiset of point shapes: L and the
    column sums of monomial_numerators.  The monomial of degree d integrates
    to (sum / L) * x^(d - n).

    sigma_i(w) and prod w do not depend on the order of the weights, so
    shapes that hold the same weights have the same row: each distinct
    weight multiset's row is made once and added times its multiplicity.
    """
    multiplicity: dict[tuple[int, ...], int] = {}
    for w in shapes:
        key = tuple(sorted(w))
        multiplicity[key] = multiplicity.get(key, 0) + 1
    denominator, rows = monomial_numerators(monomials, list(multiplicity))
    sums = [0] * len(monomials.exponents)
    for row, m in zip(rows, multiplicity.values()):
        for j, value in enumerate(row):
            sums[j] += m * value
    return denominator, sums


@dataclass(frozen=True)
class ConsistencyEntry:
    exponents: tuple[int, ...]  # exponent of c_i is entry i-1
    degree: int
    value: Fraction  # coefficient of x^(degree - n) in the integral
    ok: bool


@dataclass(frozen=True)
class ConsistencyReport:
    entries: tuple[ConsistencyEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


def consistency_check(data: FixedPointData, max_degree: int) -> ConsistencyReport:
    """Sieve the data through all Chern monomial integrals up to a degree.

    A monomial c_1^e1 ... c_n^en of total degree d integrates to
    (sum over points of prod sigma_i^ei / prod weights) * x^(d-n), summed
    here as integer numerators over one common denominator
    (monomial_integrals).  Below the middle degree this must vanish; at or
    above it the value must be an integer.
    """
    n = data.n
    monomials = chern_monomials(n, max_degree)
    denominator, sums = monomial_integrals(monomials, [p.weights for p in data.points])
    entries = tuple(
        ConsistencyEntry(e, d, Fraction(total, denominator),
                         total == 0 if d < n else total % denominator == 0)
        for e, d, total in zip(monomials.exponents, monomials.degrees, sums)
    )
    return ConsistencyReport(entries)


# Most configurations that search_candidates counts, and most points summed
# over them (configurations times points).  The search sums the degree-0
# entries of every head, the first num_points - 1 shapes of a configuration,
# and looks its last shape up, so two points cost one lookup per shape and
# more points about 45-100 ns per summed head point.  On a 2-core Xeon the
# searches at these caps take at most 1.2 s at 16-17 MB peak, medians of
# five runs: (1, 15, 5, 1) sums 19 612 560 points, 1.2 s; (1, 4471, 1, 1)
# sums 19 994 312, 0.9 s; (1, 2, 999, 30) has 1 997 001 configurations and
# 999 survivors, 0.03 s; (3, 2, 10, 3) has 1 186 570, 0.02 s.  The digit
# bound on (n * weight_bound)^max_degree caps the cost of the survivors'
# full integrals: the slowest search it allows that was found,
# (1, 2, 999, 1433), takes 3.5 s at 21 MB; (1, 3, 113, 2094) takes 2.0 s at
# 24 MB.
MAX_SEARCH_CONFIGS = 2_000_000
MAX_SEARCH_POINTS_SUMMED = 20_000_000


def _binomial_past(a: int, k: int, cap: int) -> int:
    """C(a, k) when it is at most cap, else the first C(a, i) above cap for
    i <= min(k, a - k).  C(a, i) grows with i there and is at least 2^i, so
    this takes about log2(cap) steps whatever the size of C(a, k)."""
    c = 1
    for i in range(min(k, a - k)):
        c = c * (a - i) // (i + 1)
        if c > cap:
            break
    return c


def search_candidates(
    n: int,
    num_points: int,
    weight_bound: int,
    max_degree: int,
) -> list[tuple[tuple[int, ...], ...]]:
    """All weight configurations surviving the consistency sieve.

    A configuration is a multiset of points, each a sorted tuple of n
    nonzero weights in [-weight_bound, weight_bound]; the returned list is
    canonical (weights sorted within a point, points sorted) and
    duplicate-free.  The configurations are counted, and refused above
    MAX_SEARCH_CONFIGS or when they sum more than MAX_SEARCH_POINTS_SUMMED
    points, the Chern monomials are listed (chern_monomials), and the
    search is refused when (n * weight_bound)^max_degree, a bound on every
    monomial's value, reaches DIGITS_LIMIT, all before any point shape is
    listed; counting and listing stop once a count passes its cap.

    The numerators of the monomials below the middle degree are computed
    once per point shape, over one common denominator for all shapes
    (monomial_numerators); a configuration's integrals there are the column
    sums of its shapes' rows.  Nearly every configuration fails at the
    degree-0 column, the sum of 1 / prod w, so the shapes are indexed by
    their negated degree-0 numerator: for each head, a sorted multiset of
    num_points - 1 shapes taken in lexicographic order, the only possible
    last shapes are those that cancel the head's degree-0 sum, in index
    order, and no earlier than the head's last shape.  The list so comes out
    in the order of a search over all configurations, and only these
    configurations have their other columns below the middle summed.  The
    index is keyed on the degree-0 column alone, so a head sums that column
    only: keyed on every column below the middle, (3, 4, 3, 3) took 0.09 s
    instead of 0.035 s.

    Only a configuration that passes every column below the middle has its
    integrals worked out in full (monomial_integrals, over the denominator
    of its own shapes), and it survives when every one from the middle
    degree on is an integer.  Those high columns are not tabulated for all
    shapes, because over the shapes' common denominator they grow with it
    and with the degree:
    (1, 2, 999, 200) peaks at 154 MB that way and at 17 MB here.
    """
    if min(n, num_points, weight_bound, max_degree) < 1:
        raise ValueError("all search parameters must be at least 1")
    cap = MAX_SEARCH_CONFIGS
    # both counts stop past cap, and a shape count past cap gives a total past it
    shapes = _binomial_past(2 * weight_bound + n - 1, n, cap)
    total = _binomial_past(shapes + num_points - 1, num_points, cap)
    if total > cap:
        raise SearchSpaceTooLarge(f"at least {total} candidate configurations exceed cap {cap}")
    if total * num_points > MAX_SEARCH_POINTS_SUMMED:
        raise SearchSpaceTooLarge(
            f"{total} candidate configurations of {num_points} points sum "
            f"{total * num_points} points, over cap {MAX_SEARCH_POINTS_SUMMED}"
        )
    if num_points == 1:
        # one point's degree-0 integral, 1 / prod w, never vanishes
        return []
    monomials = chern_monomials(n, max_degree)
    # |sigma_i(w)| <= (n * weight_bound)^i, so no monomial's value exceeds
    # (n * weight_bound)^max_degree; the integrals' digits, and the time to
    # sum them, are bounded once that is
    if (n * weight_bound) ** max_degree >= DIGITS_LIMIT:
        raise IntegralTooLarge(
            f"integrals of degree <= {max_degree} of weights in [-{weight_bound}, "
            f"{weight_bound}] in n={n} may reach ({n}*{weight_bound})^{max_degree}, "
            f"more than {MAX_COUNT_DIGITS} digits"
        )
    values = [w for w in range(-weight_bound, weight_bound + 1) if w != 0]
    point_shapes = list(combinations_with_replacement(values, n))
    below_middle = chern_monomials(n, min(max_degree, n - 1))
    _, rows = monomial_numerators(below_middle, point_shapes)
    degree_zero, *low = zip(*rows)
    # the last shapes whose degree-0 numerator cancels a head's sum, in index order
    completing = {}
    for k, v in enumerate(degree_zero):
        completing.setdefault(-v, []).append(k)
    passing = []
    for head in combinations_with_replacement(range(len(point_shapes)), num_points - 1):
        for last in completing.get(sum(degree_zero[k] for k in head), ()):
            config = head + (last,)
            if last < head[-1] or any(sum(column[k] for k in config) for column in low):
                continue
            config_shapes = tuple(point_shapes[k] for k in config)
            denominator, sums = monomial_integrals(monomials, config_shapes)
            if all(t % denominator == 0 for t, d in zip(sums, monomials.degrees) if d >= n):
                passing.append(config_shapes)
    return passing
