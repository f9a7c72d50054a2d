"""Cohomology of the reduction at level zero.

The kernel of the surjection onto the reduced space's cohomology is spanned
by the upward classes at points above the level and the downward classes at
points below it.  The moment is additive, mu(J) = mu(empty) + sum of
lambda_i over i in J with every lambda_i > 0, and an IdealPresentation holds
exactly those numbers, so its two families are the sign pattern of such a
moment by construction: the points above the level are closed under
supersets and those below under subsets.  presentation_from_data reads the
numbers from a document's moment values; a model level (n, c) is the
document hypercube_data(n, c), whose n a caller bounds with
require_reducible before its 2^n points are listed.  Each graded piece of
the quotient is a finite integer linear-algebra problem: square-free
monomials times powers of y form a basis of the ambient degree slice, and
the relations in it are written in closed form from the generators'
subsets.  Each degree's monomials are the first monomials of the top
degree's, so a relation's row is the same in every degree that holds it: a
presentation writes each row once, on first use, tagged with its degree,
one row per fixed point, 2^n in all: the unit row of alpha_T for each
point T above the level, and for each point T below it the row, never
empty, of beta_J a_(J - T), J the set T grows to greedily below the level.
These rows span every relation in every degree.  The rows tagged with a
degree extend the echelon basis of the degree below, so each row is
eliminated once.  One integer echelon basis per degree gives the free rank
(its length), the torsion (Smith normal form of that basis alone) and the
canonical images of the Chern classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, pairwise
from math import lcm

from .algebra import echelon_basis, reduce_mod_rows, smith_normal_form
from .cube import all_subsets, chern_coefficient, degree_basis, subset_mask
from .errors import MomentMismatch, ReductionTooLarge, ZeroIsCritical
from .fixed_points import FixedPointData, require_binomial_counts, split_by_moment_sign

# Largest n that require_reducible accepts.  On a 2-core Xeon (wall time of
# the child process, interpreter start included, and its ru_maxrss, three
# runs per level): `reduce --n 10` takes 0.49-0.50 s at its default level
# c = 11/2 and 0.39-0.43 s at c = 13/2, at 20 MB, and at most 0.30 s at its
# other eight regular levels, at 18-19 MB; `--n 9` takes at most 0.17 s.
# `reduce FILE` takes 0.23-0.45 s at 19-20 MB on six n = 10 documents cut by
# a moment map with weights 1-3 (weighted_cut_document in
# tests/test_reduction.py, seeds 0-5).  `--n 11` would take 1.9-2.2 s at
# c = 11/2, 2.3-2.8 s at c = 13/2 (27 MB) and 1.2-1.3 s at c = 15/2, and at
# most 0.7 s at its other eight levels.
MAX_REDUCE_N = 10


@dataclass(frozen=True)
class IdealPresentation:
    """Relations cutting out the reduced ring from Z[a_1..a_n, y], from the
    additive moment mu(J) = base + sum of areas[i - 1] over i in J.

    `areas` (lambda_1..lambda_n) and `base` (mu(empty)) are integers over
    one common denominator; a wrong number of areas, or one that is not
    positive, raises MomentMismatch.  The rewrite relations a_i y - a_i^2
    are absorbed by the monomials a_S y^(d - |S|), one per subset S; the two
    explicit families are the upward classes alpha_J of the J with
    mu(J) > 0 and the downward classes beta_J of the J with mu(J) < 0.
    `relations` writes the rows of every degree once per presentation, one
    per point J, in all_subsets order.
    """

    n: int
    areas: tuple[int, ...]  # lambda_i, each > 0
    base: int  # mu(empty)

    def __post_init__(self):
        if len(self.areas) != self.n or not all(a > 0 for a in self.areas):
            raise MomentMismatch(f"areas {self.areas} are not {self.n} positive numbers")

    @cached_property
    def moments(self) -> tuple[int, ...]:
        """mu(J) for each J of all_subsets(n), in that order, summed on first
        use, so a presentation refused by its size sums nothing."""
        return tuple(self.base + sum(self.areas[i - 1] for i in J) for J in all_subsets(self.n))

    @cached_property
    def relations(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """The relation rows of every degree, one per fixed point: the pair
        (degree, row) of the point T of all_subsets(n) at position i is
        relations[i], each row a sparse map {column: +-1} over
        degree_basis(n, n).

        degree_basis(n, d) is the first entries of degree_basis(n, n), so a
        subset S has one column in every degree, and the row of a relation
        is the same sparse vector in every degree that contains it: the
        rows of degree d are the pairs tagged d or lower.  A zero moment
        mu(J) raises ZeroIsCritical: the level is then critical.

        A point T above the level has the unit row {i: 1} of alpha_T,
        tagged |T|; since mu grows with J, every alpha_J a_S y^m is the unit
        row at J | S, and the unit rows are at all the alpha columns.  A
        point T below it has the row of beta_J a_(J - T), tagged n - |T|,
        where J = J(T) is T grown greedily: for i = 1..n, i joins J when
        J | {i} is below the level.  As a_j (y - a_j) = 0, that product is
        the sum over U in J^c of (-1)^|U| a_((J - T) | U) y^(...), the
        signed interval [J - T, (J - T) | J^c], written without the alpha
        columns, which the unit rows make zero.

        If T <= T' <= J(T), then J(T') = J(T): by induction on i, the
        greedy run from T' holds the run from T and stays inside J(T).  So
        beta_T, the product of y - a_i over i in J - T times beta_J, is the
        sum over T <= T' <= J(T) of (-1)^|J - T'| y^|T' - T| times the row
        of T', with coefficient +-1 on the row of T itself, and the rows
        span every beta_T.  As a_i beta_K = y beta_K - beta_(K - {i}) for i
        in K, the beta_T span every beta_K a_S y^m, so the rows span the
        relations in every degree.  J - T lies below the level with J, so
        each beta row keeps its column J - T and is never empty.

        Subsets are bitmasks (subset_mask) throughout, so each entry's
        column is read at the sum of two masks, with no sorting.  The rows
        are shared by every degree and every caller, so a caller that
        changes a row copies it first, as echelon_basis does.
        """
        bits = [1 << i for i in range(1, self.n + 1)]
        basis = degree_basis(self.n, self.n)
        masks = [subset_mask(S) for S in basis]
        column = [None] * (2 << self.n)  # column[U], None at the alpha columns
        for i, (U, mu) in enumerate(zip(masks, self.moments)):
            if not mu:
                raise ZeroIsCritical(f"mu(J) is 0 at J = {list(basis[i])}")
            if mu < 0:
                column[U] = i
        rows = []
        for i, T in enumerate(masks):
            if column[T] is None:
                rows.append((T.bit_count(), {i: 1}))
                continue
            J = T
            for b in bits:
                if column[J | b] is not None:
                    J |= b
            terms = [(0, 1)]  # (U, (-1)^|U|) for each U in J^c
            for b in bits:
                if not J & b:
                    terms += [(U + b, -sign) for U, sign in terms]
            rows.append((self.n - T.bit_count(),
                         {c: sign for U, sign in terms if (c := column[J - T + U]) is not None}))
        return tuple(rows)


@dataclass(frozen=True)
class GradedQuotient:
    """Free rank and torsion of each degree-2d piece, d = 0..len-1.

    `bases` holds each degree's echelon basis of the relation lattice, as
    sparse rows over degree_basis, for reducing classes into the quotient;
    it takes no part in equality.  Each basis is a snapshot of one basis
    extended degree by degree, so the bases share rows: a caller that
    changes a row copies it first.
    """

    n: int
    ranks: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]
    bases: tuple[tuple[dict[int, int], ...], ...] = field(
        default=(), compare=False, repr=False
    )

    @property
    def euler_characteristic(self) -> int:
        return sum(self.ranks)


def require_reducible(n: int) -> None:
    if n > MAX_REDUCE_N:
        raise ReductionTooLarge(f"n={n} exceeds the reduction bound {MAX_REDUCE_N}")


def presentation_from_data(data: FixedPointData) -> IdealPresentation:
    """Relations for semifree data with binomial counts and moment values.

    The point labelled J has moment mu(J) = mu(p_0) + sum of lambda_i over
    i in J, so the index-2 points p_1..p_n, in (index, id) order, give
    lambda_i = mu(p_i) - mu(p_0), each of which must be positive.  Over the
    lcm of their denominators the moments are integers, and the
    presentation sums mu(J) for each J of all_subsets(n), whose k-subsets
    form one slice of C(n, k), as the points of index 2k do; each level's
    points must carry the sums of its slice as a multiset, or
    MomentMismatch names the first level that differs."""
    N = require_binomial_counts(data)
    split_by_moment_sign(data)  # raises, naming the first missing or zero moment
    n, points = data.n, data.points
    scale = lcm(*(p.moment_value.denominator for p in points))
    moments = [p.moment_value.numerator * (scale // p.moment_value.denominator) for p in points]
    for p, moment in zip(points[1:n + 1], moments[1:]):
        if moment <= moments[0]:
            raise MomentMismatch(f"index-2 point {p.id!r} has moment value {p.moment_value}, "
                                 f"not above {points[0].moment_value} at {points[0].id!r}")
    pres = IdealPresentation(n, tuple(m - moments[0] for m in moments[1:n + 1]), moments[0])
    for k, (start, end) in enumerate(pairwise(accumulate(N, initial=0))):
        if sorted(moments[start:end]) != sorted(pres.moments[start:end]):
            raise MomentMismatch(f"level {k} moment values are not mu(J) = mu({points[0].id}) "
                                 f"+ sum of lambda_i over i in J, |J| = {k}")
    return pres


def graded_quotient(pres: IdealPresentation, max_degree: int) -> GradedQuotient:
    """Quotient ring data in cohomological degrees 0, 2, ..., max_degree.

    The rows of degree d are those of degree d - 1 plus the rows tagged d,
    over the same columns, so one echelon basis is extended degree by
    degree: echelon_basis takes the rows tagged d, none of them empty,
    sorted stably by pivot, largest first, and each degree's basis is a snapshot
    of the basis so far, so each row is eliminated once and the bases share
    rows.  In that order none of the 55 regular model levels n <= 10 makes
    a Euclid swap, and the largest basis entry at n = 10 is 8.  Documents
    cut by weighted moments do: 24 of the 280 weighted_cut_document(n, s)
    of tests/test_reduction.py, n = 2..8 and s < 40, make 1-6 swaps each,
    all at n >= 6, and n = 10, s = 0..5, make 49 in all.  echelon_basis
    copies a row that a swap displaces, so no snapshot changes after it is
    taken.  Smith normal form reads the torsion from each basis; it returns
    at once, with no elimination, when every pivot is 1, and makes its own
    passes only over a basis with a pivot above 1."""
    require_reducible(pres.n)
    top = max_degree // 2
    tagged = [[] for _ in range(top + 1)]
    for degree, row in pres.relations:
        if degree <= top:
            tagged[degree].append(row)
    kept = {}
    bases = [echelon_basis(sorted(rows, key=min, reverse=True), kept) for rows in tagged]
    ranks, torsion = [], []
    for d, basis in enumerate(bases):
        ranks.append(len(degree_basis(pres.n, d)) - len(basis))
        torsion.append(tuple(f for f in smith_normal_form(basis) if f > 1))
    return GradedQuotient(pres.n, tuple(ranks), tuple(torsion), tuple(map(tuple, bases)))


def betti_by_counting(data: FixedPointData) -> tuple[int, ...]:
    """Ranks of degrees 0, 2, .., 2(n-1) of the reduced space, from fixed
    points alone.

    Rank 2i counts the downward-class basis elements that survive in degree
    2i: points below the level whose index allows an upward contribution
    minus those whose co-index already does.  That is len(degree_basis(n, i))
    less the number of relation rows tagged i or lower, one per point T,
    tagged |T| above the level and n - |T| below it, so it equals the
    quotient rank exactly when those rows are independent: a reduce run
    that passes the counting check certifies that in every degree it
    computes.  It calls the deduction's one input check,
    require_binomial_counts, and the moment split on purpose, even where the
    presentation of the same data has just run them: this route reads the
    points' signs alone, not the subset sums that label them, so it
    cross-checks the quotient ranks independently.
    """
    n = data.n
    require_binomial_counts(data)
    _, minus = split_by_moment_sign(data)
    below = [0] * (n + 1)  # points below the level, by half their index
    for p in minus:
        below[p.negative_count] += 1
    return tuple(sum(below[:i + 1]) - sum(below[n - i:]) for i in range(n))


def reduced_chern_series(q: GradedQuotient) -> list[tuple[int, ...]]:
    """Images of c_1..c_min(n, computed) in the quotient, one per degree
    whose echelon basis q holds: each c_i is written over degree_basis from
    chern_coefficient and reduced against that basis."""
    return [tuple(reduce_mod_rows([chern_coefficient(q.n, i, len(S)) for S in degree_basis(q.n, i)],
                                  basis))
            for i, basis in enumerate(q.bases[1:q.n + 1], start=1)]


def poincare_check(q: GradedQuotient) -> bool:
    """Rank symmetry rank_{2i} = rank_{2(n-1-i)} and absence of torsion.

    Only pairs whose two ranks were both computed are compared, so a
    quotient computed below the top degree is checked as far as it goes.
    """
    top = q.n - 1
    ranks = q.ranks[:top + 1]
    return (all(not t for t in q.torsion)
            and all(ranks[i] == ranks[top - i]
                    for i in range(len(ranks)) if top - i < len(ranks)))
