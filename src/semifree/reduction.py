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
and leaves out every row beta_J a_S y^m that is already a combination of
earlier rows.  That leaves 2^n rows, one per fixed point: a unit row for
each point above the level and a beta row, never empty, for each point
below it.  The rows tagged with a degree extend the echelon basis of the
degree below, so each row is eliminated once.  One integer echelon basis
per degree gives the free rank (its length), the torsion (Smith normal form
of that basis alone) and the canonical images of the Chern classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, combinations, pairwise
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
    mu(J) > 0 and the downward classes beta_J of the J with mu(J) < 0.  A
    generator is its subset J, in all_subsets order, and `relations` writes
    the rows of every degree from J once per presentation.
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
        """Every relation row any degree needs, as (degree, row) pairs, each
        row a sparse map {column: +-1} over degree_basis(n, n).

        degree_basis(n, d) is the first entries of degree_basis(n, n), so a
        subset S has one column in every degree, and the row of a relation
        is the same sparse vector in every degree that contains it: the
        rows of degree d are the pairs tagged d or lower.  A zero moment
        mu(J) raises ZeroIsCritical: the level is then critical.

        The generators are alpha_J and beta_J by definition, and a monomial
        a_S y^m is fixed by S, so rows are written from J and S.  alpha_J
        a_S y^m is the unit row at J | S, tagged |J | S|, and since mu
        grows with J the columns of the positive J are all the alpha
        columns.  beta_J is a multiple of beta_K for J < K, so only maximal
        negative J count: those whose every J | {i} is positive.  a_j
        (y - a_j) = 0 makes beta_J a_S y^m zero unless S lies in J, when it
        is the sum over T in J^c of (-1)^|T| a_(S|T) y^(...), tagged
        |J^c| + |S|.  The unit rows make every alpha column zero in the
        quotient, so beta rows are written modulo them, without those
        columns; S lies in the negative J, so is negative itself, and each
        beta row keeps its column S.

        Of the beta rows, only those of the S that contain no difference
        J - K, K a maximal negative before J, are written.  For maximal
        negative J and K, both sides of
            beta_J prod_{i in J-K} (y - a_i) = beta_K prod_{i in K-J} (y - a_i)
        are the product of y - a_j over j outside J & K.  For S containing
        D = J - K, multiplying by a_(S-D) y^m writes +-(J, S) as rows
        (J, S'), S' a proper subset of S, plus rows of K, all of the degree
        of (J, S).  So by induction on (position of J, |S|), with K before
        J, the rows written span every row beta_J a_S y^m in every degree.
        S contains J - K exactly when J - S lies in K, so each S is tested
        by one lookup of J - S among the subsets of the earlier maximal K.
        The beta row (J, S) is thus written for each negative J - S, from
        the first maximal J that holds it, and the rows are 2^n, one per
        fixed point.

        Subsets are bitmasks (subset_mask) throughout, so each entry's
        column is read at the sum of two masks, with no sorting.  The unit
        rows come first, in column order, then each maximal J in
        all_subsets order with its S by increasing size, the order
        graded_quotient keeps among rows of one degree and pivot.  The rows
        are shared by every degree and every caller, so a caller that
        changes a row copies it first, as echelon_basis does.
        """
        bits = [1 << i for i in range(1, self.n + 1)]
        basis = degree_basis(self.n, self.n)
        masks = [subset_mask(S) for S in basis]
        column = [None] * (2 << self.n)  # column[U], None at the alpha columns
        rows = []
        for i, (U, mu) in enumerate(zip(masks, self.moments)):
            if not mu:
                raise ZeroIsCritical(f"mu(J) is 0 at J = {list(basis[i])}")
            if mu > 0:
                rows.append((U.bit_count(), {i: 1}))
            else:
                column[U] = i
        earlier = set()  # the subsets of the maximal J before this one
        for J in masks:
            outside = [b for b in bits if not J & b]
            if column[J] is None or any(column[J + b] is not None for b in outside):
                continue
            inside = [b for b in bits if J & b]
            terms = [(sum(T), (-1) ** t)
                     for t in range(len(outside) + 1) for T in combinations(outside, t)]
            subsets = [sum(S) for k in range(len(inside) + 1) for S in combinations(inside, k)]
            for s in subsets:
                if J - s not in earlier:
                    rows.append((len(outside) + s.bit_count(),
                                 {c: sign for t, sign in terms if (c := column[s + t]) is not None}))
            earlier.update(subsets)
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
    cut by weighted moments do: 27 of the 280 weighted_cut_document(n, s)
    of tests/test_reduction.py, n = 2..8 and s < 40, make 1-6 swaps each,
    all at n >= 6, and n = 10, s = 0..5, make 45 in all.  echelon_basis
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
    minus those whose co-index already does.  It calls the deduction's one
    input check, require_binomial_counts, and the moment split on purpose,
    even where the presentation of the same data has just run them: this
    route reads the points' signs alone, not the subset sums that label
    them, so it cross-checks the quotient ranks independently.
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
