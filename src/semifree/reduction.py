"""Cohomology of the reduction at level zero.

The kernel of the surjection onto the reduced space's cohomology is spanned
by the upward classes at points above the level and the downward classes at
points below it.  The relations are read from fixed-point data alone, by
presentation_from_data; a model level (n, c) is the document
hypercube_data(n, c), whose n a caller bounds with require_reducible before
its 2^n points are listed.  Each graded piece of the quotient is a finite
integer linear-algebra problem: square-free monomials times powers of y
form a basis of the ambient degree slice, and the relations in it are
written in closed form from the generators' subsets.  Each degree's
monomials are the first monomials of the top degree's, so a relation's row
is the same in every degree that holds it: a presentation writes each row
once, on first use, tagged with its degree, and leaves out every row
beta_J a_S y^m that is already a combination of earlier rows.  On the
model levels measured (n <= 9), that leaves exactly as many rows in each
degree as the lattice has rank.  One integer echelon basis per degree gives
the free rank (its length), the torsion (Smith normal form of that basis
alone) and the canonical images of the Chern classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .algebra import echelon_basis, reduce_mod_rows, smith_normal_form
from .cube import chern_coefficient, degree_basis, subset_mask
from .errors import NotSemifree, ReductionTooLarge
from .fixed_points import FixedPointData, require_binomial_counts, split_by_moment_sign
from .pipeline import run_pipeline

# Largest n that require_reducible accepts.  On a 2-core Xeon (process wall
# time and ru_maxrss, three runs per level in each of two sessions, whose
# machine speed differed by up to 1.6x): `reduce --n 10` takes 0.8-1.3 s at
# its default level c = 11/2 and 0.6-1.0 s at c = 13/2, at 23-24 MB, and at
# most 0.6 s at its other eight regular levels; `--n 9` takes at most 0.4 s.
# `reduce FILE` takes 0.10-0.20 s at 19 MB on ten random-sign n = 10
# documents and 0.5-2.3 s at 23-28 MB on six n = 10 documents cut by a
# moment map with weights 1-3 (random_sign_document and weighted_cut_document
# in tests/test_reduction.py, seeds 8, 17, 26, 35, 100-105 and 0-5); the
# pipeline's pairing mislabels the families of such cuts, so these are
# timings of mislabelled families, not of the manifolds.  `--n 11`
# would take 2.5-4.7 s at c = 11/2, 3.6-6.4 s at c = 13/2 (41 MB) and
# 2.1-3.6 s at c = 15/2, and at most 1.5 s at its other eight levels.
MAX_REDUCE_N = 10


@dataclass(frozen=True)
class IdealPresentation:
    """Relations cutting out the reduced ring from Z[a_1..a_n, y].

    The rewrite relations a_i y - a_i^2 are absorbed by the monomials
    a_S y^(d - |S|), one per subset S; the two explicit families are the
    upward classes alpha_J of the mu-positive subsets and the downward
    classes beta_J of the mu-negative subsets.  A generator is its subset
    J, in all_subsets order, and `relations` writes the rows of every
    degree from J once per presentation.
    """

    n: int
    positive: tuple[frozenset, ...]  # J of alpha_J, mu(J) > 0
    negative: tuple[frozenset, ...]  # J of beta_J, mu(J) < 0

    @cached_property
    def relations(self) -> tuple[tuple[int, dict[int, int]], ...]:
        """Every relation row any degree needs, as (degree, row) pairs, each
        row a sparse map {column: +-1} over degree_basis(n, n).

        degree_basis(n, d) is the first entries of degree_basis(n, n), so a
        subset S has one column in every degree, and the row of a relation
        is the same sparse vector in every degree that contains it: the
        rows of degree d are the pairs tagged d or lower.

        The generators are alpha_J and beta_J by definition, and a monomial
        a_S y^m is fixed by S, so rows are written from J and S.  alpha_J
        a_S y^m is the unit row at J | S, tagged |J | S|.  beta_J is a
        multiple of beta_K for J < K, so only maximal negative J count, and
        a_j (y - a_j) = 0 makes beta_J a_S y^m zero unless S lies in J, when
        it is the sum over T in J^c of (-1)^|T| a_(S|T) y^(...), tagged
        |J^c| + |S|.  The unit rows make every alpha column zero in the
        quotient, so beta rows are written modulo them, without those
        columns.  A beta row keeps its column S unless S contains a
        positive J: on a model level every positive J is larger than every
        negative one, so no row is empty, and elsewhere echelon_basis drops
        an empty row.

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

        Subsets are bitmasks (subset_mask) throughout, so each entry's
        column is read at the sum of two masks, with no sorting.  Masks run
        by size, so every subset of a mask comes before it: the alpha
        columns are the up-closure of the positive J, and a run backwards
        finds the proper subsets of the negative J, leaving the maximal
        ones, each in one step per mask and element.  The unit rows come
        first, in column order, then each J in family order with its S by
        increasing size; see relation_rows for why.  The rows are shared by
        every degree and every caller, so a caller that changes a row copies
        it first, as echelon_basis does.
        """
        bits = [1 << i for i in range(1, self.n + 1)]
        masks = [subset_mask(S) for S in degree_basis(self.n, self.n)]
        alpha = {subset_mask(J) for J in self.positive}
        column = [None] * (2 << self.n)  # column[U], None at the alpha columns
        rows = []
        for i, U in enumerate(masks):
            if U in alpha:
                alpha.update(U | b for b in bits)
                rows.append((U.bit_count(), {i: 1}))
            else:
                column[U] = i
        negative = [subset_mask(J) for J in self.negative]
        below, negative_set = set(), set(negative)  # below: proper subsets of a negative J
        for U in reversed(masks):
            if U in negative_set or U in below:
                below.update(U - b for b in bits if U & b)
        maximal = [J for J in negative if J not in below]
        earlier = set()  # the subsets of the maximal J before this one
        for J in maximal:
            inside = [b for b in bits if J & b]
            outside = [b for b in bits if not J & b]
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
    it takes no part in equality.
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
    """Relations for semifree data with moment values: the deduction
    pipeline labels each point by a subset, and the point's moment sign puts
    the subset in one family.  The pipeline pairs the points, in their
    (index, id) order, with all_subsets, so each family is in that order.
    That pairing ignores the moment values, so the families are the
    manifold's only where the moment depends on the index alone, as on
    hypercube_data(n, c); elsewhere a point's sign may land on another
    point's subset."""
    subsets = run_pipeline(data)
    plus, minus = split_by_moment_sign(data)
    return IdealPresentation(data.n, tuple(subsets[p.id] for p in plus),
                             tuple(subsets[p.id] for p in minus))


def relation_rows(pres: IdealPresentation, d: int) -> list[dict[int, int]]:
    """Sparse rows {column: +-1} over degree_basis spanning the degree-d
    slice of the ideal: the rows of pres.relations of degree d or lower, in
    the order written there.

    That order, the unit rows first, then each J in family order with its S
    by increasing size, is the one echelon_basis was measured to take
    fastest on a 2-core Xeon, summed over the degrees of n = 10 documents:
    at the model level c = 13/2, where no row eliminates to zero, 0.77 s
    against 1.68 s for the reverse order; on six documents cut by a moment
    map with weights 1-3, whose families the pipeline mislabels (these are
    timings of mislabelled families), where up to 7 % of the rows
    eliminate to zero, 0.7-1.8 s against 2.9-629 s; on random-sign
    documents, where about half the rows eliminate to zero but each has at
    most four entries, 5-15 ms either way.  The lattice, and with it every rank, torsion factor and
    reduced class, does not depend on the order.
    """
    return [row for degree, row in pres.relations if degree <= d]


def graded_quotient(pres: IdealPresentation, max_degree: int) -> GradedQuotient:
    """Quotient ring data in cohomological degrees 0, 2, ..., max_degree.

    Each degree's relation rows go to echelon_basis in the order
    relation_rows writes them, unit rows first, which is the order measured
    to eliminate them fastest; on the model levels measured (n <= 9) none
    of them reduces to zero, and on other documents some may.
    Smith normal form then reads the torsion from that basis; it returns at
    once, with no elimination, when every pivot is 1, and makes its own
    passes only over a basis with a pivot above 1."""
    require_reducible(pres.n)
    ranks, torsion, bases = [], [], []
    for d in range(max_degree // 2 + 1):
        basis = echelon_basis(relation_rows(pres, d))
        factors = smith_normal_form(basis)
        ranks.append(len(degree_basis(pres.n, d)) - len(basis))
        torsion.append(tuple(f for f in factors if f > 1))
        bases.append(tuple(basis))
    return GradedQuotient(pres.n, tuple(ranks), tuple(torsion), tuple(bases))


def betti_by_counting(data: FixedPointData) -> tuple[int, ...]:
    """Ranks of degrees 0, 2, .., 2(n-1) of the reduced space, from fixed
    points alone.

    Rank 2i counts the downward-class basis elements that survive in degree
    2i: points below the level whose index allows an upward contribution
    minus those whose co-index already does.  The binomial-row check and
    the moment split are repeated here on purpose, even where the
    presentation of the same data has just run them: this route reads the
    document alone, not the pipeline's point -> subset map, so it
    cross-checks the quotient ranks independently.
    """
    if not data.semifree:
        raise NotSemifree("counting formula requires semifree data")
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
