import functools
import hashlib
import heapq
import math
import random
import time
from fractions import Fraction

import pytest

from semifree import algebra, reduction
from semifree.cli import main, parse_document
from semifree.algebra import Term, echelon_basis, reduce_mod_rows, smith_normal_form
from semifree.cube import (
    CubeClass,
    all_subsets,
    alpha_class,
    beta_class,
    hypercube_data,
)
from semifree.errors import (MissingMomentValue, MomentMismatch, NotSemifree,
                             ReductionTooLarge, ZeroIsCritical)
from semifree.fixed_points import FixedPoint, FixedPointData
from semifree.localization import RestrictionAssignment, integrate
from semifree.reduction import (
    GradedQuotient,
    IdealPresentation,
    betti_by_counting,
    degree_basis,
    MAX_REDUCE_N,
    graded_quotient,
    poincare_check,
    presentation_from_data,
    reduced_chern_series,
)


def half_integers(n):
    return [Fraction(2 * k + 1, 2) for k in range(n)]


def model_presentation(n, c):
    """The relations at the model level (n, c), read from its document."""
    return presentation_from_data(hypercube_data(n, c))


def sparse(row):
    return dict(enumerate(row))


def families(pres):
    """The J of mu(J) > 0 and of mu(J) < 0, each in all_subsets order: the
    points above and below the level, read from the moment sums."""
    pairs = list(zip(all_subsets(pres.n), pres.moments, strict=True))
    return tuple(J for J, m in pairs if m > 0), tuple(J for J, m in pairs if m < 0)


def rows_of_degree(pres, d):
    """The rows of the degree-d slice of the ideal: those of pres.relations
    tagged d or lower, in the order written there."""
    return [row for degree, row in pres.relations if degree <= d]


def product_rows(pres, d):
    """Every generator alpha_J, beta_J times every complementary-degree
    monomial, multiplied out by CubeClass, zero and repeated products
    included."""
    index = {b: i for i, b in enumerate(degree_basis(pres.n, d))}
    positive, negative = families(pres)
    gens = [alpha_class(J) for J in positive] + [beta_class(J, pres.n) for J in negative]
    rows = []
    for gen in gens:
        g = gen.degree
        for S in degree_basis(pres.n, d - g) if g <= d else ():
            product = gen * CubeClass({S: 1}, d - g)
            rows.append({index[key]: c for key, c in product.terms.items()})
    return rows


def assert_same_lattice(pres, d):
    ncols = len(degree_basis(pres.n, d))
    ours, reference = rows_of_degree(pres, d), product_rows(pres, d)
    for rows, other in ((ours, reference), (reference, ours)):
        basis = echelon_basis(other)
        for row in rows:
            vec = [row.get(j, 0) for j in range(ncols)]
            assert not any(reduce_mod_rows(vec, basis)), (pres.n, d, row)


def assert_only_unit_rows_meet_alpha_columns(pres, d):
    """The rows with an entry at a column a_S y^m, S containing a positive
    J, are the unit rows at those columns, one each: beta rows are written
    modulo the alpha rows."""
    positive, _ = families(pres)
    alpha = [i for i, S in enumerate(degree_basis(pres.n, d))
             if any(J <= set(S) for J in positive)]
    meeting = [row for row in rows_of_degree(pres, d) if row.keys() & set(alpha)]
    assert sorted(tuple(row.items()) for row in meeting) == [((i, 1),) for i in alpha]


def random_sign_document(n, seed):
    """The hypercube's points under shuffled ids, with random moment signs:
    no additive moment, so presentation_from_data refuses it."""
    rng = random.Random(seed)
    points = list(hypercube_data(n).points)
    rng.shuffle(points)
    return FixedPointData(n, tuple(
        FixedPoint(f"z{i}", p.weights,
                   Fraction(rng.choice((-1, 1)) * (2 * rng.randrange(3) + 1), 2))
        for i, p in enumerate(points)
    ))


def weighted_cut_document(n, seed):
    """The hypercube's points under shuffled ids, with moment value the sum
    of random weights w_i in {1, 2, 3} over the coordinates where the
    point's weight is negative, less a half-integer c near the middle: an
    additive moment with lambda_i = w_i that does not depend on the index
    alone."""
    rng = random.Random(seed)
    w = [rng.choice((1, 2, 3)) for _ in range(n)]
    c = Fraction(2 * (sum(w) // 2) + 1, 2)
    points = list(hypercube_data(n).points)
    rng.shuffle(points)
    return FixedPointData(n, tuple(
        FixedPoint(f"z{i}", p.weights, sum(x for x, e in zip(w, p.weights) if e < 0) - c)
        for i, p in enumerate(points)
    ))


def scaled_cube_document(n, seed):
    """A regular level of the hypercube under shuffled ids, its moments
    |J| - c scaled by a positive rational."""
    rng = random.Random(seed)
    c = Fraction(2 * rng.randrange(n) + 1, 2)
    scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    points = list(hypercube_data(n, c).points)
    rng.shuffle(points)
    return FixedPointData(n, tuple(FixedPoint(f"z{i}", p.weights, scale * p.moment_value)
                                   for i, p in enumerate(points)))


def random_moment_presentation(n, seed):
    """The presentation of a random additive moment, over the denominator
    2: areas 1..6, and mu(empty) a negative half-integer from -1/2, the
    bottom point alone below the level, down to every point below it.  No
    subset sum is 0, and the sign pattern is random among those of
    additive moments."""
    rng = random.Random(seed)
    areas = [rng.randint(1, 6) for _ in range(n)]
    return IdealPresentation(n, tuple(2 * a for a in areas), -2 * rng.randrange(sum(areas) + 1) - 1)


def renamed_families(data):
    """The families of a document of the hypercube's points, each point
    labelled by the spheres where its weight is negative, sphere k renamed
    i where the i-th index-2 point, in (index, id) order, is negative: the
    labelling presentation_from_data reads from an additive moment."""
    n = data.n
    sphere = [p.weights.index(-1) for p in data.points[1:n + 1]]
    moment = {tuple(w < 0 for w in p.weights): p.moment_value for p in data.points}
    subsets = all_subsets(n)
    mu = [moment[tuple(any(sphere[i - 1] == k for i in J) for k in range(n))] for J in subsets]
    return (tuple(J for J, m in zip(subsets, mu) if m > 0),
            tuple(J for J, m in zip(subsets, mu) if m < 0))


def y_minus_a(I):
    """The product of y - a_i over i in I, multiplied out by CubeClass."""
    product = CubeClass.unit()
    for i in sorted(I):
        product = product * (CubeClass.gen_y() - CubeClass.gen_a(i))
    return product


class TestBetaSyzygy:
    """Two downward classes agree once each is multiplied up to the product
    over the complement of their intersection; for T in J it writes beta_T
    as beta_J times the product of y - a_i over i in J - T, the identity
    that IdealPresentation.relations spans each beta_T by."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_identity_for_every_ordered_pair(self, n):
        subsets = all_subsets(n)
        for J in subsets:
            for K in subsets:
                if J != K:
                    left = beta_class(J, n) * y_minus_a(J - K)
                    assert left == beta_class(K, n) * y_minus_a(K - J), (J, K)
                    assert left == y_minus_a(set(range(1, n + 1)) - (J & K)), (J, K)


class TestKernelGenerators:
    """The two generator families of the kernel at a model level."""

    def test_n1(self):
        positive, negative = families(model_presentation(1, Fraction(1, 2)))
        assert positive == (frozenset({1}),)
        assert alpha_class(positive[0]) == CubeClass.gen_a(1)
        assert negative == (frozenset(),)
        assert beta_class(negative[0], 1) == CubeClass.gen_y() - CubeClass.gen_a(1)

    def test_n3_balanced_counts(self):
        positive, negative = families(model_presentation(3, Fraction(3, 2)))
        assert len(positive) == 4
        assert all(len(J) >= 2 for J in positive)
        assert len(negative) == 4
        assert all(len(J) <= 1 for J in negative)

    def test_integer_offset_rejected(self):
        # the document of an integral offset has points at moment 0; the
        # first of them in (index, id) order is named
        with pytest.raises(ZeroIsCritical, match="point 'p1' has moment value 0"):
            presentation_from_data(hypercube_data(2, 1))

    def test_integral_offset_outside_the_range_is_the_empty_space(self):
        # no point sits at moment 0, and every point lies below the level,
        # as at the half-integral level c = 7/2
        q = graded_quotient(presentation_from_data(hypercube_data(3, 5)), 4)
        assert q == graded_quotient(model_presentation(3, Fraction(7, 2)), 4)
        assert q.ranks == (0, 0, 0)


class TestGradedQuotient:
    def test_n1_point(self):
        pres = model_presentation(1, Fraction(1, 2))
        q = graded_quotient(pres, 0)
        assert q.ranks == (1,)
        assert q.torsion == ((),)
        # degree 1 and above vanish
        assert graded_quotient(pres, 4).ranks == (1, 0, 0)[:3]

    def test_n3_balanced(self):
        pres = model_presentation(3, Fraction(3, 2))
        q = graded_quotient(pres, 4)
        assert q.ranks == (1, 4, 1)
        assert all(not t for t in q.torsion)
        assert q.euler_characteristic == 6

    def test_n2_low_level_sphere(self):
        pres = model_presentation(2, Fraction(1, 2))
        q = graded_quotient(pres, 2)
        assert q.ranks == (1, 1)

    def test_bases_take_no_part_in_equality(self):
        pres = model_presentation(3, Fraction(3, 2))
        q = graded_quotient(pres, 4)
        assert len(q.bases) == 3
        assert q == GradedQuotient(3, (1, 4, 1), ((), (), ()))

    @staticmethod
    def smith_passes(pres, max_degree, monkeypatch):
        """graded_quotient of pres, and for each degree the number of
        echelon passes Smith normal form made over its basis."""
        passes, calls = [], []
        monkeypatch.setattr(algebra, "echelon_basis",
                            lambda rows: passes.append(1) or echelon_basis(rows))

        def spy(rows):
            passes.clear()
            factors = smith_normal_form(rows)
            calls.append(len(passes))
            return factors

        monkeypatch.setattr(reduction, "smith_normal_form", spy)
        q = graded_quotient(pres, max_degree)
        assert len(calls) == len(q.bases)
        for basis, torsion in zip(q.bases, q.torsion, strict=True):
            assert torsion == tuple(f for f in smith_normal_form(basis) if f > 1)
        return q, calls

    @pytest.mark.parametrize("seed", (34, 160, 188, 209, 258))
    def test_smith_normal_form_eliminates_only_where_a_pivot_is_above_one(self, seed,
                                                                         monkeypatch):
        # the true families of these weighted cuts have unit pivots in every
        # degree, as every document tried so far, so Smith normal form takes
        # each basis with no elimination pass; crafted rows reach a pivot
        # above 1 in the tests below
        pres = presentation_from_data(weighted_cut_document(7, seed))
        q, calls = self.smith_passes(pres, 14, monkeypatch)
        assert all(algebra._unit_pivots(basis) for basis in q.bases)
        assert calls == [0] * len(q.bases)

    # The crafted rows replace the relations of the level 3/2 of (S^2)^2,
    # over the columns 1, a_1, a_2 (degree 1) and a_1 a_2 (degree 2).
    @staticmethod
    def crafted(*rows):
        pres = IdealPresentation(2, (2, 2), -3)
        vars(pres)["relations"] = rows
        return pres

    def test_a_pivot_of_two_leaves_no_torsion(self, monkeypatch):
        # the basis {2 + a_1} has pivot 2 but spans a saturated lattice
        q, calls = self.smith_passes(self.crafted((1, {0: 2, 1: 1})), 4, monkeypatch)
        assert q.bases == ((), ({0: 2, 1: 1},), ({0: 2, 1: 1},))
        assert (q.ranks, q.torsion) == ((1, 2, 3), ((), (), ()))
        assert calls[0] == 0 and calls[1] > 0 and calls[2] > 0
        assert poincare_check(q) is False  # ranks 1, 2 are not symmetric at n = 2

    def test_a_basis_with_torsion(self, monkeypatch):
        # 2 + a_1 and a_1 span 2 and a_1: Z/2 in degrees 1 and 2
        q, calls = self.smith_passes(self.crafted((1, {0: 2, 1: 1}), (1, {1: 1})), 4, monkeypatch)
        assert q.ranks == (1, 1, 2)
        assert q.torsion == ((), (2,), (2,))
        assert calls[0] == 0 and calls[1] > 0 and calls[2] > 0
        assert not poincare_check(q)

    def test_size_guard(self):
        # the bound is the presentation's own: none above it is built
        with pytest.raises(ReductionTooLarge, match=f"n={MAX_REDUCE_N + 1} exceeds"):
            IdealPresentation(MAX_REDUCE_N + 1, (1,) * (MAX_REDUCE_N + 1), -1)

    def test_data_above_the_size_bound_is_refused(self):
        with pytest.raises(ReductionTooLarge, match=f"n={MAX_REDUCE_N + 1} exceeds"):
            presentation_from_data(hypercube_data(MAX_REDUCE_N + 1, Fraction(MAX_REDUCE_N + 1, 2)))

    def test_a_presentation_far_above_the_bound_is_refused_at_once(self):
        # writing the 2^18 relation rows of this one took about 30 s
        start = time.perf_counter()
        with pytest.raises(ReductionTooLarge, match="n=18 exceeds"):
            IdealPresentation(18, (2,) * 18, -19)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("areas", [(1,), (1, 2, 0), (3, -1, 2), (1, 1, 1, 1)])
    def test_holds_n_positive_areas(self, areas):
        # the sign pattern of an additive moment needs n positive areas
        with pytest.raises(MomentMismatch, match="are not 3 positive numbers"):
            IdealPresentation(3, areas, -1)

    def test_a_zero_subset_sum_is_critical(self):
        # mu({1}) = -2 + 2 = 0: the level is critical, whichever J has it
        pres = IdealPresentation(2, (2, 3), -2)
        with pytest.raises(ZeroIsCritical, match=r"mu\(J\) is 0 at J = \[1\]"):
            graded_quotient(pres, 2)
        assert pres.moments == (-2, 0, 1, 3)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_beta_rows_avoid_the_alpha_columns_on_model_levels(self, n):
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for d in range(n + 1):
                assert_only_unit_rows_meet_alpha_columns(pres, d)

    @pytest.mark.parametrize("seed", range(24))
    def test_beta_rows_avoid_the_alpha_columns_for_random_signs(self, seed):
        n = 2 + seed % 4
        pres = random_moment_presentation(n, seed)
        for d in range(n + 1):
            assert_only_unit_rows_meet_alpha_columns(pres, d)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_relation_rows_are_nonzero_and_distinct(self, n):
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for d in range(n):
                rows = [frozenset(row.items()) for row in rows_of_degree(pres, d)]
                assert all(row for row in rows)
                assert all(e in (1, -1) for row in rows for _, e in row)
                assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_relation_rows_span_the_generator_products(self, n):
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for d in range(n + 1):
                assert_same_lattice(pres, d)

    @pytest.mark.parametrize("seed", range(24))
    def test_relation_rows_span_the_products_for_random_signs(self, seed):
        n = 2 + seed % 4
        pres = random_moment_presentation(n, seed)
        for d in range(n + 1):
            assert_same_lattice(pres, d)

    @pytest.mark.parametrize("seed", range(12))
    def test_relation_rows_span_the_products_for_weighted_cuts(self, seed):
        n = 2 + seed % 4
        pres = presentation_from_data(weighted_cut_document(n, seed))
        for d in range(n + 1):
            assert_same_lattice(pres, d)

    @staticmethod
    def assert_no_redundant_row(pres):
        for d in range(pres.n + 1):
            rows = rows_of_degree(pres, d)
            assert len(echelon_basis(rows)) == len(rows), (pres, d)

    # The rows tagged d or lower are independent exactly when the quotient
    # ranks equal betti_by_counting's: with one row per point, tagged |T| or
    # n - |T|, its count in degree d is len(degree_basis(n, d)) less the
    # number of those rows, so every reduce run that passes the counting
    # check certifies them, and these tests check it on more levels
    @pytest.mark.parametrize("n", range(1, 8))
    def test_model_levels_write_no_redundant_row(self, n):
        for c in half_integers(n):
            self.assert_no_redundant_row(model_presentation(n, c))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_moment_families_write_no_redundant_row(self, n):
        for seed in range(4):
            self.assert_no_redundant_row(presentation_from_data(weighted_cut_document(n, seed)))
            self.assert_no_redundant_row(random_moment_presentation(n, seed))

    @staticmethod
    def assert_one_row_per_fixed_point(pres):
        """relations[i] is the row of the i-th point T of all_subsets(n),
        computed here from CubeClass: the unit row at T, tagged |T|, above
        the level, and below it beta_J a_(J - T) multiplied out, without
        the alpha columns, tagged n - |T|, J = greedy(T) holding J - T.
        greedy(T') = greedy(T) for every T <= T' <= greedy(T)."""
        n = pres.n
        below = set(families(pres)[1])
        subsets = all_subsets(n)
        column = {J: i for i, J in enumerate(subsets)}

        def greedy(T):
            J = T
            for i in range(1, n + 1):
                if J | {i} in below:
                    J |= {i}
            return J

        assert len(pres.relations) == 2**n
        for i, (T, (degree, row)) in enumerate(zip(subsets, pres.relations)):
            if T not in below:
                assert (degree, row) == (len(T), {i: 1}), T
                continue
            J = greedy(T)
            product = beta_class(J, n) * alpha_class(J - T)
            assert degree == n - len(T) == product.degree, T
            assert row == {column[frozenset(S)]: e for S, e in product.terms.items()
                           if frozenset(S) in below}, T
            assert column[J - T] in row, T
            assert all(greedy(T | D) == J for D in all_subsets(n) if D <= J - T), T

    def test_model_levels_write_one_row_per_fixed_point(self):
        levels = [(n, c) for n in range(1, 11) for c in half_integers(n)]
        assert len(levels) == 55
        for n, c in levels:
            pres = model_presentation(n, c)
            if n <= 7:
                self.assert_one_row_per_fixed_point(pres)
            assert len(pres.relations) == 2**n, (n, c)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_moment_families_write_one_row_per_fixed_point(self, n):
        for seed in range(10):
            pres = presentation_from_data(weighted_cut_document(n, seed))
            self.assert_one_row_per_fixed_point(pres)
            self.assert_one_row_per_fixed_point(random_moment_presentation(n, seed))

    def test_rows_of_a_level_with_unequal_areas(self):
        # (S^2)^3 with areas 1, 1, 2 at the level 5/2: below it lie the empty
        # set, {1}, {2}, {3} and {1, 2}; all but {3} grow greedily to
        # J = {1, 2}, and {3} stays {3}, as {1, 3} and {2, 3} lie above
        pres = IdealPresentation(3, (2, 2, 4), -5)
        assert pres.relations == (
            (3, {4: 1}),  # beta_12 a_12 = a_1 a_2 (y - a_3), less a_123
            (2, {2: 1}), (2, {1: 1}),  # beta_12 a_2 and beta_12 a_1, likewise
            (2, {0: 1, 1: -1, 2: -1, 4: 1}),  # beta_3 = (y - a_1)(y - a_2)
            (1, {0: 1, 3: -1}),  # beta_12 = y - a_3
            (2, {5: 1}), (2, {6: 1}), (3, {7: 1}))  # alpha_13, alpha_23, alpha_123
        for d in range(4):
            assert_same_lattice(pres, d)

    def test_degree_basis_sizes(self):
        assert len(degree_basis(3, 0)) == 1
        assert len(degree_basis(3, 1)) == 4  # a1, a2, a3, y
        assert len(degree_basis(3, 2)) == 7
        assert degree_basis(3, 1) == [(), (1,), (2,), (3,)]
        # each degree's monomials are the first of the top degree's, so a
        # subset has one column in every degree
        for n in range(1, 9):
            top = degree_basis(n, n)
            for d in range(n + 1):
                assert degree_basis(n, d) == top[:len(degree_basis(n, d))]


class TestBettiByCounting:
    @pytest.mark.parametrize("i,expected", [(0, 1), (1, 4), (2, 1)])
    def test_n3_balanced(self, i, expected):
        data = hypercube_data(3, Fraction(3, 2))
        assert betti_by_counting(data)[i] == expected

    def test_rejects_non_semifree(self):
        data = FixedPointData(3, (FixedPoint("a", (1, 1, -2), Fraction(-1)),
                                  FixedPoint("b", (-1, -1, 2), Fraction(1))))
        with pytest.raises(NotSemifree) as caught:
            betti_by_counting(data)
        assert str(caught.value) == "the deduction applies to semifree data only"

    def test_requires_moment_values(self):
        with pytest.raises(MissingMomentValue):
            betti_by_counting(hypercube_data(2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_agrees_with_quotient_all_levels(self, n):
        for c in half_integers(n):
            pres = model_presentation(n, c)
            q = graded_quotient(pres, 2 * (n - 1))
            data = hypercube_data(n, c)
            assert betti_by_counting(data) == q.ranks, (n, c)
            assert all(not t for t in q.torsion)

    @pytest.mark.parametrize("document", (weighted_cut_document, scaled_cube_document))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_counts_the_columns_less_the_rows(self, document, n):
        # the count in degree 2d is the number of columns less the number of
        # relation rows tagged d or lower, so it is the quotient rank exactly
        # when those rows are independent
        for seed in range(4):
            data = document(n, seed)
            pres = presentation_from_data(data)
            assert betti_by_counting(data) == tuple(
                len(degree_basis(n, d)) - len(rows_of_degree(pres, d)) for d in range(n))


class TestReducedChern:
    def test_n1_vanishing(self):
        pres = model_presentation(1, Fraction(1, 2))
        assert reduced_chern_series(graded_quotient(pres, 2)) == [(0, 0)]

    def test_n3_nonzero_first_class(self):
        pres = model_presentation(3, Fraction(3, 2))
        c1, c2 = reduced_chern_series(graded_quotient(pres, 4))
        assert any(c != 0 for c in c1)
        assert len(c2) == 7  # over the degree-2 monomials

    def test_unit_class_degreezero(self):
        # degree-0 statement: the empty product is the unit, untouched by
        # relations of positive degree
        pres = model_presentation(2, Fraction(3, 2))
        q = graded_quotient(pres, 0)
        assert q.bases == ((),)
        assert reduce_mod_rows([1], q.bases[0]) == [1]

    def test_covers_every_degree_computed(self):
        # c_i for i = 1..min(n, computed): none at degree 0, c_1 at degree
        # 2, and c_1..c_n when degrees above the top are computed too
        pres = model_presentation(3, Fraction(3, 2))
        assert reduced_chern_series(graded_quotient(pres, 0)) == []
        assert len(reduced_chern_series(graded_quotient(pres, 2))) == 1
        assert len(reduced_chern_series(graded_quotient(pres, 10))) == 3


def relations_presentations(group):
    """The presentations whose relations RELATIONS_DIGESTS freezes: every
    regular level n <= 9, and the weighted cuts of sizes 1..9 by seed."""
    if group == "model levels":
        return [model_presentation(n, c) for n in range(1, 10) for c in half_integers(n)]
    return [presentation_from_data(weighted_cut_document(1 + seed % 9, seed)) for seed in range(40)]


# sha256 over each presentation's relations as (degree, list(row.items()))
# pairs: the rows, their order and the key order inside each row, frozen
# from the presentation that writes each point's row from its greedy set
RELATIONS_DIGESTS = {
    "model levels": "b66b9eb5e4e1fd6d80aad89aa79290f9ec4e31c88d357ab461da2aa72b00a2ca",
    "weighted cuts": "0696816ba4d2fcba2a1653748d1be10e6c5e05a0f3748c0f638095e65e9f4a5d",
}


@pytest.mark.parametrize("group", RELATIONS_DIGESTS)
def test_relations_are_frozen(group):
    digest = hashlib.sha256()
    for pres in relations_presentations(group):
        rows = [(degree, list(row.items())) for degree, row in pres.relations]
        digest.update(repr(rows).encode())
    assert digest.hexdigest() == RELATIONS_DIGESTS[group]


def test_model_level_row_sets_are_frozen():
    # sha256 over each model level's relations as sorted (degree,
    # sorted(row.items())) pairs: the set of rows alone, frozen from the
    # presentation that scanned the maximal sets below the level, which
    # wrote the same rows in another order
    digest = hashlib.sha256()
    for pres in relations_presentations("model levels"):
        digest.update(repr(sorted((degree, sorted(row.items()))
                                  for degree, row in pres.relations)).encode())
    assert digest.hexdigest() == (
        "78886ff410455c3cf6b258ac6f63d4b739306dd204e07d64947e76e077ab32ec")


def quotient_with_rows(pres, reorder):
    """Ranks, torsion and reduced Chern classes of pres in every degree up to
    n, each degree's rows reordered and eliminated afresh."""
    q = per_degree_reference(pres, 2 * pres.n, reorder)
    return q.ranks, q.torsion, reduced_chern_series(q)


# relations writes one row per point, in all_subsets order; the lattice,
# and with it every result, is the same in that order, reversed and shuffled
ROW_ORDERS = {
    "written": lambda rows: rows,
    "reversed": lambda rows: rows[::-1],
    "shuffled": lambda rows: random.Random(len(rows)).sample(rows, len(rows)),
}


class TestRowOrder:
    def assert_order_free(self, pres):
        results = {name: quotient_with_rows(pres, order) for name, order in ROW_ORDERS.items()}
        assert results["reversed"] == results["written"] == results["shuffled"]
        q = graded_quotient(pres, 2 * pres.n)
        assert (q.ranks, q.torsion, reduced_chern_series(q)) == results["written"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_model_levels(self, n):
        for c in half_integers(n):
            self.assert_order_free(model_presentation(n, c))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_signs(self, seed):
        self.assert_order_free(random_moment_presentation(1 + seed % 6, seed))

    @staticmethod
    def assert_degrees_keep_the_order(pres):
        # the rows of degree d appear among those of degree d + 1 in the
        # order written there, matched in turn
        for d in range(pres.n):
            above = iter(rows_of_degree(pres, d + 1))
            assert all(any(row == other for other in above) for row in rows_of_degree(pres, d)), d

    @pytest.mark.parametrize("n", range(1, 8))
    def test_degrees_keep_the_order_on_model_levels(self, n):
        for c in half_integers(n):
            self.assert_degrees_keep_the_order(model_presentation(n, c))

    @pytest.mark.parametrize("seed", range(12))
    def test_degrees_keep_the_order_for_random_signs_and_weighted_cuts(self, seed):
        n = 1 + seed % 7
        self.assert_degrees_keep_the_order(random_moment_presentation(n, seed))
        self.assert_degrees_keep_the_order(presentation_from_data(weighted_cut_document(n, seed)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_smith_normal_form_makes_no_column_pass_on_model_levels(self, n, monkeypatch):
        # every pivot of a model level's echelon basis is 1, so Smith normal
        # form returns before any echelon pass, over the rows or the columns
        calls = []
        monkeypatch.setattr(algebra, "echelon_basis",
                            lambda rows: calls.append(1) or echelon_basis(rows))
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for d in range(n + 1):
                basis = echelon_basis(rows_of_degree(pres, d))
                calls.clear()
                assert smith_normal_form(basis) == (1,) * len(basis)
                assert calls == [], (n, c, d)
        calls.clear()
        assert smith_normal_form([{0: 2, 1: 1}, {1: 1}]) == (1, 2)
        assert len(calls) > 1


def per_degree_reference(pres, max_degree, reorder=lambda rows: rows):
    """Each degree's rows eliminated afresh, written here from echelon_basis
    and rows_of_degree alone, reordered by reorder, as a GradedQuotient."""
    bases = [echelon_basis(reorder(rows_of_degree(pres, d))) for d in range(max_degree // 2 + 1)]
    return GradedQuotient(
        pres.n,
        tuple(len(degree_basis(pres.n, d)) - len(basis) for d, basis in enumerate(bases)),
        tuple(tuple(f for f in smith_normal_form(basis) if f > 1) for basis in bases),
        tuple(map(tuple, bases)))


def reduces_to_zero(row, by_pivot):
    """Whether the sparse row reduces to 0 modulo the echelon basis given as
    {pivot: row}, column by column from the smallest: reduce_mod_rows on
    sparse rows, which takes a fraction of a second on the n = 10 bases
    where the dense one takes seconds."""
    v, columns = dict(row), list(row)
    heapq.heapify(columns)
    while columns:
        c = heapq.heappop(columns)
        if not (e := v.pop(c, 0)):
            continue
        p = by_pivot.get(c)
        if p is None or e % p[c]:
            return False
        for j, b in p.items():
            if j != c:
                if j not in v:
                    heapq.heappush(columns, j)
                v[j] = v.get(j, 0) - e // p[c] * b
    return True


def assert_same_row_lattice(first, second):
    for rows, other in ((first, second), (second, first)):
        by_pivot = {min(row): row for row in other}
        for row in rows:
            assert reduces_to_zero(row, by_pivot), row


def spy_on_elimination(monkeypatch):
    """Each call reduction makes to echelon_basis, as (kept, rows fed)."""
    calls = []

    def spy(rows, kept=None):
        rows = list(rows)
        calls.append((kept, rows))
        return echelon_basis(rows, kept)

    monkeypatch.setattr(reduction, "echelon_basis", spy)
    return calls


class KeptRows(dict):
    """A basis {pivot: row} for echelon_basis to extend that counts the rows
    replaced in it, one per Euclid swap."""
    replaced = 0

    def __setitem__(self, pivot, row):
        self.replaced += pivot in self
        super().__setitem__(pivot, row)


@functools.cache
def top_quotient(n, c):
    """graded_quotient of the model level (n, c) up to its top degree 2(n-1)."""
    return graded_quotient(model_presentation(n, c), 2 * (n - 1))


class TestExtendedBasis:
    """graded_quotient extends one echelon basis degree by degree, feeding
    each relation row once, and gives what eliminating each degree's rows
    afresh gives."""

    @pytest.mark.parametrize("n,c", [(n, c) for n in range(1, 10) for c in half_integers(n)]
                             + [(10, Fraction(11, 2))])
    def test_matches_the_per_degree_reference(self, n, c):
        q = top_quotient(n, c)
        pres = model_presentation(n, c)
        reference = per_degree_reference(pres, 2 * (n - 1))
        assert q.ranks == reference.ranks
        assert q.torsion == reference.torsion
        assert reduced_chern_series(q) == reduced_chern_series(reference)
        for d, (basis, other) in enumerate(zip(q.bases, reference.bases, strict=True)):
            assert algebra._unit_pivots(basis), d
            assert_same_row_lattice(basis, other)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_row_is_fed_once(self, n, monkeypatch):
        calls = spy_on_elimination(monkeypatch)
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for max_degree in (0, 3, 2 * (n - 1), 2 * n):
                calls.clear()
                top = max_degree // 2
                graded_quotient(pres, max_degree)
                assert len(calls) == top + 1
                kept = calls[0][0]
                assert kept is not None and all(k is kept for k, _ in calls)
                fed = [id(row) for _, rows in calls for row in rows]
                assert sorted(fed) == sorted(id(row) for degree, row in pres.relations
                                             if degree <= top)
                # each degree's rows by pivot, largest first, ties in the
                # order written
                for d, (_, rows) in enumerate(calls):
                    tagged = [row for degree, row in pres.relations if degree == d]
                    assert [id(row) for row in rows] == [
                        id(row) for row in sorted(tagged, key=min, reverse=True)], d

    @pytest.mark.parametrize("document", (weighted_cut_document, scaled_cube_document))
    @pytest.mark.parametrize("n", (4, 6, 8))
    def test_moment_families_match_the_per_degree_reference(self, document, n):
        for seed in range(4):
            pres = presentation_from_data(document(n, seed))
            q = graded_quotient(pres, 2 * (n - 1))
            assert q == per_degree_reference(pres, 2 * (n - 1))

    def test_a_euclid_swap_leaves_earlier_bases_unchanged(self):
        # no regular model level n <= 10 makes a Euclid swap, and each swap
        # of the documents cut by weighted moments that make one (24 of
        # weighted_cut_document(n, s), n = 2..8, s < 40, all at n >= 6)
        # displaces a row kept in the same degree, so these rows are crafted:
        # the degree-2 row {0: 3, 3: 1} leaves remainder 1 at column 0 against
        # the kept degree-1 row {0: 2, 1: 1}, which is displaced and reduced
        # further while the degree-1 basis still holds it
        pres = IdealPresentation(2, (2, 2), -3)
        vars(pres)["relations"] = ((1, {0: 2, 1: 1}), (2, {0: 3, 3: 1}))
        q = graded_quotient(pres, 4)
        assert q.bases == ((), ({0: 2, 1: 1},), ({0: 1, 1: -1, 3: 1}, {1: 3, 3: -2}))
        reference = per_degree_reference(pres, 4)
        assert (q.ranks, q.torsion) == (reference.ranks, reference.torsion)
        for basis, other in zip(q.bases, reference.bases, strict=True):
            assert_same_row_lattice(basis, other)
        assert vars(pres)["relations"] == ((1, {0: 2, 1: 1}), (2, {0: 3, 3: 1}))

    @pytest.mark.parametrize("n,seed", [(6, 8), (8, 23)])
    def test_snapshots_after_a_euclid_swap_on_moment_families(self, n, seed, monkeypatch):
        # reduce accepts these documents, and each makes one Euclid swap
        kept = KeptRows()
        monkeypatch.setattr(reduction, "echelon_basis", lambda rows, _: echelon_basis(rows, kept))
        pres = presentation_from_data(weighted_cut_document(n, seed))
        q = graded_quotient(pres, 2 * (n - 1))
        assert kept.replaced == 1
        reference = per_degree_reference(pres, 2 * (n - 1))
        assert q == reference
        for basis, other in zip(q.bases, reference.bases, strict=True):
            assert_same_row_lattice(basis, other)
        assert reduced_chern_series(q) == reduced_chern_series(reference)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_entries_stay_small_on_model_levels(self, n):
        # measured, not proved: the largest entry of any basis on the
        # regular levels n <= 9 is 5, in this order and per degree alike
        for c in half_integers(n):
            q = top_quotient(n, c)
            assert max((abs(e) for basis in q.bases for row in basis for e in row.values()),
                       default=0) <= 5, (n, c)


class TestPoincare:
    def test_n3_balanced(self):
        pres = model_presentation(3, Fraction(3, 2))
        q = graded_quotient(pres, 4)
        assert q.ranks == (1, 4, 1)
        assert poincare_check(q) is True

    def test_n2_low_level(self):
        pres = model_presentation(2, Fraction(1, 2))
        q = graded_quotient(pres, 2)
        assert poincare_check(q)

    def test_constructed_violation(self):
        fake = GradedQuotient(2, (1, 2), ((), ()))
        assert not poincare_check(fake)

    def test_torsion_fails(self):
        # symmetric ranks, but Z/2 in degree 0
        assert poincare_check(GradedQuotient(2, (1, 1), ((2,), ()))) is False

    def test_degrees_not_computed_are_not_compared(self):
        # n = 4 has degrees 0..3; ranks up to 2 pair only 1 with 2
        assert poincare_check(GradedQuotient(4, (1, 5, 5), ((), (), ())))
        assert poincare_check(GradedQuotient(4, (1,), ((),)))
        assert not poincare_check(GradedQuotient(4, (1, 5, 4), ((), (), ())))

    def test_reads_n_from_the_quotient(self):
        # ranks (1, 4, 2) at n = 3 pair 1 with 2: not symmetric
        assert not poincare_check(GradedQuotient(3, (1, 4, 2), ((), (), ())))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_regular_levels(self, n):
        for c in half_integers(n):
            pres = model_presentation(n, c)
            q = graded_quotient(pres, 2 * (n - 1))
            assert poincare_check(q), (n, c)


class TestPresentationFromData:
    def test_matches_model_presentation(self):
        data = hypercube_data(3, Fraction(3, 2))
        pres = presentation_from_data(data)
        # the moments |J| - 3/2 over the denominator 2
        assert pres == IdealPresentation(3, (2, 2, 2), -3)
        subsets = all_subsets(3)
        assert families(pres) == (tuple(J for J in subsets if len(J) >= 2),
                                  tuple(J for J in subsets if len(J) <= 1))
        q = graded_quotient(pres, 4)
        assert q.ranks == (1, 4, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_families_split_by_size_in_all_subsets_order(self, n):
        # relations writes rows in the families' order, and row order moves
        # the time of echelon_basis: both families stay in all_subsets
        # order, however the document's points are named and listed
        rng = random.Random(n)
        for c in half_integers(n):
            points = list(hypercube_data(n, c).points)
            rng.shuffle(points)
            relabelled = FixedPointData(n, tuple(
                FixedPoint(f"q{rng.randrange(10**6)}_{i}", p.weights, p.moment_value)
                for i, p in enumerate(points)))
            subsets = all_subsets(n)
            expected = (tuple(J for J in subsets if len(J) > c),
                        tuple(J for J in subsets if len(J) < c))
            assert families(model_presentation(n, c)) == expected
            assert presentation_from_data(relabelled) == model_presentation(n, c)

    @pytest.mark.parametrize("seed", range(40))
    def test_weighted_cuts_pass_counting_and_duality(self, seed):
        data = weighted_cut_document(5, seed)
        q = graded_quotient(presentation_from_data(data), 8)
        assert q.ranks == betti_by_counting(data)
        assert q.torsion == ((),) * 5
        assert poincare_check(q)

    @pytest.mark.parametrize("seed", range(12))
    def test_weighted_cut_families_are_the_points_own_up_to_renaming(self, seed):
        data = weighted_cut_document(2 + seed % 5, seed)
        assert families(presentation_from_data(data)) == renamed_families(data)

    def test_names_the_first_missing_or_zero_moment(self):
        # in (index, id) order, whichever fault comes first
        base = hypercube_data(2, Fraction(1, 2))
        for first, second, error in ((0, None, ZeroIsCritical), (None, 0, MissingMomentValue)):
            moments = {"p1": first, "p2": second}
            data = FixedPointData(2, tuple(FixedPoint(p.id, p.weights, moments.get(p.id, p.moment_value))
                                           for p in base.points))
            with pytest.raises(error, match="point 'p1' has"):
                presentation_from_data(data)
        with pytest.raises(MissingMomentValue, match="point 'p' has no moment value"):
            presentation_from_data(hypercube_data(2))

    def test_refuses_a_shifted_moment(self):
        base = hypercube_data(4, Fraction(3, 2))
        shifted = FixedPointData(4, tuple(
            FixedPoint(p.id, p.weights, p.moment_value + (p.id == "p12")) for p in base.points))
        with pytest.raises(MomentMismatch, match=r"^level 2 moment values are not "):
            presentation_from_data(shifted)

    def test_refuses_a_step_that_is_not_positive(self):
        # lambda_1 = 0: p1 at the moment of p, every sum still matched
        base = hypercube_data(3, Fraction(3, 2))
        flat = FixedPointData(3, tuple(
            FixedPoint(p.id, p.weights, p.moment_value - (p.id == "p1")) for p in base.points))
        with pytest.raises(MomentMismatch, match="'p1' has moment value -3/2, not above -3/2"):
            presentation_from_data(flat)
        negated = FixedPointData(3, tuple(
            FixedPoint(p.id, p.weights, -p.moment_value) for p in base.points))
        with pytest.raises(MomentMismatch) as caught:
            presentation_from_data(negated)
        assert str(caught.value) == "index-2 point 'p1' has moment value 1/2, not above 3/2 at 'p'"

    @pytest.mark.parametrize("n", range(2, 9))
    def test_refuses_random_signs(self, n):
        for seed in range(40):
            with pytest.raises(MomentMismatch):
                presentation_from_data(random_sign_document(n, seed))

    def test_relabeled_points(self):
        base = hypercube_data(2, Fraction(3, 2))
        renamed = FixedPointData(
            2,
            tuple(
                FixedPoint(f"z{i}", p.weights, p.moment_value)
                for i, p in enumerate(base.points)
            ),
        )
        q = graded_quotient(presentation_from_data(renamed), 2)
        assert q.ranks == (1, 1)


# (S^2)^4 with sphere areas 1, 2, 3 and 5, reduced at level 9/2: the point
# of the subset J has moment sum_{i in J} a_i - 9/2, which is additive but
# does not depend on |J| alone; the subsets, in all_subsets order, have the
# ids q w e r t y u i o p a s d f g h
AREAS = (1, 2, 3, 5)


def area_moment(J):
    return sum(AREAS[i - 1] for i in J) - Fraction(9, 2)


UNEQUAL_AREAS = "n = 4\n" + "".join(
    f"point {pid} weights {' '.join('-1' if i in J else '1' for i in range(1, 5))}"
    f" moment {area_moment(J)}\n"
    for pid, J in zip("qwertyuiopasdfgh", all_subsets(4), strict=True))


class TestUnequalAreas:
    """A reduction whose moment is not a function of the index: the
    families read from the moment sums give the manifold's cohomology."""

    @staticmethod
    def true_families():
        # the areas and mu(empty) = -9/2 over the denominator 2
        return IdealPresentation(4, tuple(2 * a for a in AREAS), -9)

    def test_families_from_the_moment_signs(self):
        q = graded_quotient(self.true_families(), 6)
        assert q.ranks == (1, 4, 4, 1)
        assert q.torsion == ((), (), (), ())
        assert poincare_check(q)
        assert q.ranks == betti_by_counting(parse_document(UNEQUAL_AREAS))

    def test_true_families_write_one_unit_pivot_row_per_fixed_point(self):
        pres = self.true_families()
        assert len(pres.relations) == 16
        for d in range(pres.n + 1):
            assert algebra._unit_pivots(echelon_basis(rows_of_degree(pres, d))), d

    def test_presentation_reads_the_true_families_up_to_renaming(self):
        # the index-2 points in id order are e, r, t, w, negative on the
        # spheres of areas 2, 3, 5 and 1
        data = parse_document(UNEQUAL_AREAS)
        pres = presentation_from_data(data)
        assert families(pres) == renamed_families(data)
        assert graded_quotient(pres, 6) == graded_quotient(self.true_families(), 6)

    def test_reduce_file(self, tmp_path, capsys):
        path = tmp_path / "areas.txt"
        path.write_text(UNEQUAL_AREAS)
        rc = main(["reduce", str(path)])
        assert capsys.readouterr().out.splitlines()[0] == "betti: 1 4 4 1"
        assert rc == 0


class TestAreasByLocalization:
    """A label-free check of the areas: the equivariant class [omega - mu]
    restricts to mu(p) x at p, and the Euler class of a semifree point is
    (-1)^k x^n, k its negative weights, so by localization the integral of
    the class mu(p)^j x^j is 0 for j < n, and at j = n it is (-1)^n n! times
    the volume, which for an additive moment is the product of the areas
    lambda_i (Duistermaat-Heckman).  The integrals read only the points'
    weights and moments; the areas are those presentation_from_data holds,
    over the lcm of the moments' denominators."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_moment_powers_integrate_to_the_product_of_the_areas(self, n):
        documents = [hypercube_data(n, c) for c in half_integers(n)]
        documents += [weighted_cut_document(n, seed) for seed in range(10)]
        for data in documents:
            scale = math.lcm(*(p.moment_value.denominator for p in data.points))
            areas = presentation_from_data(data).areas
            integrals = [integrate(data, RestrictionAssignment(
                {p.id: Term(p.moment_value ** j, j) for p in data.points})) for j in range(n + 1)]
            volume = math.prod(Fraction(a, scale) for a in areas)
            assert integrals[:n] == [0] * n
            assert integrals[n] == (-1) ** n * math.factorial(n) * volume
            # one area shifted by 1 scales the product by (a + 1) / a
            assert integrals[n] != (-1) ** n * math.factorial(n) * volume * (areas[0] + 1) / areas[0]


class TestHermite:
    def test_reduction_idempotent(self):
        rows = [[2, 4, 0], [0, 6, 3]]
        h = echelon_basis(map(sparse, rows))
        v = reduce_mod_rows([5, 7, 2], h)
        assert reduce_mod_rows(v, h) == v

    def test_row_space_membership(self):
        rows = [[1, 2], [0, 3]]
        h = echelon_basis(map(sparse, rows))
        assert reduce_mod_rows([1, 5], h) == [0, 0]
