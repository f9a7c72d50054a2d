import hashlib
import random
from fractions import Fraction

import pytest

from semifree import algebra, reduction
from semifree.cli import main, parse_document
from semifree.algebra import echelon_basis, reduce_mod_rows, smith_normal_form
from semifree.cube import (
    CubeClass,
    all_subsets,
    alpha_class,
    beta_class,
    hypercube_data,
)
from semifree.errors import MissingMomentValue, ReductionTooLarge, ZeroIsCritical
from semifree.fixed_points import FixedPoint, FixedPointData
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
    relation_rows,
)


def half_integers(n):
    return [Fraction(2 * k + 1, 2) for k in range(n)]


def model_presentation(n, c):
    """The relations at the model level (n, c), read from its document."""
    return presentation_from_data(hypercube_data(n, c))


def sparse(row):
    return dict(enumerate(row))


def product_rows(pres, d):
    """Every generator alpha_J, beta_J times every complementary-degree
    monomial, multiplied out by CubeClass, zero and repeated products
    included."""
    index = {b: i for i, b in enumerate(degree_basis(pres.n, d))}
    gens = [alpha_class(J) for J in pres.positive] + [
        beta_class(J, pres.n) for J in pres.negative]
    rows = []
    for gen in gens:
        g = gen.degree
        for S in degree_basis(pres.n, d - g) if g <= d else ():
            product = gen * CubeClass({S: 1}, d - g)
            rows.append({index[key]: c for key, c in product.terms.items()})
    return rows


def assert_same_lattice(pres, d):
    ncols = len(degree_basis(pres.n, d))
    ours, reference = relation_rows(pres, d), product_rows(pres, d)
    for rows, other in ((ours, reference), (reference, ours)):
        basis = echelon_basis(other)
        for row in rows:
            vec = [row.get(j, 0) for j in range(ncols)]
            assert not any(reduce_mod_rows(vec, basis)), (pres.n, d, row)


def assert_only_unit_rows_meet_alpha_columns(pres, d):
    """The rows with an entry at a column a_S y^m, S containing a positive
    J, are the unit rows at those columns, one each: beta rows are written
    modulo the alpha rows."""
    alpha = [i for i, S in enumerate(degree_basis(pres.n, d))
             if any(J <= set(S) for J in pres.positive)]
    meeting = [row for row in relation_rows(pres, d) if row.keys() & set(alpha)]
    assert sorted(tuple(row.items()) for row in meeting) == [((i, 1),) for i in alpha]


def random_sign_document(n, seed):
    """The hypercube's points under shuffled ids, with random moment signs."""
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
    point's weight is negative, less a half-integer c near the middle.
    The moment does not depend on the index alone, and the deduction
    pipeline pairs points with subsets ignoring it, so the families that
    presentation_from_data reads are not cut by a wall: they are
    mislabelled, and on 14 of seeds 0-39 at n = 5 (1, 3, 4, 6, 7, 18, 21,
    23, 26, 28, 32, 33, 34, 39) counting or duality fails (ROADMAP item 1).
    Their minimal differences J - K can have two or more elements."""
    rng = random.Random(seed)
    w = [rng.choice((1, 2, 3)) for _ in range(n)]
    c = Fraction(2 * (sum(w) // 2) + 1, 2)
    points = list(hypercube_data(n).points)
    rng.shuffle(points)
    return FixedPointData(n, tuple(
        FixedPoint(f"z{i}", p.weights, sum(x for x, e in zip(w, p.weights) if e < 0) - c)
        for i, p in enumerate(points)
    ))


def y_minus_a(I):
    """The product of y - a_i over i in I, multiplied out by CubeClass."""
    product = CubeClass.unit()
    for i in sorted(I):
        product = product * (CubeClass.gen_y() - CubeClass.gen_a(i))
    return product


def multi_element_differences(pres):
    """The inclusion-minimal differences J - K of two or more elements, K a
    maximal negative before the maximal negative J, read from the families
    by their definition."""
    maximal = [J for J in pres.negative if not any(J < K for K in pres.negative)]
    found = []
    for i, J in enumerate(maximal):
        diffs = {J - K for K in maximal[:i]}
        found += [D for D in diffs if len(D) > 1 and not any(E < D for E in diffs)]
    return found


class TestBetaSyzygy:
    """Two downward classes agree once each is multiplied up to the product
    over the complement of their intersection; relation_rows leaves out
    every row that this identity writes from rows it keeps."""

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
        pres = model_presentation(1, Fraction(1, 2))
        assert pres.positive == (frozenset({1}),)
        assert alpha_class(pres.positive[0]) == CubeClass.gen_a(1)
        assert pres.negative == (frozenset(),)
        assert beta_class(pres.negative[0], 1) == CubeClass.gen_y() - CubeClass.gen_a(1)

    def test_n3_balanced_counts(self):
        pres = model_presentation(3, Fraction(3, 2))
        assert len(pres.positive) == 4
        assert all(len(J) >= 2 for J in pres.positive)
        assert len(pres.negative) == 4
        assert all(len(J) <= 1 for J in pres.negative)

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

    @pytest.mark.parametrize("seed", (34, 160, 188, 209, 258))
    def test_smith_normal_form_eliminates_only_where_a_pivot_is_above_one(self, seed,
                                                                         monkeypatch):
        # these weighted cuts have echelon bases with a pivot of 2 (seed 34
        # in degrees 3 and 4); Smith normal form takes every other degree's
        # basis, whose pivots are all 1, with no elimination pass
        passes, calls = [], []
        monkeypatch.setattr(algebra, "echelon_basis",
                            lambda rows: passes.append(1) or echelon_basis(rows))

        def spy(rows):
            passes.clear()
            factors = smith_normal_form(rows)
            calls.append(len(passes))
            return factors

        monkeypatch.setattr(reduction, "smith_normal_form", spy)
        q = graded_quotient(presentation_from_data(weighted_cut_document(7, seed)), 14)
        above_one = [d for d, basis in enumerate(q.bases) if any(row[min(row)] > 1 for row in basis)]
        assert above_one
        if seed == 34:
            assert above_one == [3, 4]
        assert len(calls) == len(q.bases)
        assert [d for d, made in enumerate(calls) if made] == above_one
        for basis, torsion in zip(q.bases, q.torsion, strict=True):
            assert torsion == tuple(f for f in smith_normal_form(basis) if f > 1)

    def test_size_guard(self):
        pres = IdealPresentation(MAX_REDUCE_N + 1, (), ())
        with pytest.raises(ReductionTooLarge):
            graded_quotient(pres, 0)
        assert "relations" not in vars(pres)  # no row was written

    @pytest.mark.parametrize("n", range(1, 6))
    def test_beta_rows_avoid_the_alpha_columns_on_model_levels(self, n):
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for d in range(n + 1):
                assert_only_unit_rows_meet_alpha_columns(pres, d)

    @pytest.mark.parametrize("seed", range(24))
    def test_beta_rows_avoid_the_alpha_columns_for_random_signs(self, seed):
        n = 2 + seed % 4
        pres = presentation_from_data(random_sign_document(n, seed))
        for d in range(n + 1):
            assert_only_unit_rows_meet_alpha_columns(pres, d)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_relation_rows_are_nonzero_and_distinct(self, n):
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for d in range(n):
                rows = [frozenset(row.items()) for row in relation_rows(pres, d)]
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
        pres = presentation_from_data(random_sign_document(n, seed))
        for d in range(n + 1):
            assert_same_lattice(pres, d)

    @pytest.mark.parametrize("seed", range(12))
    def test_relation_rows_span_the_products_for_weighted_cuts(self, seed):
        n = 2 + seed % 4
        pres = presentation_from_data(weighted_cut_document(n, seed))
        for d in range(n + 1):
            assert_same_lattice(pres, d)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_model_levels_write_no_redundant_row(self, n):
        # measured, not proved: on these levels the rows kept are independent,
        # so none of them eliminates to zero; that they span the whole lattice
        # is what the assert_same_lattice tests check
        for c in half_integers(n):
            pres = model_presentation(n, c)
            for d in range(n + 1):
                rows = relation_rows(pres, d)
                assert len(echelon_basis(rows)) == len(rows), (n, c, d)

    def test_two_element_difference(self):
        # J = {3, 4} and the earlier K = {1, 2} differ in two elements, so the
        # row of S = J is left out and the rows of its elements are kept
        n, first, second = 4, frozenset({1, 2}), frozenset({3, 4})
        subsets = degree_basis(n, n)
        for positive in ((), (frozenset({1, 3}), frozenset({2, 4})), (frozenset({1, 2, 3, 4}),)):
            pres = IdealPresentation(n, positive, (first, second))
            assert multi_element_differences(pres) == [second]
            rows = relation_rows(pres, n)
            # the unit rows at the alpha columns, then the rows of K and of J,
            # each known by its smallest column, S: every S of K, and of J the
            # empty set, {3} and {4}, not {3, 4}
            assert rows[:-7] == [{i: 1} for i, S in enumerate(subsets)
                                 if any(P <= set(S) for P in positive)]
            assert [subsets[min(row)] for row in rows[-7:]] == [
                (), (1,), (2,), (1, 2), (), (3,), (4,)]
            for d in range(n + 1):
                assert_same_lattice(pres, d)

    def test_random_signs_meet_a_multi_element_difference(self):
        # the seeds of test_relation_rows_span_the_products_for_random_signs
        # reach the test of each S against the differences J - K in
        # IdealPresentation.relations
        assert any(multi_element_differences(
            presentation_from_data(random_sign_document(2 + seed % 4, seed)))
            for seed in range(24))

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
    regular level n <= 9, and documents of sizes 1..9 by seed."""
    if group == "model levels":
        return [model_presentation(n, c) for n in range(1, 10) for c in half_integers(n)]
    document, seeds = {"random signs": (random_sign_document, 40),
                       "weighted cuts": (weighted_cut_document, 12)}[group]
    return [presentation_from_data(document(1 + seed % 9, seed)) for seed in range(seeds)]


# sha256 over each presentation's relations as (degree, list(row.items()))
# pairs: the rows, their order and the key order inside each row
RELATIONS_DIGESTS = {
    "model levels": "a5373275544c37dcdb20d16a3812d4384021c0ba50b06d7581b644208af541b2",
    "random signs": "8b0854fe9eda0ed0eead1463a7a4408b217248c23232ca9bd75e9c90ad649864",
    "weighted cuts": "3bbdd0304d1e8917fb18cd174c94483ee8cb5d362485ad1a303b3ba5f1c598c6",
}


@pytest.mark.parametrize("group", RELATIONS_DIGESTS)
def test_relations_are_frozen(group):
    digest = hashlib.sha256()
    for pres in relations_presentations(group):
        rows = [(degree, list(row.items())) for degree, row in pres.relations]
        digest.update(repr(rows).encode())
    assert digest.hexdigest() == RELATIONS_DIGESTS[group]


def quotient_with_rows(pres, reorder):
    """Ranks, torsion and reduced Chern classes of pres in every degree up to
    n, with each degree's relation rows reordered before elimination."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction, "relation_rows", lambda p, d: reorder(relation_rows(p, d)))
        q = graded_quotient(pres, 2 * pres.n)
    return q.ranks, q.torsion, reduced_chern_series(q)


# relation_rows writes the unit rows first, then each maximal negative J in
# family order with its S by increasing size, which echelon_basis was
# measured to take fastest (at n = 10: 0.8 s at c = 13/2 against 1.7 s
# reversed, and 0.7-1.8 s against 2.9-629 s on weighted_cut_document seeds
# 0-5, timings of mislabelled families); the lattice, and with it every
# result, is the same in either order and in any other
ROW_ORDERS = {
    "written": lambda rows: rows,
    "reversed": lambda rows: rows[::-1],
    "shuffled": lambda rows: random.Random(len(rows)).sample(rows, len(rows)),
}


class TestRowOrder:
    def assert_order_free(self, pres):
        results = {name: quotient_with_rows(pres, order) for name, order in ROW_ORDERS.items()}
        assert results["reversed"] == results["written"] == results["shuffled"]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_model_levels(self, n):
        for c in half_integers(n):
            self.assert_order_free(model_presentation(n, c))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_signs(self, seed):
        self.assert_order_free(presentation_from_data(random_sign_document(1 + seed % 6, seed)))

    @staticmethod
    def assert_degrees_keep_the_order(pres):
        # the rows of degree d appear among those of degree d + 1 in the
        # order written there; rows are matched in turn, not by value, since
        # on documents that are not model levels one value, the empty row,
        # can repeat
        for d in range(pres.n):
            above = iter(relation_rows(pres, d + 1))
            assert all(any(row == other for other in above) for row in relation_rows(pres, d)), d

    @pytest.mark.parametrize("n", range(1, 8))
    def test_degrees_keep_the_order_on_model_levels(self, n):
        for c in half_integers(n):
            self.assert_degrees_keep_the_order(model_presentation(n, c))

    @pytest.mark.parametrize("seed", range(12))
    def test_degrees_keep_the_order_for_random_signs_and_weighted_cuts(self, seed):
        n = 1 + seed % 7
        for document in (random_sign_document, weighted_cut_document):
            self.assert_degrees_keep_the_order(presentation_from_data(document(n, seed)))

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
                basis = echelon_basis(relation_rows(pres, d))
                calls.clear()
                assert smith_normal_form(basis) == (1,) * len(basis)
                assert calls == [], (n, c, d)
        calls.clear()
        assert smith_normal_form([{0: 2, 1: 1}, {1: 1}]) == (1, 2)
        assert len(calls) > 1


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
        subsets = all_subsets(3)
        assert pres == IdealPresentation(3, tuple(J for J in subsets if len(J) >= 2),
                                         tuple(J for J in subsets if len(J) <= 1))
        q = graded_quotient(pres, 4)
        assert q.ranks == (1, 4, 1)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_families_split_by_size_in_all_subsets_order(self, n):
        # relation_rows writes rows in the families' order, and row order
        # moves the time of echelon_basis: both families stay
        # in all_subsets order, however the document's points are named and
        # listed
        rng = random.Random(n)
        for c in half_integers(n):
            points = list(hypercube_data(n, c).points)
            rng.shuffle(points)
            relabelled = FixedPointData(n, tuple(
                FixedPoint(f"q{rng.randrange(10**6)}_{i}", p.weights, p.moment_value)
                for i, p in enumerate(points)))
            subsets = all_subsets(n)
            expected = IdealPresentation(n, tuple(J for J in subsets if len(J) > c),
                                         tuple(J for J in subsets if len(J) < c))
            assert model_presentation(n, c) == expected
            assert presentation_from_data(relabelled) == expected

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
    """A reduction whose moment is not a function of the index (ROADMAP
    item 1): the families read from the moment signs give the manifold's
    cohomology, and the deduction pipeline's pairing, which reads no
    moments, does not yet."""

    def test_families_from_the_moment_signs(self):
        subsets = all_subsets(4)
        pres = IdealPresentation(4, tuple(J for J in subsets if area_moment(J) > 0),
                                 tuple(J for J in subsets if area_moment(J) < 0))
        q = graded_quotient(pres, 6)
        assert q.ranks == (1, 4, 4, 1)
        assert q.torsion == ((), (), (), ())
        assert poincare_check(q)
        assert q.ranks == betti_by_counting(parse_document(UNEQUAL_AREAS))

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1: run_pipeline pairs points "
                       "with subsets by index and id, not by moment; today `reduce` "
                       "prints betti: 1 4 3 0 and exits 1")
    def test_reduce_file(self, tmp_path, capsys):
        path = tmp_path / "areas.txt"
        path.write_text(UNEQUAL_AREAS)
        rc = main(["reduce", str(path)])
        assert capsys.readouterr().out.splitlines()[0] == "betti: 1 4 4 1"
        assert rc == 0


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
