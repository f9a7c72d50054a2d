import random
from fractions import Fraction

import pytest

from semifree import cube
from semifree.algebra import Term, X, echelon_basis
from semifree.cube import (
    CubeClass,
    RankCheckEntry,
    RankCheckReport,
    all_subsets,
    alpha_class,
    beta_class,
    equivariant_chern_series,
    express_in_basis,
    hypercube_data,
    injectivity_rank_check,
    restrict_class,
    subset_id,
    subset_mask,
    superset_columns,
)
from semifree.errors import NotInModule, RingTooLarge, ZeroIsCritical
from semifree.fixed_points import split_by_moment_sign
from semifree.localization import rep_chern_classes


def random_class(rng, n, max_terms=4, max_y=3):
    """A class of one degree d <= n + max_y and up to max_terms terms, at
    subsets of size at most d."""
    d = rng.randint(0, n + max_y)
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        S = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(d, n)))))
        terms[S] = rng.randint(-5, 5)
    return CubeClass(terms, d)


class TestRestrict:
    def test_generator_restrictions(self):
        a1 = CubeClass.gen_a(1)
        assert restrict_class(a1, {1}) == X
        assert restrict_class(a1, {2}) == Term()

    def test_defining_relation_dies(self):
        for J in all_subsets(3):
            for i in range(1, 4):
                rel = CubeClass.gen_a(i) * CubeClass.gen_y() - CubeClass.gen_a(i) ** 2
                assert not rel  # already zero in normal form
                # and the factors restrict compatibly
                ai = restrict_class(CubeClass.gen_a(i), J)
                y = restrict_class(CubeClass.gen_y(), J)
                assert ai * y == ai * ai

    def test_pair_product_restriction(self):
        cls = alpha_class({1, 2})
        assert restrict_class(cls, {1, 2, 3}) == Term(1, 2)

    def test_y_restricts_to_x_everywhere(self):
        for J in all_subsets(2):
            assert restrict_class(CubeClass.gen_y(), J) == X


class TestAlphaClass:
    def test_unit(self):
        unit = alpha_class(frozenset())
        for J in all_subsets(3):
            assert restrict_class(unit, J) == Term(1)

    def test_singleton(self):
        a1 = alpha_class({1})
        assert restrict_class(a1, {1, 2}) == X
        assert restrict_class(a1, {2}) == Term()

    def test_pair(self):
        cls = alpha_class({1, 2})
        assert restrict_class(cls, {1, 2}) == Term(1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_support_rule(self, n):
        for J in all_subsets(n):
            cls = alpha_class(J)
            for Jp in all_subsets(n):
                expected = (
                    Term(1, len(J)) if J <= Jp else Term()
                )
                assert restrict_class(cls, Jp) == expected


class TestBetaClass:
    def test_full_subset_is_unit(self):
        assert beta_class(frozenset(range(1, 4)), 3) == CubeClass.unit()

    def test_n2_singleton(self):
        b = beta_class({1}, 2)  # y - a2
        assert restrict_class(b, frozenset()) == X
        assert restrict_class(b, {1}) == X
        assert restrict_class(b, {2}) == Term()
        assert restrict_class(b, {1, 2}) == Term()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_support_rule(self, n):
        for J in all_subsets(n):
            b = beta_class(J, n)
            for Jp in all_subsets(n):
                expected = (
                    Term(1, n - len(J)) if Jp <= J else Term()
                )
                assert restrict_class(b, Jp) == expected

    def test_bottom_class(self):
        b = beta_class(frozenset(), 3)
        assert restrict_class(b, frozenset()) == Term(1, 3)
        for J in all_subsets(3):
            if J:
                assert restrict_class(b, J) == Term()


def chern_product(n: int) -> list[CubeClass]:
    """c_0..c_n of the product of (1 + t(2a_i - y)), multiplied out with
    CubeClass arithmetic."""
    coeffs = [CubeClass.unit()]
    for i in range(1, n + 1):
        factor = 2 * CubeClass.gen_a(i) - CubeClass.gen_y()
        coeffs = [
            (coeffs[k] if k < len(coeffs) else CubeClass())
            + (coeffs[k - 1] * factor if k else CubeClass())
            for k in range(len(coeffs) + 1)
        ]
    return coeffs


class TestChernSeries:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_the_multiplied_out_product(self, n):
        product = chern_product(n)
        for up_to in range(n + 3):
            series = equivariant_chern_series(n, up_to)
            expected = product[1 : min(up_to, n) + 1]
            assert series == expected
            assert [str(c) for c in series] == [str(c) for c in expected]

    def test_n1(self):
        (c1,) = equivariant_chern_series(1, 1)
        assert c1 == 2 * CubeClass.gen_a(1) - CubeClass.gen_y()

    def test_n2(self):
        c1, c2 = equivariant_chern_series(2, 2)
        a1, a2, y = CubeClass.gen_a(1), CubeClass.gen_a(2), CubeClass.gen_y()
        assert c1 == 2 * a1 + 2 * a2 - 2 * y
        assert c2 == (2 * a1 - y) * (2 * a2 - y)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_top_class_restriction_is_unimodular(self, n):
        cn = equivariant_chern_series(n, n)[-1]
        top = frozenset(range(1, n + 1))
        r = restrict_class(cn, top)
        assert r.degree == n
        assert abs(r.coeff) == 1

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_restriction_gives_weight_chern_classes_up_to_sign(self, n):
        # at J the factor (2a_i - y) restricts to x for i in J and -x
        # otherwise: the opposite of the tangent convention, globally
        classes = equivariant_chern_series(n, n)
        for J in all_subsets(n):
            signs = [1 if i in J else -1 for i in range(1, n + 1)]
            series = [Term(1)]
            for s in signs:
                new = [Term() for _ in range(len(series) + 1)]
                for k, c in enumerate(series):
                    new[k] = new[k] + c
                    new[k + 1] = new[k + 1] + c * Term(s, 1)
                series = new
            for i, cls in enumerate(classes, start=1):
                assert restrict_class(cls, J) == series[i]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_restriction_is_the_signed_chern_class_of_the_weights(self, n):
        # the model's c_k and the Chern classes of each point's weights agree
        # up to (-1)^k at every point: the conjugate convention that ROADMAP
        # item 3 would fix, pinned here so that the fix shows in this test
        classes = equivariant_chern_series(n, n)
        for p in hypercube_data(n).points:
            J = {i for i, w in enumerate(p.weights, start=1) if w < 0}
            rep = rep_chern_classes(p.weights, n)
            for k in range(1, n + 1):
                assert restrict_class(classes[k - 1], J) == (-1) ** k * rep[k - 1]


class TestInjectivity:
    def test_n1_unit(self):
        report = injectivity_rank_check(1)
        assert report.entries[0].rank == 1

    def test_n2_degree1(self):
        report = injectivity_rank_check(2)
        entry = next(e for e in report.entries if e.degree == 1)
        assert entry.basis_size == 3 and entry.rank == 3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_full_rank_all_degrees(self, n):
        assert injectivity_rank_check(n).passed

    def test_above_the_bound_is_rejected(self):
        with pytest.raises(RingTooLarge, match="n=13 exceeds the bound 12"):
            injectivity_rank_check(13)

    @pytest.mark.parametrize("n", [0, -1])
    def test_below_one_is_rejected(self, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            injectivity_rank_check(n)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_a_per_degree_rebuild(self, n):
        # each degree's rows rebuilt from its own basis |J| <= d
        subsets = all_subsets(n)
        entries = []
        for d in range(n + 1):
            basis = [J for J in subsets if len(J) <= d]
            rows = ({k: 1 for k, Jp in enumerate(subsets) if J <= Jp} for J in basis)
            entries.append(RankCheckEntry(d, len(basis), len(echelon_basis(rows))))
        assert injectivity_rank_check(n) == RankCheckReport(tuple(entries))

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_a_passing_check_eliminates_once(self, n, monkeypatch):
        calls = []
        monkeypatch.setattr(cube, "echelon_basis",
                            lambda rows: calls.append(1) or echelon_basis(rows))
        assert injectivity_rank_check(n).passed
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_rank_deficient_rows_are_ranked_degree_by_degree(self, n, monkeypatch):
        # the row of each J of size n - 1 is replaced by the row of the empty
        # set, so every degree from n - 1 on falls short: each prefix is
        # ranked on its own, as the per-degree rebuild ranks it
        subsets = all_subsets(n)
        table = [[k for k, Jp in enumerate(subsets) if (set() if len(J) == n - 1 else J) <= Jp]
                 for J in subsets]
        monkeypatch.setattr(cube, "superset_columns", lambda m: table)
        entries = []
        for d in range(n + 1):
            basis = [k for k, J in enumerate(subsets) if len(J) <= d]
            rows = ({c: 1 for c in table[k]} for k in basis)
            entries.append(RankCheckEntry(d, len(basis), len(echelon_basis(rows))))
        report = injectivity_rank_check(n)
        assert report == RankCheckReport(tuple(entries))
        assert [e.ok for e in report.entries] == [d < n - 1 for d in range(n + 1)]


class TestSupersetColumns:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_the_subset_tests(self, n):
        subsets = all_subsets(n)
        assert [sorted(columns) for columns in superset_columns(n)] == [
            [k for k, Jp in enumerate(subsets) if J <= Jp] for J in subsets]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_has_3_to_the_n_entries(self, n):
        assert sum(map(len, superset_columns(n))) == 3**n

    def test_subset_mask(self):
        assert subset_mask(()) == 0
        assert subset_mask((1, 3)) == 0b1010
        assert subset_mask(frozenset({2})) + subset_mask((1, 3)) == subset_mask((1, 2, 3))


class TestExpressInBasis:
    def test_y_is_x_times_unit(self):
        out = express_in_basis(CubeClass.gen_y(), 1)
        assert out == {frozenset(): X}

    def test_a1_squared(self):
        sq = CubeClass.gen_a(1) * CubeClass.gen_a(1)
        out = express_in_basis(sq, 1)
        assert out == {frozenset({1}): X}

    def test_basis_element_is_itself(self):
        out = express_in_basis(alpha_class({1, 3}), 3)
        assert out == {frozenset({1, 3}): Term(1)}

    def test_round_trip_random(self):
        # a class expands and is rebuilt from its terms
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 4)
            cls = random_class(rng, n)
            rebuilt = CubeClass()
            for J, term in express_in_basis(cls, n).items():
                assert term.degree == cls.degree - len(J)
                assert term.coeff.denominator == 1
                rebuilt = rebuilt + int(term.coeff) * (
                    alpha_class(J) * CubeClass.gen_y() ** term.degree
                )
            assert rebuilt == cls

    def test_zero_class_detection(self):
        # a class restricting to zero everywhere expands to nothing
        assert express_in_basis(CubeClass(), 3) == {}

    def test_generator_outside_the_cube_is_not_in_the_module(self):
        with pytest.raises(NotInModule):
            express_in_basis(CubeClass.gen_a(3), 2)

    def test_subsets_come_in_basis_order(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 5)
            out = express_in_basis(random_class(rng, n, max_terms=8), n)
            assert list(out) == [J for J in all_subsets(n) if J in out]


def as_sympy(sympy, cls, n):
    """cls as a polynomial in a_1..a_n and y."""
    a, y = sympy.symbols(f"a1:{n + 1}"), sympy.Symbol("y")
    return sum((c * sympy.Mul(*(a[i - 1] for i in S)) * y ** (cls.degree - len(S))
                for S, c in cls.terms.items()), sympy.Integer(0))


class TestRestrictAgainstSympy:
    """restrict_class against a route through sympy: write the class as a
    polynomial in a_1..a_n and y, substitute a_i -> x for i in J, else 0,
    and y -> x, and read off the coefficient of each power of x."""

    @staticmethod
    def restricted(sympy, expr, n, J):
        """{degree: Term} of the nonzero coefficients of expr at J."""
        a, y, x = sympy.symbols(f"a1:{n + 1}"), sympy.Symbol("y"), sympy.Symbol("x")
        subs = {y: x, **{a[i - 1]: (x if i in J else 0) for i in range(1, n + 1)}}
        poly = sympy.Poly(sympy.expand(expr.subs(subs)), x)
        return {d: Term(int(c), d) for (d,), c in poly.as_dict().items() if c}

    @staticmethod
    def ours(cls, J):
        """{degree: Term} of the restriction of cls, empty when it is zero."""
        term = restrict_class(cls, J)
        return {term.degree: term} if term else {}

    def test_each_component_of_random_classes_and_products(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 4)
            f, g = random_class(rng, n), random_class(rng, n)
            J = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            f_expr, g_expr = as_sympy(sympy, f, n), as_sympy(sympy, g, n)
            assert self.ours(f, J) == self.restricted(sympy, f_expr, n, J)
            # sympy multiplies outside the normal form a_i^2 = a_i y
            assert self.ours(f * g, J) == self.restricted(sympy, f_expr * g_expr, n, J)


class TestProductAgainstSympy:
    """f * g against sympy: expand the product of the two polynomials and
    divide it by the relations a_i^2 - a_i y.  Their leading terms a_i^2 are
    coprime, so the relations are a Groebner basis and the remainder is the
    square-free normal form; each of its coefficients must be the one f * g
    holds at that subset, with the y power the degree implies."""

    def test_random_products(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(43)
        for _ in range(100):
            n = rng.randint(1, 4)
            f, g = random_class(rng, n), random_class(rng, n)
            a, y = sympy.symbols(f"a1:{n + 1}"), sympy.Symbol("y")
            product = sympy.expand(as_sympy(sympy, f, n) * as_sympy(sympy, g, n))
            relations = [ai**2 - ai * y for ai in a]
            _, rest = sympy.reduced(product, relations, *a, y, order="lex")
            theirs = {}
            for exps, c in sympy.Poly(rest, *a, y).as_dict().items():
                assert max(exps[:-1]) <= 1  # square-free
                S = tuple(i for i, e in enumerate(exps[:-1], start=1) if e)
                theirs[S, exps[-1]] = int(c)
            fg = f * g
            assert {(S, fg.degree - len(S)): c for S, c in fg.terms.items()} == theirs


class TestRingProperties:
    def test_equal_constants_hash_equal(self):
        # a constant equals its integer, so a set or dict finds it by that integer
        assert 3 in {CubeClass({(): 3})}
        assert 0 in {CubeClass()}
        assert CubeClass.unit() in {1}
        assert {CubeClass({(): -4}): "c"}[-4] == "c"
        assert CubeClass.gen_y() not in {1}

    def test_restriction_is_multiplicative(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 4)
            f, g = random_class(rng, n), random_class(rng, n)
            J = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            assert restrict_class(f * g, J) == restrict_class(f, J) * restrict_class(g, J)

    def test_adding_different_degrees_is_refused(self):
        with pytest.raises(ValueError, match="degrees differ"):
            CubeClass.gen_a(1) + CubeClass.unit()
        with pytest.raises(ValueError, match="degrees differ"):
            CubeClass.gen_y() - 1

    def test_subset_larger_than_the_degree_is_refused(self):
        with pytest.raises(ValueError, match="larger than the degree 0"):
            CubeClass({(1,): 1})
        with pytest.raises(ValueError, match="larger than the degree 1"):
            CubeClass({(1, 2): 1}, 1)

    @pytest.mark.parametrize("terms,degree,name", [
        ({(): Fraction(1, 2)}, 0, "Fraction"),
        ({(1,): 2.7}, 1, "float"),
        ({(): Fraction(2)}, 0, "Fraction"),
        ({(1,): 1, (2,): "1"}, 1, "str"),
    ])
    def test_non_integer_coefficient_is_refused(self, terms, degree, name):
        with pytest.raises(TypeError, match=f"expected integer coefficients, got {name}"):
            CubeClass(terms, degree)

    @pytest.mark.parametrize("other", [Fraction(1, 2), Fraction(0), 0.5, "a"])
    def test_arithmetic_with_a_non_integer_is_refused(self, other):
        # the zero class has no coefficient to check, so it is refused too
        for cls in (CubeClass.gen_a(1), CubeClass()):
            for op in (lambda: cls * other, lambda: other * cls,
                       lambda: cls + other, lambda: other + cls, lambda: cls - other):
                with pytest.raises(TypeError):
                    op()

    def test_negative_power_is_refused(self):
        with pytest.raises(ValueError, match="negative power"):
            CubeClass.gen_a(1) ** -1
        assert CubeClass.gen_a(1) ** 0 == 1

    def test_a_class_is_the_sum_of_its_monomials(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(1, 4)
            cls = random_class(rng, n)
            monomials = [c * alpha_class(S) * CubeClass.gen_y() ** (cls.degree - len(S))
                         for S, c in cls.terms.items()]
            assert sum(monomials, CubeClass()) == cls
            assert cls.degree == (max(m.degree for m in monomials) if monomials else -1)

    def test_alpha_products_expand_over_unions(self):
        rng = random.Random(23)
        for n in (2, 3, 4):
            subsets = all_subsets(n)
            for J in subsets:
                for Jp in subsets:
                    out = express_in_basis(alpha_class(J) * alpha_class(Jp), n)
                    for K in out:
                        assert K >= (J | Jp)

    def test_beta_bottom_times_alpha(self):
        n = 3
        bottom = beta_class(frozenset(), n)
        for J in all_subsets(n):
            product = bottom * alpha_class(J)
            for Jp in all_subsets(n):
                r = restrict_class(product, Jp)
                if Jp or J:
                    assert r == Term()
                else:
                    assert r == Term(1, n)


class TestHypercubeData:
    def test_regular_level_enforced(self):
        # an integral offset puts points at moment 0, refused where the
        # moments are split, naming the first in (index, id) order
        with pytest.raises(ZeroIsCritical, match="point 'p1' has moment value 0"):
            split_by_moment_sign(hypercube_data(2, 1))

    def test_float_offset_is_refused(self):
        with pytest.raises(TypeError, match="got float"):
            hypercube_data(3, 0.1)

    def test_hypercube_moment_split(self):
        data = hypercube_data(3, Fraction(3, 2))
        low = [p for p in data.points if p.moment_value < 0]
        assert len(low) == 4

    def test_hypercube_moments_exactly_when_an_offset_is_given(self):
        assert all(p.moment_value is None for p in hypercube_data(2).points)
        data = hypercube_data(2, Fraction(1, 2))
        assert {p.id: p.moment_value for p in data.points} == {
            "p": Fraction(-1, 2), "p1": Fraction(1, 2), "p2": Fraction(1, 2),
            "p12": Fraction(3, 2),
        }
        # any offset gives the moments |J| - c; only a model level is checked
        assert [p.moment_value for p in hypercube_data(1, 1).points] == [-1, 0]

    def test_subset_ids(self):
        assert subset_id(frozenset()) == "p"
        assert subset_id({3, 1}) == "p13"
        assert subset_id({12, 2, 10}) == "p2_10_12"

    def test_subset_ids_below_ten_are_the_digits(self):
        for J in all_subsets(9):
            assert subset_id(J) == "p" + "".join(map(str, sorted(J)))

    def test_subset_ids_are_distinct(self):
        # {12} and {1, 2} once shared 'p12'
        ids = [subset_id(J) for J in all_subsets(14)]
        assert len(set(ids)) == len(ids)
