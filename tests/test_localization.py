import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product

import pytest

from semifree.algebra import Term, X
from semifree.cube import hypercube_data
from semifree import localization
from semifree.errors import (
    CountTooLarge,
    DuplicateId,
    IntegralTooLarge,
    NotSemifree,
    SearchSpaceTooLarge,
    TooManyMonomials,
    WrongWeightCount,
    ZeroWeight,
)
from semifree.fixed_points import FixedPoint, FixedPointData, counts
from semifree.localization import (
    MAX_COUNT_N,
    MAX_SEARCH_POINTS_SUMMED,
    RestrictionAssignment,
    chern_monomials,
    consistency_check,
    elementary_symmetric,
    euler_class,
    gamma_restrictions,
    integrate,
    monomial_integrals,
    monomial_numerators,
    predict_counts,
    rep_chern_classes,
    search_candidates,
    verify_moment_equations,
)

SPHERE = FixedPointData(1, (FixedPoint("s", (1,)), FixedPoint("n", (-1,))))
REMARK_PAIR = FixedPointData(
    3, (FixedPoint("a", (1, 1, -2)), FixedPoint("b", (-1, -1, 2)))
)


class TestEulerClass:
    def test_unit_weights(self):
        assert euler_class((1, 1)) == Term(1, 2)

    @pytest.mark.parametrize("n,k", [(2, 0), (3, 1), (4, 3)])
    def test_semifree_sign(self, n, k):
        weights = (-1,) * k + (1,) * (n - k)
        assert euler_class(weights) == Term((-1) ** k, n)

    def test_direct_product(self):
        assert euler_class((1, 1, -2)) == Term(-2, 3)

    def test_rejects_zero_weight(self):
        with pytest.raises(ZeroWeight):
            euler_class((1, 0))


class TestRepChernClasses:
    def test_single_weight(self):
        assert rep_chern_classes((5,), 1) == [Term(5, 1)]

    def test_two_unit_weights(self):
        assert rep_chern_classes((1, 1), 2) == [
            Term(2, 1),
            Term(1, 2),
        ]

    def test_remark_weights(self):
        assert rep_chern_classes((1, 1, -2), 3) == [
            Term(),
            Term(-3, 2),
            Term(-2, 3),
        ]

    def test_oracle_product_expansion(self):
        # expand prod (1 + t w x) coefficient-by-coefficient, independently
        weights = (2, -1, 3, -4)
        series = [Term(1)]  # coefficients of t^k, k = 0..
        for w in weights:
            new = [Term() for _ in range(len(series) + 1)]
            for k, c in enumerate(series):
                new[k] = new[k] + c
                new[k + 1] = new[k + 1] + c * Term(w, 1)
            series = new
        assert rep_chern_classes(weights, 4) == series[1:]


class TestIntegrate:
    def test_constant_on_sphere_vanishes(self):
        one = RestrictionAssignment({"s": Term(1), "n": Term(1)})
        value = integrate(SPHERE, one)
        assert value == 0 and isinstance(value, Fraction)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_euler_class_integrates_to_point_count(self, n):
        data = hypercube_data(n)
        alpha = RestrictionAssignment(
            {p.id: euler_class(p.weights) for p in data.points}
        )
        assert integrate(data, alpha) == 2**n

    def test_hypercube_gamma_vanishes(self):
        data = hypercube_data(2)
        assert integrate(data, gamma_restrictions(data)) == 0

    def test_linear_in_alpha(self):
        rng = random.Random(11)
        data = hypercube_data(3)
        for _ in range(25):
            d = rng.randint(0, 4)
            a = {p.id: Term(rng.randint(-5, 5), d) for p in data.points}
            b = {p.id: Term(rng.randint(-5, 5), d) for p in data.points}
            c = rng.randint(-3, 3)
            combo = RestrictionAssignment(
                {pid: a[pid] * c + b[pid] for pid in a}
            )
            lhs = integrate(data, combo)
            rhs = integrate(data, RestrictionAssignment(a)) * c + integrate(
                data, RestrictionAssignment(b)
            )
            assert lhs == rhs
            # multiplication by x raises the power, not the coefficient
            shifted = RestrictionAssignment({pid: a[pid] * X for pid in a})
            assert integrate(data, shifted) == integrate(data, RestrictionAssignment(a))

    def test_entries_of_two_degrees_are_refused(self):
        # zero entries carry no degree; the first nonzero one sets it
        alpha = RestrictionAssignment({"s": Term(), "n": X})
        assert alpha.degree == 1
        with pytest.raises(ValueError, match="entry at 'n' has degree 2, expected 1"):
            RestrictionAssignment({"z": Term(), "s": X, "n": Term(1, 2)})

    def test_duplicate_id_raises(self):
        # counted twice, the sphere would integrate 1 to 1 / x
        with pytest.raises(DuplicateId):
            FixedPointData(1, SPHERE.points + (FixedPoint("s", (1,)),))

    def test_mixed_weight_counts_raise(self):
        # summed per power, these would give 1/x^2 - 1/x
        with pytest.raises(WrongWeightCount):
            FixedPointData(2, (FixedPoint("a", (1, 1)), FixedPoint("b", (-1,))))


class TestIntegrateAgainstSympy:
    """integrate, times x^(d - n), against sympy.cancel of the sum of
    c_p x^d / (w_p x^n)."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_homogeneous_data(self, seed):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        weights = [w for w in range(-3, 4) if w]
        points = tuple(
            FixedPoint(f"p{i}", tuple(rng.choice(weights) for _ in range(n)))
            for i in range(rng.randint(1, 5))
        )
        d = rng.randint(0, 2 * n)
        coeffs = {p.id: rng.randint(-4, 4) for p in points}
        alpha = RestrictionAssignment(
            {pid: Term(c, d) for pid, c in coeffs.items()}
        )
        value = integrate(FixedPointData(n, points), alpha)

        expected = sympy.cancel(sum(
            sympy.Integer(coeffs[p.id]) * x**d / (math.prod(p.weights) * x**n)
            for p in points
        ))
        ours = sympy.Rational(value.numerator, value.denominator) * x**(d - n)
        assert sympy.cancel(expected - ours) == 0


class TestIntegrateAgainstPointSum:
    """integrate against the definitional sum of Fraction(c, prod w) over the
    points, or against the error a faulty document must raise."""

    @staticmethod
    def expected(n, points, coeffs):
        """The first fault of FixedPointData in (index, id) order, then a
        missing point's KeyError, else the sum of c / prod(w)."""
        seen = set()
        for p in sorted(points, key=lambda p: (p.index, p.id)):
            if p.id in seen:
                return DuplicateId
            seen.add(p.id)
            if len(p.weights) != n:
                return WrongWeightCount
            if 0 in p.weights:
                return ZeroWeight
        if any(p.id not in coeffs for p in points):
            return KeyError
        return sum((Fraction(coeffs[p.id], math.prod(p.weights)) for p in points),
                   Fraction(0))

    @staticmethod
    def outcome(n, points, alpha):
        try:
            value = integrate(FixedPointData(n, points), alpha)
        except (KeyError, DuplicateId, WrongWeightCount, ZeroWeight) as e:
            return type(e)
        assert isinstance(value, Fraction)
        return value

    @staticmethod
    def random_document(rng):
        """n = 1..5 and 1..8 points of weights in [-3, 3], one in ten points
        with one weight too few or too many, and a rational multiple c of x^d,
        or 0, at each point; returns n, the points in (index, id) order, the
        c and d."""
        n = rng.randint(1, 5)
        points = []
        for i in range(rng.randint(1, 8)):
            count = n if rng.random() < 0.9 else max(1, n + rng.choice((-1, 1)))
            weights = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(count))
            points.append(FixedPoint(f"p{i}", weights))
        d = rng.randint(0, 2 * n + 1)
        coeffs = {
            p.id: 0 if rng.random() < 0.25
            else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for p in points
        }
        return n, tuple(sorted(points, key=lambda p: (p.index, p.id))), coeffs, d

    @classmethod
    def documents(cls, seed):
        """100 documents, one in twenty with a zero weight, a missing point
        or a point listed twice."""
        rng = random.Random(seed)
        for _ in range(100):
            n, points, coeffs, d = cls.random_document(rng)
            fault = rng.random()
            if fault < 0.05:  # a zero weight
                p = rng.choice(points)
                k = rng.randrange(len(p.weights))
                weights = p.weights[:k] + (0,) + p.weights[k + 1:]
                points = tuple(FixedPoint(q.id, weights) if q is p else q for q in points)
            elif fault < 0.1:  # a missing point
                del coeffs[rng.choice(points).id]
            elif fault < 0.15:  # a point listed twice
                points += (rng.choice(points),)
            yield n, points, coeffs, d

    @pytest.mark.parametrize("seed", range(30))
    def test_random_documents(self, seed):
        for n, points, coeffs, d in self.documents(seed):
            alpha = RestrictionAssignment(
                {pid: Term(c, d) for pid, c in coeffs.items()})
            assert self.outcome(n, points, alpha) == self.expected(n, points, coeffs)

    def test_documents_cover_every_outcome(self):
        kinds = {
            e if isinstance(e, type) else type(e)
            for seed in range(30)
            for e in (self.expected(n, points, coeffs)
                      for n, points, coeffs, _ in self.documents(seed))
        }
        assert kinds == {Fraction, DuplicateId, WrongWeightCount, ZeroWeight, KeyError}

    def test_faultless_documents_cover_the_integer_sum(self):
        # integrate sums c.numerator * (L // (c.denominator * prod w)) over
        # L, the lcm of the c.denominator * |prod w|; test_random_documents
        # compares it with the reference sum on documents whose faultless
        # ones hold Fraction coefficients, zero Terms, products of size
        # above 1 and negative products
        seen = set()
        for seed in range(30):
            for n, points, coeffs, _ in self.documents(seed):
                if not isinstance(self.expected(n, points, coeffs), Fraction):
                    continue
                for p in points:
                    c, prod = Fraction(coeffs[p.id]), math.prod(p.weights)
                    seen |= {("fraction", c.denominator > 1), ("zero", c == 0),
                             ("large", abs(prod) > 1), ("negative", prod < 0)}
        assert {(kind, True) for kind in ("fraction", "zero", "large", "negative")} <= seen

    def test_common_denominator_shares_factors_with_the_weights(self):
        # 1/6 / 6 + 5/4 / (-2) + 1/9 / 3: L = lcm(36, 8, 27) = 216
        data = FixedPointData(2, (FixedPoint("a", (2, 3)), FixedPoint("b", (-1, 2)),
                                  FixedPoint("c", (3, 1))))
        alpha = RestrictionAssignment({"a": Term(Fraction(1, 6), 2),
                                       "b": Term(Fraction(5, 4), 2),
                                       "c": Term(Fraction(1, 9), 2)})
        value = integrate(data, alpha)
        assert value == Fraction(1, 36) - Fraction(5, 8) + Fraction(1, 27)
        assert value == Fraction(6 - 135 + 8, 216)
        # an integral that is an integer comes back as one
        alpha = RestrictionAssignment({"a": Term(6, 0), "b": Term(-2, 0), "c": Term(3, 0)})
        assert integrate(data, alpha) == 3 and integrate(data, alpha).denominator == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_zero_assignment(self, seed):
        n, points, coeffs, _ = self.random_document(random.Random(seed))
        zero = RestrictionAssignment({pid: Term() for pid in coeffs})
        assert zero.degree is None
        expected = self.expected(n, points, dict.fromkeys(coeffs, 0))
        assert self.outcome(n, points, zero) == expected

    def test_zero_weight_and_missing_point(self):
        with pytest.raises(ZeroWeight, match="point 'a' has a zero weight"):
            FixedPointData(2, (FixedPoint("a", (1, 0)), FixedPoint("b", (1, 1))))
        with pytest.raises(KeyError, match="'n'"):
            integrate(SPHERE, RestrictionAssignment({"s": Term(1)}))

    def test_hypercube_gamma_powers(self):
        data = hypercube_data(8)
        gamma = gamma_restrictions(data)
        for k in range(9):
            coeffs = {p.id: p.negative_count**k for p in data.points}
            alpha = RestrictionAssignment({pid: v**k for pid, v in gamma.values.items()})
            assert (self.outcome(data.n, data.points, alpha)
                    == self.expected(data.n, data.points, coeffs))


class TestGammaRestrictions:
    def test_hypercube_values(self):
        data = hypercube_data(3)
        g = gamma_restrictions(data)
        values = sorted(str(g[p.id]) for p in data.points)
        assert sorted([str(Term(k, 1)) for k in (0, 1, 1, 1, 2, 2, 2, 3)]) == values
        for p in data.points:
            assert g[p.id] == Term(p.index // 2, 1)

    def test_rejects_non_semifree(self):
        with pytest.raises(NotSemifree):
            gamma_restrictions(REMARK_PAIR)


class TestMomentEquations:
    def test_hypercube_all_vanish(self):
        report = verify_moment_equations(hypercube_data(3))
        assert report.passed
        assert [s for _, s in report.sums] == [0, 0, 0]

    def test_sphere(self):
        report = verify_moment_equations(SPHERE)
        assert report.sums == ((0, Fraction(0)),)

    def test_bad_counts_fail_at_l0(self):
        data = FixedPointData(
            2,
            (
                FixedPoint("a", (1, 1)),
                FixedPoint("b", (1, -1)),
                FixedPoint("c", (-1, -1)),
            ),
        )
        report = verify_moment_equations(data)
        assert not report.passed
        assert report.sums[0] == (0, Fraction(1))


class TestPredictCounts:
    def test_examples(self):
        assert predict_counts(3, 1) == (1, 3, 3, 1)
        assert predict_counts(1, 1) == (1, 1)
        assert predict_counts(5, 2) == (2, 10, 20, 20, 10, 2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_data_counts(self, n):
        assert counts(hypercube_data(n)) == predict_counts(n, 1)

    def test_at_the_size_bound(self):
        row = predict_counts(MAX_COUNT_N, 3)
        assert len(row) == MAX_COUNT_N + 1
        for k in (0, 1, 7, MAX_COUNT_N // 2, MAX_COUNT_N - 1, MAX_COUNT_N):
            assert row[k] == 3 * math.comb(MAX_COUNT_N, k)

    def test_above_the_size_bound_is_refused(self):
        with pytest.raises(CountTooLarge):
            predict_counts(MAX_COUNT_N + 1, 1)


class TestConsistencyCheck:
    def test_remark_pair_passes(self):
        report = consistency_check(REMARK_PAIR, 3)
        assert report.passed
        top = next(e for e in report.entries if e.exponents == (0, 0, 1))
        assert top.value == 2  # integral of the top class

    def test_semifree_pair_fails(self):
        data = FixedPointData(
            3, (FixedPoint("a", (1, 1, -1)), FixedPoint("b", (-1, -1, 1)))
        )
        report = consistency_check(data, 3)
        assert not report.passed
        # degree 0 happens to cancel here; the first Chern integral does not:
        # sigma_1 / (prod w) sums to 1/(-1) + (-1)/1 = -2, below middle degree
        c1 = next(e for e in report.entries if e.exponents == (1, 0, 0))
        assert not c1.ok
        assert c1.value == Fraction(-2)

    def test_hypercube_passes_with_euler_number(self):
        report = consistency_check(hypercube_data(2), 2)
        assert report.passed
        top = next(e for e in report.entries if e.exponents == (0, 1))
        assert top.value == 4


class TestSearch:
    def test_finds_remark_pair(self):
        results = search_candidates(3, 2, 2, 3)
        assert ((-2, 1, 1), (-1, -1, 2)) in results

    def test_semifree_pairs_all_fail(self):
        assert search_candidates(3, 2, 1, 3) == []

    def test_two_sphere(self):
        assert search_candidates(1, 2, 1, 1) == [((-1,), (1,))]

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(localization, "MAX_SEARCH_CONFIGS", 10)
        with pytest.raises(SearchSpaceTooLarge):
            search_candidates(4, 6, 5, 4)

    def test_cap_counts_configurations(self, monkeypatch):
        # 20 point shapes of 3 weights in +-2, so C(21, 2) = 210 pairs
        monkeypatch.setattr(localization, "MAX_SEARCH_CONFIGS", 209)
        with pytest.raises(SearchSpaceTooLarge, match="210 candidate"):
            search_candidates(3, 2, 2, 3)
        monkeypatch.setattr(localization, "MAX_SEARCH_CONFIGS", 210)
        assert search_candidates(3, 2, 2, 3) == [((-2, 1, 1), (-1, -1, 2))]

    def test_integrals_of_too_many_digits_are_refused(self):
        # 999^1434 has 4302 digits; 1 997 001 configurations pass the cap
        with pytest.raises(IntegralTooLarge):
            search_candidates(1, 2, 999, 1434)

    def test_cap_counts_points_summed(self):
        # two point shapes: p + 1 configurations of p points each
        assert 5001 * 5000 > MAX_SEARCH_POINTS_SUMMED
        with pytest.raises(SearchSpaceTooLarge, match="5001 candidate .* over cap"):
            search_candidates(1, 5000, 1, 1)
        assert search_candidates(1, 1000, 1, 1) == [((-1,),) * 500 + ((1,),) * 500]

    def test_canonical_and_duplicate_free(self):
        results = search_candidates(3, 2, 2, 3)
        assert results == sorted(set(results))
        for config in results:
            assert all(tuple(sorted(w)) == w for w in config)


def random_document(rng: random.Random) -> FixedPointData:
    """Up to five points; weights in +-5 with mixed signs, or all +-1."""
    n = rng.randint(1, 4)
    values = rng.choice([[-1, 1], [w for w in range(-5, 6) if w]])
    return FixedPointData(n, tuple(
        FixedPoint(f"p{i}", tuple(rng.choice(values) for _ in range(n)))
        for i in range(rng.randint(1, 5))
    ))


class TestConsistencyCheckIsExact:
    """Every entry against a per-point Fraction sum written out here."""

    @staticmethod
    def expected_entries(data: FixedPointData, max_degree: int):
        n = data.n
        exponents = [
            e for e in product(range(max_degree + 1), repeat=n)
            if sum(i * ei for i, ei in enumerate(e, start=1)) <= max_degree
        ]
        degree = {e: sum(i * ei for i, ei in enumerate(e, start=1)) for e in exponents}
        exponents.sort(key=lambda e: (degree[e], [-ei for ei in e]))
        out = []
        for e in exponents:
            value = Fraction(0)
            for p in data.points:
                sigma = [sum(math.prod(c) for c in combinations(p.weights, i))
                         for i in range(1, n + 1)]
                value += Fraction(math.prod(s**ei for s, ei in zip(sigma, e)),
                                  math.prod(p.weights))
            ok = value == 0 if degree[e] < n else value.denominator == 1
            out.append((e, degree[e], value, ok))
        return out

    @pytest.mark.parametrize("seed", range(60))
    def test_random_documents(self, seed):
        rng = random.Random(seed)
        data = random_document(rng)
        # below, at and above the middle degree
        max_degree = rng.choice([0, data.n - 1, data.n, data.n + 2])
        report = consistency_check(data, max_degree)
        got = [(e.exponents, e.degree, e.value, e.ok) for e in report.entries]
        assert got == self.expected_entries(data, max_degree)
        assert all(isinstance(e.value, Fraction) for e in report.entries)

    @pytest.mark.parametrize("seed", range(20))
    def test_permuted_repeats_of_one_shape(self, seed):
        # one or two weight multisets, each point in its own weight order
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        values = [w for w in range(-3, 4) if w]
        kinds = [tuple(rng.choice(values) for _ in range(n)) for _ in range(rng.randint(1, 2))]
        data = FixedPointData(n, tuple(
            FixedPoint(f"p{i}", tuple(rng.sample(w, n)))
            for i, w in enumerate(rng.choices(kinds, k=rng.randint(2, 6)))
        ))
        max_degree = rng.choice([data.n - 1, data.n, data.n + 2])
        report = consistency_check(data, max_degree)
        got = [(e.exponents, e.degree, e.value, e.ok) for e in report.entries]
        assert got == self.expected_entries(data, max_degree)

    def test_documents_cover_both_outcomes(self):
        outcomes = set()
        for seed in range(60):
            rng = random.Random(seed)
            data = random_document(rng)
            max_degree = rng.choice([0, data.n - 1, data.n, data.n + 2])
            for e in consistency_check(data, max_degree).entries:
                outcomes.add((e.degree < data.n, e.ok))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


class TestTwoIntegrationRoutes:
    """consistency_check's value of each Chern monomial is integrate's
    coefficient of the restrictions prod sigma_i(w)^e_i * x^d."""

    @pytest.mark.parametrize("seed", range(60))
    def test_entries_are_integrals_of_the_restrictions(self, seed):
        rng = random.Random(seed)
        data = random_document(rng)
        max_degree = rng.choice([0, data.n - 1, data.n, data.n + 2])
        chern = {p.id: rep_chern_classes(p.weights, data.n) for p in data.points}
        for entry in consistency_check(data, max_degree).entries:
            alpha = RestrictionAssignment({
                pid: math.prod((c**e for c, e in zip(cs, entry.exponents)), start=Term(1))
                for pid, cs in chern.items()
            })
            assert integrate(data, alpha) == entry.value, entry.exponents


class TestChernMonomials:
    @pytest.mark.parametrize("n, max_degree", [(1, 5), (3, 7), (4, 2), (6, 9), (40, 3)])
    def test_count_refuses_exactly_above_the_cap(self, n, max_degree, monkeypatch):
        count = len(chern_monomials(n, max_degree).exponents)
        monkeypatch.setattr(localization, "MAX_CHERN_MONOMIALS", count)
        assert len(chern_monomials(n, max_degree).exponents) == count
        monkeypatch.setattr(localization, "MAX_CHERN_MONOMIALS", count - 1)
        with pytest.raises(TooManyMonomials):
            chern_monomials(n, max_degree)

    def test_exponents_are_bounded_too(self, monkeypatch):
        # 1, c_1, c_2, c_1^2 with four exponents each
        assert len(chern_monomials(4, 2).exponents) == 4
        monkeypatch.setattr(localization, "MAX_CHERN_EXPONENTS", 15)
        with pytest.raises(TooManyMonomials, match="exceed cap 3"):
            chern_monomials(4, 2)


class TestMonomialNumerators:
    def test_remark_pair(self):
        monomials = chern_monomials(3, 3)
        top = monomials.exponents.index((0, 0, 1))
        denominator, rows = monomial_numerators(monomials, [(1, 1, -2), (-1, -1, 2)])
        # sigma_3 = -2 and 2, scaled by 2 / (-2) and 2 / 2
        assert denominator == 2
        assert [row[top] for row in rows] == [2, 2]
        assert monomial_integrals(monomials, [(1, 1, -2), (-1, -1, 2)])[1][top] == 4

    def test_no_shapes(self):
        monomials = chern_monomials(2, 2)
        assert monomial_integrals(monomials, []) == (1, [0] * len(monomials.exponents))

    def test_integrals_are_the_column_sums_of_the_numerators(self):
        rng = random.Random(11)
        values = [w for w in range(-6, 7) if w]
        for _ in range(200):
            n = rng.randint(1, 4)
            monomials = chern_monomials(n, rng.randint(0, n + 3))
            shapes = [tuple(rng.choice(values) for _ in range(n))
                      for _ in range(rng.randint(1, 6))]
            denominator, rows = monomial_numerators(monomials, shapes)
            sums = [sum(column) for column in zip(*rows)]
            assert monomial_integrals(monomials, shapes) == (denominator, sums)


    def test_permuted_repeats_sum_as_the_points(self):
        # points that repeat a weight multiset in other orders: grouped by
        # multiset, the integrals are still the column sums of one row per
        # point
        rng = random.Random(12)
        values = [w for w in range(-4, 5) if w]
        for _ in range(100):
            n = rng.randint(1, 4)
            monomials = chern_monomials(n, rng.randint(0, n + 3))
            kinds = [tuple(rng.choice(values) for _ in range(n))
                     for _ in range(rng.randint(1, 3))]
            shapes = [tuple(rng.sample(w, n)) for w in rng.choices(kinds, k=rng.randint(1, 8))]
            denominator, rows = monomial_numerators(monomials, shapes)
            sums = [sum(column) for column in zip(*rows)]
            assert monomial_integrals(monomials, shapes) == (denominator, sums)

    def test_one_row_per_weight_multiset(self, monkeypatch):
        # the 256 points of the 8-cube hold 9 weight multisets, by the
        # number of weights -1
        calls = []
        monkeypatch.setattr(localization, "elementary_symmetric",
                            lambda values, up_to: calls.append(1)
                            or elementary_symmetric(values, up_to))
        assert consistency_check(hypercube_data(8), 8).passed
        assert len(calls) == 9


@lru_cache(maxsize=None)
def reference_search(n, points, bound, degree):
    """The sieve as one consistency_check per configuration.

    Returns the survivors and the number of configurations that pass every
    integral below degree n and fail integrality from degree n on.
    """
    values = [w for w in range(-bound, bound + 1) if w]
    shapes = list(combinations_with_replacement(values, n))
    passing, integrality_only = [], 0
    for config in combinations_with_replacement(shapes, points):
        data = FixedPointData(
            n, tuple(FixedPoint(f"F{i}", w) for i, w in enumerate(config))
        )
        report = consistency_check(data, degree)
        if report.passed:
            passing.append(config)
        elif all(e.ok for e in report.entries if e.degree < n):
            integrality_only += 1
    return passing, integrality_only


def seeded_grid(seed: int, size: int, most_configs: int):
    rng = random.Random(seed)
    grid = []
    while len(grid) < size:
        n, points, bound = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 3)
        key = (n, points, bound, rng.randint(1, n + 2))
        shapes = math.comb(2 * bound + n - 1, n)
        if math.comb(shapes + points - 1, points) <= most_configs and key not in grid:
            grid.append(key)
    return grid


# In (2, 4, 3, 2) two of the 10 626 configurations pass every integral below
# the middle degree and fail integrality; no search space of fewer than 8 855
# configurations has one (checked for n <= 8, points and bound <= 7 and
# degree <= 2n).  Each reference search here takes at most about 0.5 s.
SIEVE_GRID = [(2, 4, 3, 2), (3, 2, 2, 3), (2, 1, 3, 2)] + seeded_grid(5, 10, 2000)
# The searches of the benchmark's `sieve` workload, at most 1771
# configurations each.
SIEVE_MENU = [(3, 2, 3, 3), (3, 3, 2, 3), (2, 3, 3, 2), (3, 2, 3, 4), (2, 4, 2, 3),
              (4, 2, 2, 4), (3, 2, 2, 3)]


class TestSieveAgainstReference:
    @pytest.mark.parametrize(
        "key", SIEVE_GRID + [key for key in SIEVE_MENU if key not in SIEVE_GRID], ids=str)
    def test_survivors_and_order(self, key):
        assert search_candidates(*key) == reference_search(*key)[0]

    def test_grid_reaches_integrality(self):
        assert sum(reference_search(*key)[1] for key in SIEVE_GRID) >= 1

    def test_grid_has_shapes_told_apart_below_degree_zero(self):
        # search_candidates finds a configuration's last shape from the
        # degree-0 column alone, so the grid must hold two shapes that agree
        # there and differ in a later column below the middle degree, where
        # only the check after the lookup can reject the configuration
        def shapes_apart(n, bound, degree):
            values = [w for w in range(-bound, bound + 1) if w]
            shapes = list(combinations_with_replacement(values, n))
            _, rows = monomial_numerators(chern_monomials(n, min(degree, n - 1)), shapes)
            first_row = {}
            for row in rows:
                if first_row.setdefault(row[0], row) != row:
                    return True
            return False

        assert any(shapes_apart(n, bound, degree) for n, points, bound, degree in SIEVE_GRID
                   if points > 1)

    @pytest.mark.parametrize("key", SIEVE_GRID + [
        (3, 2, 3, 3), (3, 3, 2, 3), (2, 3, 3, 2), (3, 2, 3, 4), (2, 4, 2, 3),
        (4, 2, 2, 4), (2, 4, 4, 3), (3, 4, 2, 4), (1, 6, 4, 2),
    ], ids=str)
    def test_negation_maps_survivors_to_survivors(self, key):
        # w -> -w multiplies the integral of a degree-d monomial by (-1)^(d-n)
        survivors = search_candidates(*key)
        for config in survivors:
            negated = tuple(sorted(tuple(sorted(-w for w in p)) for p in config))
            assert negated in survivors


def test_elementary_symmetric_matches_binomials():
    assert elementary_symmetric([1] * 5, 5) == [math.comb(5, k) for k in range(1, 6)]
