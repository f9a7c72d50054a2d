import math
from fractions import Fraction

import pytest

from semifree.algebra import Term, X
from semifree.cube import all_subsets, alpha_class, hypercube_data, restrict_class
from semifree.errors import CountMismatch, NoIntegerSolution
from semifree.fixed_points import FixedPoint, FixedPointData
from semifree.pipeline import forced_level_sum, run_pipeline, solve_value_multiset
from semifree.reduction import betti_by_counting


class TestForcedLevelSums:
    def test_examples(self):
        assert forced_level_sum(3, 1) == X
        assert forced_level_sum(3, 3) == X
        assert forced_level_sum(3, 2) == Term(2, 1)
        assert forced_level_sum(5, 0) == Term()

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_total_over_levels(self, n):
        # each generator restricts to x at exactly half the points; Term's +
        # refuses two degrees, so every level sum is a multiple of x or 0
        total = sum((forced_level_sum(n, k) for k in range(n + 1)), Term())
        assert total == Term(2 ** (n - 1), 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_derivable_from_kernel_completion(self, n):
        # D_k = (-1)^k (level-k sum coefficient) = (-1)^k C(n-1, k-1) with
        # D_0 = 0, D_1 = -1 is killed by the first n-1 rows of the moment
        # matrix, entry (l, k) = k^l with 0^0 = 1
        d = [(-1) ** k * forced_level_sum(n, k).coeff for k in range(n + 1)]
        assert d == [(-1) ** k * math.comb(n - 1, k - 1) if k else 0 for k in range(n + 1)]
        for l in range(n - 1):
            assert sum(k**l * d_k for k, d_k in enumerate(d)) == 0


class TestSolveValueMultiset:
    def test_forced_zero_one(self):
        assert solve_value_multiset(2, 3) == (1, 1, 0)

    def test_all_zero(self):
        assert solve_value_multiset(0, 5) == (0,) * 5

    def test_excess_sum(self):
        with pytest.raises(NoIntegerSolution):
            solve_value_multiset(4, 3)

    def test_brute_force_oracle(self):
        # over all integer tuples with small entries, sum == square sum
        # forces every entry into {0, 1}
        from itertools import product

        for tup in product(range(-3, 4), repeat=3):
            if sum(tup) == sum(c * c for c in tup):
                assert all(c in (0, 1) for c in tup)
                s = sum(tup)
                assert tuple(sorted(tup, reverse=True)) == solve_value_multiset(s, 3)

    def test_constraints_hold(self):
        for count in range(1, 7):
            for total in range(count + 1):
                values = solve_value_multiset(total, count)
                assert sum(values) == total
                assert sum(v * v for v in values) == total


class TestRunPipeline:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_model_table(self, n):
        data = hypercube_data(n)
        subsets = run_pipeline(data)
        # a bijection onto the subsets that keeps the level, in level order
        assert list(subsets.values()) == all_subsets(n)
        for pid, J in subsets.items():
            assert len(J) == data.point(pid).negative_count
            # each model point is identified with its own subset
            assert pid == "p" + "".join(str(i) for i in sorted(J))
            # where the model's a_j restricts to x exactly for j in J
            for j in range(1, n + 1):
                assert restrict_class(alpha_class({j}), J) == (
                    X if j in J else Term()
                )

    def test_level_sums_in_certificate(self):
        subsets = run_pipeline(hypercube_data(4))
        for j in range(1, 5):
            for k in range(5):
                level = [restrict_class(alpha_class({j}), J)
                         for J in subsets.values() if len(J) == k]
                assert sum(level, Term()) == forced_level_sum(4, k)
                values = sorted((v.coeff for v in level), reverse=True)
                assert tuple(values) == solve_value_multiset(
                    math.comb(3, k - 1) if k else 0, math.comb(4, k)
                )

    def test_count_mismatch(self):
        data = FixedPointData(
            3,
            tuple(
                FixedPoint(f"q{i}", w)
                for i, w in enumerate(
                    [(1, 1, 1), (-1, 1, 1), (-1, -1, 1), (1, -1, -1)]
                )
            ),
        )
        with pytest.raises(CountMismatch):
            run_pipeline(data)

    def test_missing_middle_point_gives_one_message(self):
        # the counting formula and the deduction share one binomial-row check
        base = hypercube_data(4, Fraction(5, 2))
        data = FixedPointData(4, tuple(p for p in base.points if p.id != "p23"))
        message = "level 2 has 5 point(s), the binomial row needs C(4, 2) = 6"
        for run in (run_pipeline, betti_by_counting):
            with pytest.raises(CountMismatch) as excinfo:
                run(data)
            assert str(excinfo.value) == message

    def test_sphere_trivial_certificate(self):
        data = FixedPointData(1, (FixedPoint("s", (1,)), FixedPoint("n", (-1,))))
        assert run_pipeline(data) == {"s": frozenset(), "n": frozenset({1})}

    def test_relabeled_data_still_identified(self):
        # ids unrelated to subsets: the map must still be a bijection
        base = hypercube_data(3)
        renamed = FixedPointData(
            3,
            tuple(
                FixedPoint(f"pt{i:02d}", p.weights)
                for i, p in enumerate(base.points)
            ),
        )
        subsets = run_pipeline(renamed)
        assert sorted(map(len, subsets.values())) == [0, 1, 1, 1, 2, 2, 2, 3]
        assert len(set(subsets.values())) == 8

