import math
from fractions import Fraction

import pytest

from semifree.algebra import UniPoly, X, vandermonde_complete
from semifree.cube import hypercube_data
from semifree.errors import CountMismatch, NoIntegerSolution
from semifree.fixed_points import FixedPoint, FixedPointData
from semifree.pipeline import (
    beta_comparison_check,
    forced_level_sum,
    model_restriction_table,
    run_pipeline,
    solve_value_multiset,
)
from semifree.reduction import betti_by_counting


class TestForcedLevelSums:
    def test_examples(self):
        assert forced_level_sum(3, 1) == X
        assert forced_level_sum(3, 3) == X
        assert forced_level_sum(3, 2) == UniPoly.monomial(2, 1)
        assert forced_level_sum(5, 0) == UniPoly()

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_total_over_levels(self, n):
        # each generator restricts to x at exactly half the points
        total = sum(
            forced_level_sum(n, k).coefficient(1) for k in range(n + 1)
        )
        assert total == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_derivable_from_kernel_completion(self, n):
        # D_k = (-1)^k (level-k sum coefficient) is the unique kernel vector
        # of the (n-1)-row moment matrix with D_0 = 0, D_1 = -1
        d = vandermonde_complete(n, 1, {0: 0, 1: -1})
        for k in range(n + 1):
            expected = Fraction((-1) ** k) * forced_level_sum(n, k).coefficient(1)
            assert d[k] == expected


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
        cert, subsets = run_pipeline(hypercube_data(n))
        model = model_restriction_table(n)
        assert cert.table.point_levels == model.point_levels
        assert cert.table.entries == model.entries
        # bijection identifies each model point with its own subset
        for pid, J in subsets.items():
            assert pid == "p" + "".join(str(i) for i in sorted(J))

    def test_level_sums_in_certificate(self):
        cert, _ = run_pipeline(hypercube_data(4))
        for k in range(5):
            assert cert.level_sums[k] == forced_level_sum(4, k)
            assert cert.level_value_multisets[k] == solve_value_multiset(
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
        base = hypercube_data(4, with_moment=True)
        data = FixedPointData(4, tuple(p for p in base.points if p.id != "p23"))
        message = "level 2 has 5 point(s), the binomial row needs C(4, 2) = 6"
        for run in (run_pipeline, betti_by_counting):
            with pytest.raises(CountMismatch) as excinfo:
                run(data)
            assert str(excinfo.value) == message

    def test_sphere_trivial_certificate(self):
        data = FixedPointData(1, (FixedPoint("s", (1,)), FixedPoint("n", (-1,))))
        cert, subsets = run_pipeline(data)
        assert subsets == {"s": frozenset(), "n": frozenset({1})}

    def test_relabeled_data_still_identified(self):
        # ids unrelated to subsets: the certificate must still be a bijection
        base = hypercube_data(3)
        renamed = FixedPointData(
            3,
            tuple(
                FixedPoint(f"pt{i:02d}", p.weights)
                for i, p in enumerate(base.points)
            ),
        )
        _, subsets = run_pipeline(renamed)
        assert sorted(map(len, subsets.values())) == [0, 1, 1, 1, 2, 2, 2, 3]
        assert len(set(subsets.values())) == 8


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_beta_comparison_identity(n):
    assert beta_comparison_check(n)
