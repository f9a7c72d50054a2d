import math
import re
from fractions import Fraction

import pytest

from semifree.algebra import Term, X
from semifree.cube import all_subsets, alpha_class, hypercube_data, restrict_class
from semifree.cli import main
from semifree.errors import CountMismatch
from semifree.fixed_points import FixedPoint, FixedPointData
from semifree.pipeline import run_pipeline
from semifree.reduction import betti_by_counting


def solve_levels(n, tmp_path, capsys):
    """(generator sum, values) of each level line `solve` prints for the
    model's document in dimension 2n; the values come back as ints."""
    path = tmp_path / f"cube{n}.txt"
    path.write_text(f"n = {n}\n" + "".join(
        f"point {p.id} weights {' '.join(map(str, p.weights))}\n"
        for p in hypercube_data(n).points))
    assert main(["solve", str(path)]) == 0
    found = re.findall(r"^level (\d+): generator sum = (\S+), values = \[([01, ]*)\]$",
                       capsys.readouterr().out, re.MULTILINE)
    assert [int(k) for k, _, _ in found] == list(range(n + 1))
    return [(total, [int(v) for v in values.split(", ")]) for _, total, values in found]


class TestForcedLevelSums:
    """The level sums `solve` prints, C(n-1, k-1) x, checked against what
    forces them."""

    def test_examples(self, tmp_path, capsys):
        assert [total for total, _ in solve_levels(3, tmp_path, capsys)] == [
            "0", "x", "2*x", "x"]
        assert solve_levels(5, tmp_path, capsys)[0] == ("0", [0])

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_total_over_levels(self, n, tmp_path, capsys):
        # each generator restricts to x at exactly half the points, and each
        # printed sum is the sum of its printed values times x
        levels = solve_levels(n, tmp_path, capsys)
        assert all(total == str(Term(sum(values), 1)) for total, values in levels)
        assert sum(sum(values) for _, values in levels) == 2 ** (n - 1)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_derivable_from_kernel_completion(self, n, tmp_path, capsys):
        # D_k = (-1)^k (level-k sum coefficient) = (-1)^k C(n-1, k-1) with
        # D_0 = 0, D_1 = -1 is killed by the first n-1 rows of the moment
        # matrix, entry (l, k) = k^l with 0^0 = 1
        d = [(-1) ** k * sum(values)
             for k, (_, values) in enumerate(solve_levels(n, tmp_path, capsys))]
        assert d == [(-1) ** k * math.comb(n - 1, k - 1) if k else 0 for k in range(n + 1)]
        for l in range(n - 1):
            assert sum(k**l * d_k for k, d_k in enumerate(d)) == 0


class TestSolveValueMultiset:
    """The 0/1 values `solve` prints at each level."""

    def test_forced_zero_one(self, tmp_path, capsys):
        assert solve_levels(3, tmp_path, capsys)[2] == ("2*x", [1, 1, 0])

    def test_all_zero(self, tmp_path, capsys):
        assert solve_levels(5, tmp_path, capsys)[0][1] == [0]

    def test_brute_force_oracle(self, tmp_path, capsys):
        # over all integer tuples with small entries, sum == square sum
        # forces every entry into {0, 1}; solve writes such a tuple ones first
        from itertools import product

        solutions = {tuple(sorted(tup, reverse=True)) for tup in product(range(-3, 4), repeat=3)
                     if sum(tup) == sum(c * c for c in tup)}
        assert solutions == {(0, 0, 0), (1, 0, 0), (1, 1, 0), (1, 1, 1)}
        printed = [tuple(values) for _, values in solve_levels(3, tmp_path, capsys)]
        assert printed[1:3] == [(1, 0, 0), (1, 1, 0)]

    def test_constraints_hold(self, tmp_path, capsys):
        for n in range(1, 7):
            for k, (total, values) in enumerate(solve_levels(n, tmp_path, capsys)):
                assert len(values) == math.comb(n, k)
                assert sum(values) == sum(v * v for v in values)
                assert total == str(Term(sum(values), 1))


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

    def test_level_sums_in_certificate(self, tmp_path, capsys):
        # the model's restrictions over the pipeline's map give the lines
        # solve prints from n alone
        subsets = run_pipeline(hypercube_data(4))
        printed = solve_levels(4, tmp_path, capsys)
        for j in range(1, 5):
            for k in range(5):
                level = [restrict_class(alpha_class({j}), J)
                         for J in subsets.values() if len(J) == k]
                assert str(sum(level, Term())) == printed[k][0]
                values = sorted((v.coeff for v in level), reverse=True)
                assert values == printed[k][1]

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

