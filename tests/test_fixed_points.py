from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifree.errors import (
    DuplicateId,
    InputError,
    MissingMomentValue,
    WrongWeightCount,
    ZeroIsCritical,
    ZeroWeight,
)
from semifree.cube import hypercube_data
from semifree.fixed_points import (
    FixedPoint,
    FixedPointData,
    counts,
    split_by_moment_sign,
)

SPHERE = FixedPointData(1, (FixedPoint("s", (1,)), FixedPoint("n", (-1,))))


class TestValidate:
    """FixedPointData checks its points when built."""

    def test_two_sphere_ok(self):
        assert [p.id for p in SPHERE.points] == ["s", "n"]

    def test_zero_weight(self):
        with pytest.raises(ZeroWeight, match="'a'"):
            FixedPointData(2, (FixedPoint("a", (1, 0)),))

    def test_wrong_weight_count(self):
        with pytest.raises(WrongWeightCount, match="'a'"):
            FixedPointData(3, (FixedPoint("a", (1, -1)),))

    def test_duplicate_id(self):
        with pytest.raises(DuplicateId):
            FixedPointData(1, (FixedPoint("a", (1,)), FixedPoint("a", (-1,))))

    @pytest.mark.parametrize("points,error,message", [
        # index 0 before index 2, whatever the input order
        ((FixedPoint("a", (-1, 0)), FixedPoint("z", (1, 0))),
         ZeroWeight, "point 'z' has a zero weight"),
        ((FixedPoint("a", (-1, -1)), FixedPoint("z", (1,))),
         WrongWeightCount, "point 'z' has 1 weights, expected 2"),
        ((FixedPoint("b", (-1, 0)), FixedPoint("a", (1, 1)), FixedPoint("a", (1, -1))),
         DuplicateId, "duplicate point id 'a'"),
    ])
    def test_first_fault_in_index_order(self, points, error, message):
        with pytest.raises(error) as caught:
            FixedPointData(2, points)
        assert str(caught.value) == message
        assert isinstance(caught.value, InputError)


class TestCounts:
    def test_two_sphere(self):
        assert counts(SPHERE) == (1, 1)

    def test_hypercube(self):
        assert counts(hypercube_data(3)) == (1, 3, 3, 1)

    def test_non_semifree_pair(self):
        data = FixedPointData(
            3, (FixedPoint("a", (1, 1, -2)), FixedPoint("b", (-1, -1, 2)))
        )
        assert counts(data) == (0, 1, 1, 0)

    @given(st.permutations(list(range(8))))
    @settings(deadline=None)
    def test_invariant_under_point_order(self, perm):
        base = hypercube_data(3).points
        shuffled = FixedPointData(3, tuple(base[i] for i in perm))
        assert counts(shuffled) == (1, 3, 3, 1)

    def test_semifree_flag_and_index(self):
        data = hypercube_data(4)
        assert data.semifree
        for p in data.points:
            assert p.index == 2 * sum(1 for w in p.weights if w == -1)


class TestSplitByMomentSign:
    def test_two_sphere_split(self):
        data = FixedPointData(
            1,
            (
                FixedPoint("s", (1,), Fraction(-1, 2)),
                FixedPoint("n", (-1,), Fraction(1, 2)),
            ),
        )
        plus, minus = split_by_moment_sign(data)
        assert [p.id for p in plus] == ["n"]
        assert [p.id for p in minus] == ["s"]

    def test_balanced_hypercube(self):
        data = hypercube_data(3, with_moment=True)  # mu(J) = |J| - 3/2
        plus, minus = split_by_moment_sign(data)
        assert len(plus) == len(minus) == 4
        assert all(p.negative_count >= 2 for p in plus)
        assert all(p.negative_count <= 1 for p in minus)

    def test_missing_moment(self):
        with pytest.raises(MissingMomentValue):
            split_by_moment_sign(SPHERE)

    def test_zero_moment_is_critical(self):
        data = FixedPointData(
            1,
            (FixedPoint("s", (1,), Fraction(0)), FixedPoint("n", (-1,), Fraction(1))),
        )
        with pytest.raises(ZeroIsCritical):
            split_by_moment_sign(data)
