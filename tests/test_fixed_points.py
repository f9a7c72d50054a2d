import random
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


class TestFixedPointTypes:
    @pytest.mark.parametrize("weights,name", [
        ((1.7, -1), "float"), ((1, Fraction(1)), "Fraction"), (("1",), "str")])
    def test_non_integer_weight_is_refused(self, weights, name):
        with pytest.raises(TypeError) as caught:
            FixedPoint("a", weights)
        assert str(caught.value) == f"point 'a': weights must be integers, got {name}"

    @pytest.mark.parametrize("moment,name", [(0.1, "float"), ("1/2", "str")])
    def test_float_moment_value_is_refused(self, moment, name):
        with pytest.raises(TypeError) as caught:
            FixedPoint("a", (1,), moment)
        assert str(caught.value) == (
            f"point 'a': the moment value must be an integer or Fraction, got {name}")

    def test_integer_moment_value_becomes_a_fraction(self):
        p = FixedPoint("a", [1, -1], -2)
        assert p.weights == (1, -1)
        assert p.moment_value == Fraction(-2) and isinstance(p.moment_value, Fraction)
        assert FixedPoint("a", (1,), Fraction(1, 3)).moment_value == Fraction(1, 3)
        assert FixedPoint("a", (1,)).moment_value is None


class TestNegativeCount:
    def test_counts_weights_that_are_not_semifree(self):
        p = FixedPoint("a", (2, -3, -1))
        assert p.negative_count == 2 and p.index == 4
        assert FixedPoint("b", ()).negative_count == 0
        assert FixedPoint("c", [-5, -1, -7]).negative_count == 3

    def test_a_non_integer_weight_is_refused_before_counting(self):
        compared = []

        class Weight:
            def __lt__(self, other):
                compared.append(other)
                return False

        with pytest.raises(TypeError) as caught:
            FixedPoint("a", (-1, Weight()))
        assert str(caught.value) == "point 'a': weights must be integers, got Weight"
        assert compared == []

    def test_takes_no_part_in_equality_hash_or_repr(self):
        p = FixedPoint("a", (2, -3, -1), Fraction(1, 2))
        assert repr(p) == "FixedPoint(id='a', weights=(2, -3, -1), moment_value=Fraction(1, 2))"
        assert hash(p) == hash(("a", (2, -3, -1), Fraction(1, 2)))
        assert p == FixedPoint("a", [2, -3, -1], Fraction(1, 2))
        assert p != FixedPoint("a", (2, -3, 1), Fraction(1, 2))
        with pytest.raises(TypeError):
            FixedPoint("a", (1,), None, 0)  # the count is not an argument


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


def unit_or_scaled_document(n, seed, scaled):
    """The hypercube's points under shuffled ids; when `scaled`, one weight
    of one random point is multiplied by 2..5, so the action is not
    semifree there."""
    rng = random.Random(seed)
    points = list(hypercube_data(n).points)
    rng.shuffle(points)
    if scaled:
        k, i = rng.randrange(len(points)), rng.randrange(n)
        weights = list(points[k].weights)
        weights[i] *= rng.randint(2, 5)
        points[k] = FixedPoint(points[k].id, tuple(weights))
    return FixedPointData(n, tuple(FixedPoint(f"q{i}", p.weights) for i, p in enumerate(points)))


class TestSemifree:
    def test_reading_it_keeps_equality_and_hash(self):
        a, b = hypercube_data(4), hypercube_data(4)
        assert a.semifree
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert b.semifree and a == b and hash(a) == hash(b)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("scaled", [False, True])
    def test_matches_the_weight_walk(self, seed, scaled):
        data = unit_or_scaled_document(1 + seed % 5, seed, scaled)
        walk = all(abs(w) == 1 for p in data.points for w in p.weights)
        assert walk is not scaled
        assert data.semifree is walk
        assert data.semifree is walk  # the second read gives the same value


def reference_walk(n, points):
    """(error type, message) for the first faulty point in (index, id)
    order, or (ordered points, semifree) when there is none."""
    ordered = sorted(points, key=lambda p: (sum(w < 0 for w in p.weights), p.id))
    seen = set()
    for p in ordered:
        if p.id in seen:
            return DuplicateId, f"duplicate point id {p.id!r}"
        seen.add(p.id)
        if len(p.weights) != n:
            return WrongWeightCount, f"point {p.id!r} has {len(p.weights)} weights, expected {n}"
        if 0 in p.weights:
            return ZeroWeight, f"point {p.id!r} has a zero weight"
    return tuple(ordered), all(w in (-1, 1) for p in ordered for w in p.weights)


def generated_points(rng, n):
    """0-12 points over a few ids, mostly n weights each, mostly +-1, with
    repeated ids, wrong weight counts, zero and non-unit weights mixed in."""
    weight_menu = [-1, 1] * 8 + [0, 2, -2, 3, -5]
    points = []
    for _ in range(rng.randint(0, 12)):
        count = n if rng.random() < 0.9 else rng.choice([n - 1, n + 1])
        weights = [rng.choice(weight_menu) for _ in range(count)]
        points.append(FixedPoint(rng.choice("abcdefghijklmnopqrst"), weights))
    return points


class TestOneWalk:
    """Building FixedPointData gives what a walk over the sorted points
    gives: the first fault, or the order and semifree."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_reference_walk(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(500):
            n = rng.randint(1, 5)
            points = generated_points(rng, n)
            expected = reference_walk(n, points)
            try:
                data = FixedPointData(n, tuple(points))
            except InputError as e:
                assert (type(e), str(e)) == expected
                outcomes.add(type(e))
                continue
            ordered, semifree = expected
            assert data.points == ordered and data.semifree is semifree
            outcomes.add(semifree)
            assert repr(data) == f"FixedPointData(n={n}, points={ordered!r})"
            assert hash(data) == hash((n, ordered))
            shuffled = FixedPointData(n, ordered[::-1])
            assert shuffled == data and hash(shuffled) == hash(data)
            # semifree takes no part in equality, hashing or repr
            object.__setattr__(shuffled, "semifree", not semifree)
            assert shuffled == data and hash(shuffled) == hash(data)
            assert repr(shuffled) == repr(data)
        assert outcomes == {DuplicateId, WrongWeightCount, ZeroWeight, True, False}

    def test_semifree_is_not_an_argument(self):
        with pytest.raises(TypeError):
            FixedPointData(1, (), True)
        with pytest.raises(TypeError):
            FixedPointData(1, semifree=True)


class TestPoint:
    def test_an_unknown_id_is_a_key_error(self):
        with pytest.raises(KeyError) as caught:
            SPHERE.point("m")
        assert caught.value.args == ("m",)


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
        data = hypercube_data(3, Fraction(3, 2))  # mu(J) = |J| - 3/2
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
