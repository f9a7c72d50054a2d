"""Data model for the fixed-point data of a circle action with isolated fixed points.

A fixed point carries the integer weights of the circle action on its
tangent space; its index is twice the number of negative weights.  All
values are immutable, and FixedPointData checks its points when built, so
every instance holds distinct ids and n nonzero weights per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import (
    CountMismatch,
    DuplicateId,
    MissingMomentValue,
    WrongWeightCount,
    ZeroIsCritical,
    ZeroWeight,
)


@dataclass(frozen=True)
class FixedPoint:
    id: str
    weights: tuple[int, ...]
    moment_value: Fraction | None = None
    # number of negative weights, counted once the weights are checked; the
    # Morse index is twice this.  It follows from the weights, so it takes
    # no part in equality, hashing or repr.
    negative_count: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # exact values only: int weights, and an int or Fraction moment value
        object.__setattr__(self, "weights", tuple(self.weights))
        if bad := [w for w in self.weights if not isinstance(w, int)]:
            raise TypeError(f"point {self.id!r}: weights must be integers, "
                            f"got {type(bad[0]).__name__}")
        if isinstance(self.moment_value, int):
            object.__setattr__(self, "moment_value", Fraction(self.moment_value))
        elif not isinstance(self.moment_value, (Fraction, type(None))):
            raise TypeError(f"point {self.id!r}: the moment value must be an integer "
                            f"or Fraction, got {type(self.moment_value).__name__}")
        object.__setattr__(self, "negative_count", sum(1 for w in self.weights if w < 0))

    @property
    def index(self) -> int:
        return 2 * self.negative_count


@dataclass(frozen=True)
class FixedPointData:
    n: int
    points: tuple[FixedPoint, ...] = field(default_factory=tuple)

    def __post_init__(self):
        """Order the points by (index, id), then raise naming the first
        point, in that order, with a repeated id or a wrong or zero weight."""
        ordered = tuple(sorted(self.points, key=lambda p: (p.index, p.id)))
        object.__setattr__(self, "points", ordered)
        seen = set()
        for p in ordered:
            if p.id in seen:
                raise DuplicateId(f"duplicate point id {p.id!r}")
            seen.add(p.id)
            if len(p.weights) != self.n:
                raise WrongWeightCount(
                    f"point {p.id!r} has {len(p.weights)} weights, expected {self.n}"
                )
            if any(w == 0 for w in p.weights):
                raise ZeroWeight(f"point {p.id!r} has a zero weight")

    @property
    def semifree(self) -> bool:
        return all(abs(w) == 1 for p in self.points for w in p.weights)

    def point(self, pid: str) -> FixedPoint:
        for p in self.points:
            if p.id == pid:
                return p
        raise KeyError(pid)


def counts(data: FixedPointData) -> tuple[int, ...]:
    """N[k] = number of points with k negative weights, k = 0..n."""
    N = [0] * (data.n + 1)
    for p in data.points:
        N[p.negative_count] += 1
    return tuple(N)


def require_binomial_counts(data: FixedPointData) -> tuple[int, ...]:
    """The counts of data, raising CountMismatch at the first level k with
    N_k != C(n, k).  Every lower level matched, so C(n, k) is at most n
    times the number of points and the message stays short."""
    N = counts(data)
    for k, N_k in enumerate(N):
        if N_k != (c := math.comb(data.n, k)):
            raise CountMismatch(f"level {k} has {N_k} point(s), the binomial "
                                f"row needs C({data.n}, {k}) = {c}")
    return N


def split_by_moment_sign(
    data: FixedPointData,
) -> tuple[list[FixedPoint], list[FixedPoint]]:
    """Partition points into (positive moment, negative moment).

    Every point must carry a nonzero moment value: zero would make the
    reduction level critical.
    """
    plus, minus = [], []
    for p in data.points:
        if p.moment_value is None:
            raise MissingMomentValue(f"point {p.id!r} has no moment value")
        if p.moment_value == 0:
            raise ZeroIsCritical(f"point {p.id!r} has moment value 0")
        (plus if p.moment_value > 0 else minus).append(p)
    return plus, minus
