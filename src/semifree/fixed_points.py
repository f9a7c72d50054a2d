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
from operator import attrgetter

from .errors import (
    CountMismatch,
    DuplicateId,
    MissingMomentValue,
    NotSemifree,
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
        # exact values only: int weights, and an int or Fraction moment value.
        # On a point's few weights a list comprehension is faster than map.
        weights = tuple(self.weights)
        object.__setattr__(self, "weights", weights)
        if bad := [w for w in weights if not isinstance(w, int)]:
            raise TypeError(f"point {self.id!r}: weights must be integers, "
                            f"got {type(bad[0]).__name__}")
        moment = self.moment_value
        if isinstance(moment, int):
            object.__setattr__(self, "moment_value", Fraction(moment))
        elif moment is not None and not isinstance(moment, Fraction):
            raise TypeError(f"point {self.id!r}: the moment value must be an integer "
                            f"or Fraction, got {type(moment).__name__}")
        object.__setattr__(self, "negative_count", len([w for w in weights if w < 0]))

    @property
    def index(self) -> int:
        return 2 * self.negative_count


@dataclass(frozen=True)
class FixedPointData:
    """The fixed points of an action on a 2n-manifold, ordered by (index,
    id).  Building one raises naming the first point, in that order, with
    a repeated id, a wrong weight count or a zero weight."""
    n: int
    points: tuple[FixedPoint, ...] = field(default_factory=tuple)
    # every weight is +-1, the case the paper's theorem covers.  It follows
    # from the points, so it takes no part in equality, hashing or repr.
    semifree: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ordered = tuple(sorted(self.points, key=attrgetter("negative_count", "id")))
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
            if 0 in p.weights:
                raise ZeroWeight(f"point {p.id!r} has a zero weight")
        weights = set().union(*map(attrgetter("weights"), ordered))
        object.__setattr__(self, "semifree", weights <= {-1, 1})

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
    """The counts of data, checked as the deduction's input: NotSemifree
    unless every weight is +-1, then CountMismatch at the first level k with
    N_k != C(n, k).  Every lower level matched, so C(n, k) is at most n
    times the number of points and the message stays short."""
    if not data.semifree:
        raise NotSemifree("the deduction applies to semifree data only")
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
    reduction level critical.  The first point, in (index, id) order, with
    none or with 0 is named.  A Fraction's sign is its numerator's, so the
    sign is read from that integer.
    """
    plus, minus = [], []
    for p in data.points:
        if (m := p.moment_value) is None:
            raise MissingMomentValue(f"point {p.id!r} has no moment value")
        if not m:
            raise ZeroIsCritical(f"point {p.id!r} has moment value 0")
        (plus if m.numerator > 0 else minus).append(p)
    return plus, minus
