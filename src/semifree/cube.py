"""The model space: a product of n two-spheres with the diagonal circle action.

Fixed points are subsets J of {1..n}.  The equivariant cohomology ring is
Z[a_1..a_n, y] / (a_i y - a_i^2), and every class this package builds in
it is homogeneous.  A class of degree d is kept as its integer coefficients
c_S at square-free monomials a_S, the power of y being implied:

    sum over S of c_S a_S y^(d - |S|),   |S| <= d.

Since a_i^2 = a_i y, a product of two such monomials is the monomial of the
union at the sum of the degrees:

    a_S1 y^(d1 - |S1|) * a_S2 y^(d2 - |S2|) = a_(S1 | S2) y^(d1 + d2 - |S1 | S2|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .algebra import Term
from .errors import NotInModule, RingTooLarge
from .fixed_points import FixedPoint, FixedPointData


class CubeClass:
    """The homogeneous class sum c_S a_S y^(degree - |S|), integer c_S.

    Immutable.  `terms` maps each sorted subset S to its nonzero c_S: keys
    naming the same subset have their coefficients summed, and a key naming
    a generator twice is refused.  Zero has degree -1 and no terms, and a
    constant (degree 0) equals, and hashes as, its integer.  A subset larger
    than the degree, or a coefficient or scalar that is not an int, is
    refused.  Classes multiply and take
    powers; two classes add only when they have the same degree or one of
    them is zero.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: dict | None = None, degree: int = 0):
        terms = terms or {}
        if bad := [c for c in terms.values() if not isinstance(c, int)]:
            raise TypeError(f"expected integer coefficients, got {type(bad[0]).__name__}")
        summed: dict[tuple[int, ...], int] = {}
        for S, c in terms.items():
            key = tuple(sorted(set(S)))
            if len(key) < len(S):
                raise ValueError(f"key {S} names a generator twice")
            summed[key] = summed.get(key, 0) + int(c)
        cleaned = {S: c for S, c in summed.items() if c}
        if cleaned and len(big := max(cleaned, key=len)) > degree:
            raise ValueError(f"subset {big} is larger than the degree {degree}")
        object.__setattr__(self, "terms", cleaned)
        object.__setattr__(self, "degree", degree if cleaned else -1)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @staticmethod
    def unit() -> "CubeClass":
        return CubeClass({(): 1})

    @staticmethod
    def gen_a(i: int) -> "CubeClass":
        return CubeClass({(i,): 1}, 1)

    @staticmethod
    def gen_y() -> "CubeClass":
        return CubeClass({(): 1}, 1)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CubeClass({(): other})
        if not isinstance(other, CubeClass):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        # a constant equals its integer, so it hashes as that integer
        if self.degree <= 0:
            return hash(self.terms.get((), 0))
        return hash((self.degree, frozenset(self.terms.items())))

    def __add__(self, other) -> "CubeClass":
        if not isinstance(other, CubeClass):
            other = CubeClass({(): other})
        if not other:
            return self
        if self and self.degree != other.degree:
            raise ValueError(f"cannot add {self} and {other}: degrees differ")
        out = dict(self.terms)
        for S, c in other.terms.items():
            out[S] = out.get(S, 0) + c
        return CubeClass(out, other.degree)

    __radd__ = __add__

    def __neg__(self) -> "CubeClass":
        return self * -1

    def __sub__(self, other) -> "CubeClass":
        return self + (-other)

    def __rsub__(self, other) -> "CubeClass":
        return -(self - other)

    def __mul__(self, other) -> "CubeClass":
        if isinstance(other, int):
            return CubeClass({S: c * other for S, c in self.terms.items()}, self.degree)
        if not isinstance(other, CubeClass):
            # checked here: the zero class has no coefficient for __init__ to see
            raise TypeError(f"expected an integer or a class, got {type(other).__name__}")
        out: dict[tuple[int, ...], int] = {}
        for S1, c1 in self.terms.items():
            for S2, c2 in other.terms.items():
                S = tuple(sorted({*S1, *S2}))
                out[S] = out.get(S, 0) + c1 * c2
        return CubeClass(out, self.degree + other.degree)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CubeClass":
        if k < 0:
            raise ValueError(f"negative power {k}")
        result = CubeClass.unit()
        for _ in range(k):
            result = result * self
        return result

    def __str__(self) -> str:
        # each term is [sign] [|c|*] a_i*...*y^m, the factors written once
        d = self.degree
        powers = ["", "*y", *[f"*y^{m}" for m in range(2, d + 1)]]
        text = []
        for S, c in sorted(self.terms.items()):
            factors = "a" + "*a".join(map(str, S)) + powers[d - len(S)] if S else powers[d][1:]
            size = -c if c < 0 else c
            text.append(" - " if c < 0 else " + ")
            text.append((factors if size == 1 else f"{size}*{factors}") if factors else str(size))
        if not text:
            return "0"
        text[0] = "-" if text[0] == " - " else ""
        return "".join(text)

    def __repr__(self) -> str:
        return f"CubeClass({self.terms!r}, {self.degree})"


def restrict_class(cls: CubeClass, J) -> Term:
    """Restrict a class to the fixed point J: a_i -> x for i in J else 0,
    y -> x."""
    J = frozenset(J)
    return Term(sum(c for S, c in cls.terms.items() if J.issuperset(S)), cls.degree)


def alpha_class(J) -> CubeClass:
    """Product of a_j over j in J; restricts to x^|J| exactly at supersets of J."""
    return CubeClass({tuple(J): 1}, len(J))


def beta_class(J, n: int) -> CubeClass:
    """Product of (y - a_j) over j not in J; supported on subsets of J."""
    comp = sorted(set(range(1, n + 1)) - set(J))
    return CubeClass({T: (-1) ** size for size in range(len(comp) + 1)
                      for T in combinations(comp, size)}, len(comp))


def chern_coefficient(n: int, k: int, s: int) -> int:
    """Coefficient of a_S y^(k-s) in c_k, for any S of size s <= k.

    c_k sums, over the k-subsets I, the products of (2a_i - y) for i in I;
    a_S y^(k-s) comes from each I containing S, choosing 2a_i on S and -y
    off it, so the coefficient depends on s alone.
    """
    return 2**s * (-1) ** (k - s) * math.comb(n - s, k - s)


def equivariant_chern_series(n: int, up_to: int) -> list[CubeClass]:
    """c_1..c_min(up_to, n), the coefficients of t^k in the product of
    (1 + t(2a_i - y)), written term by term from chern_coefficient."""
    return [CubeClass({S: chern_coefficient(n, k, len(S)) for S in degree_basis(n, k)}, k)
            for k in range(1, min(up_to, n) + 1)]


def degree_basis(n: int, d: int) -> list[tuple[int, ...]]:
    """The sorted subsets S of {1..n}, |S| <= d, of the degree-d monomials
    a_S y^(d - |S|), ordered by (size, lexicographic)."""
    return [S for k in range(min(d, n) + 1) for S in combinations(range(1, n + 1), k)]


def all_subsets(n: int) -> list[frozenset]:
    """Subsets of {1..n} as frozensets, in degree_basis order."""
    return [frozenset(S) for S in degree_basis(n, n)]


def subset_mask(S) -> int:
    """A subset of {1..n} as the integer with bit i set for each i in it, so
    the union of disjoint subsets is the sum of their masks."""
    return sum(1 << i for i in S)


def submasks(mask: int, base: int = 0) -> list[int]:
    """base plus each subset of mask, for a base disjoint from mask: the
    list starts at base and doubles once per element of mask, from the
    smallest, each copy adding that element to every sum before it."""
    added = [base]
    while mask:
        b = mask & -mask
        mask -= b
        added += [U + b for U in added]
    return added


def superset_columns(n: int) -> list[list[int]]:
    """For each subset J in degree_basis order, the positions in that order
    of the subsets containing J: the points where alpha_J restricts to a
    nonzero class.  The supersets of J are J plus each subset of its
    complement, listed by submasks, so the table costs its 3^n entries and
    no subset test."""
    masks = [subset_mask(S) for S in degree_basis(n, n)]
    column = [0] * (2 << n)
    for k, U in enumerate(masks):
        column[U] = k
    full = subset_mask(range(1, n + 1))
    return [[column[U] for U in submasks(full - J, J)] for J in masks]


def subset_id(J) -> str:
    """Deterministic point id for a subset: 'p', the digit of each element
    below 10, then '_' and each element from 10 up, e.g. 'p135' or
    'p2_10_12'; 'p' for the empty set.  Sorting puts the single digits
    first, so no two subsets share an id."""
    return "p" + "".join([str(i) if i < 10 else f"_{i}" for i in sorted(J)])


def hypercube_data(n: int, c: Fraction | None = None) -> FixedPointData:
    """Fixed point data of the model: one point per subset, with moment
    value |J| - c when an offset c is given and none otherwise.

    Tangent weight convention: -1 on sphere i when i is in J, +1 otherwise,
    so the index of J is 2|J|.  The moment value depends on |J| alone, so
    the points of one size share it.
    """
    moments = [None if c is None else k - c for k in range(n + 1)]
    points = []
    for J in degree_basis(n, n):
        weights = [1] * n
        for i in J:
            weights[i - 1] = -1
        points.append(FixedPoint(subset_id(J), tuple(weights), moments[len(J)]))
    return FixedPointData(n, tuple(points))


@dataclass(frozen=True)
class RankCheckEntry:
    degree: int
    basis_size: int
    rank: int

    @property
    def ok(self) -> bool:
        return self.rank == self.basis_size


@dataclass(frozen=True)
class RankCheckReport:
    entries: tuple[RankCheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


# Largest n that injectivity_rank_check accepts: on a 2-core Xeon n = 10
# takes 11 ms and n = 12 75 ms, over four fifths of it listing the 3^n
# superset columns; each step costs about three times the one before.
MAX_INJECTIVITY_N = 12


def injectivity_rank_check(n: int) -> RankCheckReport:
    """Restriction to the fixed points is injective degree by degree.

    For each degree 2d <= 2n, the restrictions of the module basis elements
    alpha_J * x^(d-|J|), |J| <= d, to all 2^n fixed points must be linearly
    independent over the rationals.  Raises ValueError for n < 1 and
    RingTooLarge above MAX_INJECTIVITY_N.

    alpha_J * x^(d-|J|) restricts to x^d at the supersets of J, the columns
    superset_columns lists, and to 0 elsewhere.  J is its smallest superset
    and the others come later in degree_basis order, so the rows are
    unitriangular.  Each entry counts the rows of its prefix |J| <= d whose
    smallest column is their own position: they have distinct unit pivots,
    so the count is at most the rank, and equals it when the entry passes.
    The table is read, not assumed, so a wrong table fails.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_INJECTIVITY_N:
        raise RingTooLarge(f"n={n} exceeds the bound {MAX_INJECTIVITY_N}")
    # counted[k] counts among the first k rows; initial=0 keeps every entry an int
    counted = list(accumulate((min(c) == k for k, c in enumerate(superset_columns(n))), initial=0))
    # subsets are ordered by size, so those with |J| <= d are a prefix
    sizes = accumulate(math.comb(n, d) for d in range(n + 1))
    return RankCheckReport(tuple(
        RankCheckEntry(d, size, counted[size]) for d, size in enumerate(sizes)))


def express_in_basis(cls: CubeClass, n: int) -> dict[frozenset, Term]:
    """Expand a homogeneous class over the alpha basis with Term coefficients.

    Since a_S y^m = x^m alpha_S, the coefficient of alpha_S in a class of
    degree d is the Term c_S x^(d - |S|).  The coefficients come in
    all_subsets order; a generator a_i with i outside 1..n is not in the
    module.
    """
    if any(not 1 <= i <= n for S in cls.terms for i in S):
        raise NotInModule(f"{cls} has a generator outside a1..a{n}")
    terms = sorted(cls.terms.items(), key=lambda t: (len(t[0]), t[0]))
    return {frozenset(S): Term(c, cls.degree - len(S)) for S, c in terms}
