"""The model space: a product of n two-spheres with the diagonal circle action.

Fixed points are subsets J of {1..n}.  The equivariant cohomology ring is
Z[a_1..a_n, y] / (a_i y - a_i^2); classes are kept in normal form, so every
monomial is a square-free product of a_i's times a power of y.  Under the
rewrite a_i^2 -> a_i y, products of monomials stay monomials:

    (S1, m1) * (S2, m2) = (S1 | S2, m1 + m2 + |S1 & S2|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .algebra import Term, echelon_basis
from .errors import NotInModule, RingTooLarge, ZeroIsCritical
from .fixed_points import FixedPoint, FixedPointData

Monomial = tuple[tuple[int, ...], int]  # (sorted subset, power of y)


def _key(S, m: int) -> Monomial:
    return tuple(sorted(S)), m


class CubeClass:
    """Integer combination of square-free monomials times powers of y."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, int] | None = None):
        cleaned = {}
        if terms:
            for (S, m), c in terms.items():
                if c:
                    cleaned[(tuple(sorted(S)), int(m))] = int(c)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, *args):
        raise AttributeError("CubeClass is immutable")

    @staticmethod
    def unit() -> "CubeClass":
        return CubeClass({((), 0): 1})

    @staticmethod
    def gen_a(i: int) -> "CubeClass":
        return CubeClass({((i,), 0): 1})

    @staticmethod
    def gen_y() -> "CubeClass":
        return CubeClass({((), 1): 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CubeClass({((), 0): other})
        if not isinstance(other, CubeClass):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant equals its integer, so it hashes as that integer
        if set(self.terms) <= {((), 0)}:
            return hash(self.terms.get(((), 0), 0))
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "CubeClass":
        if isinstance(other, int):
            other = CubeClass({((), 0): other})
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return CubeClass(out)

    __radd__ = __add__

    def __neg__(self) -> "CubeClass":
        return CubeClass({k: -c for k, c in self.terms.items()})

    def __sub__(self, other) -> "CubeClass":
        if isinstance(other, int):
            other = CubeClass({((), 0): other})
        return self + (-other)

    def __rsub__(self, other) -> "CubeClass":
        return -(self - other)

    def __mul__(self, other) -> "CubeClass":
        if isinstance(other, int):
            return CubeClass({k: c * other for k, c in self.terms.items()})
        out: dict[Monomial, int] = {}
        for (S1, m1), c1 in self.terms.items():
            s1 = frozenset(S1)
            for (S2, m2), c2 in other.terms.items():
                s2 = frozenset(S2)
                k = _key(s1 | s2, m1 + m2 + len(s1 & s2))
                out[k] = out.get(k, 0) + c1 * c2
        return CubeClass(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "CubeClass":
        result = CubeClass.unit()
        for _ in range(k):
            result = result * self
        return result

    @property
    def degree(self) -> int:
        """The one degree len(S) + m of every term (S, m); -1 for zero.
        A class with terms of more than one degree raises ValueError."""
        degrees = {len(S) + m for S, m in self.terms}
        if len(degrees) > 1:
            raise ValueError(f"{self} is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop() if degrees else -1

    def monomials(self) -> list[tuple[Monomial, int]]:
        """Terms in normal-form order: by (degree, subset, y power)."""
        return sorted(
            self.terms.items(), key=lambda kv: (len(kv[0][0]) + kv[0][1], kv[0])
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (S, m), c in self.monomials():
            factors = [f"a{i}" for i in S]
            if m == 1:
                factors.append("y")
            elif m > 1:
                factors.append(f"y^{m}")
            body = "*".join(factors) or "1"
            if c == 1 and factors:
                parts.append(body)
            elif c == -1 and factors:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}" if factors else str(c))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"CubeClass({self.terms!r})"


def restrict_class(cls: CubeClass, J) -> Term:
    """Restrict a homogeneous class to the fixed point J: a_i -> x for i in J
    else 0, y -> x; a class of several degrees raises ValueError."""
    J = frozenset(J)
    return Term(sum(c for (S, m), c in cls.terms.items() if J.issuperset(S)), cls.degree)


def alpha_class(J) -> CubeClass:
    """Product of a_j over j in J; restricts to x^|J| exactly at supersets of J."""
    return CubeClass({_key(J, 0): 1})


def beta_class(J, n: int) -> CubeClass:
    """Product of (y - a_j) over j not in J; supported on subsets of J."""
    comp = sorted(set(range(1, n + 1)) - set(J))
    out: dict[Monomial, int] = {}
    for size in range(len(comp) + 1):
        for T in combinations(comp, size):
            out[_key(T, len(comp) - size)] = (-1) ** size
    return CubeClass(out)


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
    return [CubeClass({(S, m): chern_coefficient(n, k, len(S))
                       for S, m in degree_basis(n, k)})
            for k in range(1, min(up_to, n) + 1)]


def all_subsets(n: int) -> list[frozenset]:
    """Subsets of {1..n}, ordered by (size, lexicographic)."""
    out = []
    for size in range(n + 1):
        out.extend(frozenset(c) for c in combinations(range(1, n + 1), size))
    return out


def degree_basis(n: int, d: int) -> list[Monomial]:
    """Monomials (subset, y-power) of total degree d, in canonical order."""
    out = []
    for k in range(min(d, n) + 1):
        for S in combinations(range(1, n + 1), k):
            out.append((S, d - k))
    return out


def subset_id(J) -> str:
    """Deterministic point id for a subset, e.g. 'p135'; 'p' for the empty set."""
    return "p" + "".join(str(i) for i in sorted(J))


@dataclass(frozen=True)
class ModelData:
    """Model parameters: half-dimension and the moment offset c, mu(J) = |J| - c."""

    n: int
    c: Fraction | None = None

    def __post_init__(self):
        if self.c is None:
            # default regular level: half-integral offset nearest the middle
            c = Fraction(self.n, 2) if self.n % 2 else Fraction(self.n, 2) + Fraction(1, 2)
            object.__setattr__(self, "c", c)
        else:
            object.__setattr__(self, "c", Fraction(self.c))

    def mu(self, J) -> Fraction:
        return Fraction(len(J)) - self.c

    def require_regular(self):
        if self.c.denominator == 1:
            raise ZeroIsCritical(f"offset {self.c} makes 0 a critical level")


def hypercube_data(n: int, with_moment: bool = False, c: Fraction | None = None) -> FixedPointData:
    """Fixed point data of the model: one point per subset.

    Tangent weight convention: -1 on sphere i when i is in J, +1 otherwise,
    so the index of J is 2|J|.
    """
    model = ModelData(n, c)
    points = []
    for J in all_subsets(n):
        weights = tuple(-1 if i in J else 1 for i in range(1, n + 1))
        mu = model.mu(J) if with_moment else None
        points.append(FixedPoint(subset_id(J), weights, mu))
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
    n: int
    entries: tuple[RankCheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


# Largest n that injectivity_rank_check accepts: on a 2-core Xeon n = 10
# takes 0.15-0.17 s and n = 12 1.6-1.8 s, a little over half of it the 4^n
# subset tests that write the rows and the rest ranking the prefixes; each
# step costs about four times the one before.
MAX_INJECTIVITY_N = 12


def injectivity_rank_check(n: int) -> RankCheckReport:
    """Restriction to the fixed points is injective degree by degree.

    For each degree 2d <= 2n, the restrictions of the module basis elements
    alpha_J * x^(d-|J|), |J| <= d, to all 2^n fixed points must be linearly
    independent over the rationals.  Raises ValueError for n < 1 and
    RingTooLarge above MAX_INJECTIVITY_N.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > MAX_INJECTIVITY_N:
        raise RingTooLarge(f"n={n} exceeds the bound {MAX_INJECTIVITY_N}")
    subsets = all_subsets(n)
    # alpha_J * x^(d-|J|) restricts to x^d at supersets of J, else 0: the
    # row of coefficients is the same for every d
    rows = [{k: 1 for k, Jp in enumerate(subsets) if J <= Jp} for J in subsets]
    entries = []
    size = 0
    for d in range(n + 1):
        # subsets are ordered by size, so those with |J| <= d are a prefix
        size += math.comb(n, d)
        rank = len(echelon_basis(rows[:size]))
        entries.append(RankCheckEntry(d, size, rank))
    return RankCheckReport(n, tuple(entries))


def express_in_basis(cls: CubeClass, n: int) -> dict[frozenset, Term]:
    """Expand a homogeneous class over the alpha basis with Term coefficients.

    In normal form a_S y^m = x^m alpha_S, and a class of degree d has at
    most the one term (S, d - |S|) at each subset S, so the coefficient of
    alpha_S is the Term c x^(d - |S|).  The coefficients come in all_subsets
    order; a generator a_i with i outside 1..n is not in the module, and a
    class of several degrees raises ValueError.
    """
    if any(not 1 <= i <= n for S, _ in cls.terms for i in S):
        raise NotInModule(f"{cls} has a generator outside a1..a{n}")
    d = cls.degree
    terms = sorted(cls.terms.items(), key=lambda t: (len(t[0][0]), t[0]))
    return {frozenset(S): Term(c, d - len(S)) for (S, _), c in terms}
