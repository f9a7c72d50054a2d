"""Exact scalar, homogeneous-term and integer-matrix arithmetic.

Scalars are ``fractions.Fraction`` throughout; nothing in this package ever
touches floating point.  Every class restricted to a fixed point is
homogeneous: one term c * x^d in a single generator ``x`` of degree two
(cohomologically), kept as a Term.  No polynomials or rational functions are
needed, so a localization integral is one Fraction (localization.integrate).  An
integer matrix is an iterable of sparse rows, maps {column: entry} with
non-negative integer columns.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an integer or Fraction, got {type(c).__name__}")


class Term:
    """The homogeneous class coeff * x^degree, with an exact rational coeff.

    Immutable.  Zero has degree -1, and a constant (degree 0) equals, and
    hashes as, its scalar.  Terms multiply and take powers; two terms add
    only when they have the same degree or one of them is zero.
    """

    __slots__ = ("coeff", "degree")

    def __init__(self, coeff=0, degree: int = 0):
        c = _as_fraction(coeff)
        if c and degree < 0:
            raise ValueError(f"negative degree {degree}")
        object.__setattr__(self, "coeff", c)
        object.__setattr__(self, "degree", degree if c else -1)

    def __setattr__(self, *args):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __bool__(self) -> bool:
        return bool(self.coeff)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Term(other)
        if not isinstance(other, Term):
            return NotImplemented
        return self.coeff == other.coeff and self.degree == other.degree

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        return hash(self.coeff if self.degree <= 0 else (self.coeff, self.degree))

    def __add__(self, other) -> "Term":
        if isinstance(other, (int, Fraction)):
            other = Term(other)
        elif not isinstance(other, Term):
            return NotImplemented
        if not other:
            return self
        if self and self.degree != other.degree:
            raise ValueError(f"cannot add {self} and {other}: degrees differ")
        return Term(self.coeff + other.coeff, other.degree)

    __radd__ = __add__

    def __mul__(self, other) -> "Term":
        if isinstance(other, (int, Fraction)):
            return Term(self.coeff * other, self.degree)
        if not isinstance(other, Term):
            return NotImplemented
        return Term(self.coeff * other.coeff, self.degree + other.degree)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Term":
        # a negative power of a nonconstant term has a negative degree: refused
        return Term(self.coeff**k, self.degree * k)

    def __str__(self) -> str:
        c, d = self.coeff, self.degree
        if d <= 0:
            return str(c)
        head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
        return f"{head}x^{d}" if d > 1 else f"{head}x"

    def __repr__(self) -> str:
        return f"Term({self.coeff!r}, {self.degree})"


X = Term(1, 1)


def smith_normal_form(rows: Iterable[Mapping[int, int]]) -> tuple[int, ...]:
    """Invariant factors, as a divisibility chain; their number is the rank.

    Rows are maps {column: entry} as echelon_basis takes them, read once;
    column keys must be non-negative integers.  Rows with unit pivots
    (_unit_pivots) are done: their minor on the pivot columns is triangular
    with diagonal +-1, of determinant +-1, so the gcd of their r x r minors
    is 1, and so is every invariant factor.  The rows as given are tested
    first, so an echelon basis whose pivots are all 1 is not eliminated
    again, then the result of the first echelon pass.  Otherwise alternates
    echelon_basis on the rows and on the columns (each pass drops zero
    lines) until the matrix is diagonal, then sorts the diagonal into a
    divisibility chain by replacing pairs with their gcd and lcm.  This
    ends: the (0, 0) entry becomes the gcd of its column, then of its row,
    so it is a positive integer that only shrinks; once it stops, it
    divides its column and its row, both clear, and the same argument
    applies to the trailing block.
    """
    rows = list(rows)
    if _unit_pivots(rows) or _unit_pivots(rows := echelon_basis(rows)):
        return (1,) * len(rows)
    # pivots increase from column 0 on, since keys are non-negative, so row
    # i has its pivot at column i or later: diagonal when its last column is i
    while any(max(row) > i for i, row in enumerate(rows)):
        cols: dict[int, dict[int, int]] = {}
        for i, row in enumerate(rows):
            for j, e in row.items():
                cols.setdefault(j, {})[i] = e
        rows = echelon_basis(cols[j] for j in sorted(cols))
    factors = [row[i] for i, row in enumerate(rows)]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            a, b = factors[i], factors[j]
            factors[i], factors[j] = math.gcd(a, b), math.lcm(a, b)
    return tuple(factors)


def _unit_pivots(rows: Sequence[Mapping[int, int]]) -> bool:
    """Whether every row's pivot, its smallest column, holds +-1 and no two
    rows share a pivot.  An empty row, or a stored zero at the smallest
    column, fails the test."""
    pivots = set()
    for row in rows:
        if not row or abs(row[c := min(row)]) != 1 or c in pivots:
            return False
        pivots.add(c)
    return True


def echelon_basis(rows: Iterable[Mapping[int, int]],
                  kept: dict[int, dict[int, int]] | None = None) -> list[dict[int, int]]:
    """Row echelon basis of the integer row lattice, sorted by pivot column.

    A row is a sparse map {column: entry}; zero entries are dropped on the
    way in and never stored, so a row's pivot is its smallest column.  Rows
    are taken one at a time.  A row is reduced by floor division against
    the kept row with the same pivot, touching only that row's entries; a
    nonzero remainder at the pivot makes the two rows swap roles, so this
    is Euclid on rows and the kept pivot only shrinks.  Zero rows are
    dropped and pivots are positive, so the length of the basis is the rank.

    `kept`, a map {pivot: row} of an echelon basis, is extended in place by
    `rows`, so a caller can add rows batch by batch and keep the basis of
    each batch so far.  No row is changed once kept: a kept row that a
    Euclid swap displaces is copied before it is reduced further, so the
    bases of earlier batches, which share their rows, stay as they were.
    """
    if kept is None:
        kept = {}
    for row in rows:
        r = {j: e for j, e in row.items() if e}
        while r:
            c = min(r)
            p = kept.get(c)
            if p is None:
                kept[c] = r if r[c] > 0 else {j: -e for j, e in r.items()}
                break
            q = r[c] // p[c]
            for j, b in p.items():
                if e := r.get(j, 0) - q * b:
                    r[j] = e
                else:
                    r.pop(j, None)
            if c in r:
                kept[c], r = r, dict(p)
    return [kept[c] for c in sorted(kept)]


def reduce_mod_rows(vec: Sequence[int], basis: Sequence[Mapping[int, int]]) -> list[int]:
    """Canonical representative of vec modulo the row lattice of `basis`.

    `vec` is dense.  `basis` must be an echelon basis with positive pivots,
    as returned by echelon_basis: later rows vanish at earlier pivot
    columns, so each pivot entry of the result ends in [0, pivot) and the
    result does not depend on which echelon basis of the lattice is given.
    """
    v = list(vec)
    for row in basis:
        col = min(row)
        q = v[col] // row[col]
        if q:
            for j, b in row.items():
                v[j] -= q * b
    return v
