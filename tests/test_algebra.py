import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifree import algebra
from semifree.algebra import Term, echelon_basis, reduce_mod_rows, smith_normal_form
from semifree.cube import CubeClass
from semifree.localization import predict_counts


# --- independent oracles ---------------------------------------------------

def nullspace_oracle(rows, ncols):
    """Kernel basis of a rational matrix by textbook Gaussian elimination."""
    m = [[Fraction(e) for e in row] for row in rows]
    pivots = {}
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [e * inv for e in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots[c] = r
        r += 1
    basis = []
    free = [c for c in range(ncols) if c not in pivots]
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for c, row in pivots.items():
            v[c] = -m[row][fc]
        basis.append(v)
    return basis


def det_oracle(rows):
    """Determinant over the rationals by fraction-free elimination."""
    m = [[Fraction(e) for e in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] * inv
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


# --- homogeneous terms -----------------------------------------------------

class TestTerm:
    def test_zero_has_degree_minus_one(self):
        assert Term().degree == -1 and not Term()
        assert Term(0, 4) == Term() and Term(0, 4).degree == -1
        assert Term(3, 2).degree == 2 and Term(3, 2).coeff == 3

    def test_coefficients_are_fractions(self):
        assert isinstance(Term(3, 1).coeff, Fraction)
        with pytest.raises(TypeError):
            Term(0.5, 1)

    def test_negative_degree_is_rejected(self):
        with pytest.raises(ValueError):
            Term(1, -1)

    def test_arithmetic(self):
        x = Term(1, 1)
        assert Term(2, 1) + x == Term(3, 1)
        assert Term(2, 1) + Term(-2, 1) == Term()
        assert Term(2, 1) * x == Term(2, 2)
        assert 3 * Term(2, 1) == Term(2, 1) * 3 == Term(6, 1)
        assert Term(2, 1) * 0 == Term()
        assert Term(-2, 1) ** 3 == Term(-8, 3)
        assert Term(5, 2) ** 0 == Term() ** 0 == 1
        assert Term() ** 2 == Term()
        with pytest.raises(ValueError):
            x ** -1

    def test_zero_and_scalars_add_as_constants(self):
        x = Term(1, 1)
        assert x + Term() == Term() + x == x
        assert x + 0 == 0 + x == x
        assert sum([x, Term(2, 1), x], Term()) == Term(4, 1)
        assert Term(2) + 3 == 3 + Term(2) == 5

    # Python turns the NotImplemented of both operands into TypeError, as
    # CubeClass raises it itself
    @pytest.mark.parametrize("other", ["a", 1.5, None, CubeClass.gen_y()],
                             ids=["str", "float", "None", "CubeClass"])
    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    def test_other_operands_raise_type_error(self, op, other):
        with pytest.raises(TypeError):
            op(Term(1, 1), other)
        with pytest.raises(TypeError):
            op(other, Term(1, 1))

    @pytest.mark.parametrize("a, b", [
        (Term(1, 1), Term(1, 2)),
        (Term(1), Term(1, 1)),
        (Term(1, 1), 1),
        (1, Term(-3, 4)),
    ])
    def test_sum_of_two_degrees_is_refused(self, a, b):
        with pytest.raises(ValueError, match="degrees differ"):
            a + b

    # the text of each term as the dense polynomial class printed it
    @pytest.mark.parametrize("term, text", [
        (Term(), "0"),
        (Term(5), "5"),
        (Term(-2), "-2"),
        (Term(Fraction(1, 3)), "1/3"),
        (Term(1, 1), "x"),
        (Term(-1, 1), "-x"),
        (Term(2, 1), "2*x"),
        (Term(-3, 1), "-3*x"),
        (Term(1, 2), "x^2"),
        (Term(-1, 3), "-x^3"),
        (Term(Fraction(1, 2), 2), "1/2*x^2"),
        (Term(Fraction(-5, 4), 10), "-5/4*x^10"),
    ])
    def test_str(self, term, text):
        assert str(term) == text
        assert eval(repr(term)) == term

    def test_equal_constants_hash_equal(self):
        # a constant equals its scalar, so a set or dict finds it by that scalar
        assert 0 in {Term()}
        assert 3 in {Term(3)}
        assert Fraction(1, 2) in {Term(Fraction(1, 2))}
        assert Term(3) in {3}
        assert {Term(-2): "c"}[-2] == "c"
        assert Term(0, 5) in {0}
        assert Term(3, 1) not in {3}
        assert Term(3, 1) != 3 and Term(3, 1) != Term(3, 2)
        assert hash(Term(3, 1)) == hash(Term(Fraction(3), 1))
        # nor a float nor a string equals a term, not even its text
        assert (Term(Fraction(1, 2)) == 0.5) is False and Term(1, 1) != "x"

    def test_immutable(self):
        with pytest.raises(AttributeError):
            Term(1, 1).coeff = 2


# --- the kernel of the moment equations --------------------------------------

def power_rows(num_rows, num_cols):
    """The power matrix with entry (i, j) = j**i; 0**0 counts as 1."""
    return [[j**i for j in range(num_cols)] for i in range(num_rows)]


def signed_row(n):
    """The binomial row of predict_counts with signs (-1)^k."""
    return tuple((-1) ** k * c for k, c in enumerate(predict_counts(n, 1)))


class TestPredictCountsAgainstNullspaceOracle:
    def test_small(self):
        assert signed_row(1) == (1, -1)
        assert signed_row(2) == (1, -2, 1)
        assert signed_row(4) == (1, -4, 6, -4, 1)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_signed_binomials(self, n):
        assert signed_row(n) == tuple((-1) ** k * math.comb(n, k) for k in range(n + 1))
        for N0 in (2, 7):
            assert predict_counts(n, N0) == tuple(N0 * math.comb(n, k) for k in range(n + 1))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    def test_against_nullspace_oracle(self, n):
        # the n moment equations have a one-dimensional kernel: the signed row
        basis = nullspace_oracle(power_rows(n, n + 1), n + 1)
        assert len(basis) == 1
        scaled = tuple(v / basis[0][0] for v in basis[0])
        assert signed_row(n) == scaled


# --- sparse rows -------------------------------------------------------------

def sparse(row):
    return dict(enumerate(row))


def dense(rows, ncols):
    return [[row.get(j, 0) for j in range(ncols)] for row in rows]


# --- Smith normal form -------------------------------------------------------

class TestSmithNormalForm:
    def test_identity(self):
        assert smith_normal_form(map(sparse, [[1, 0], [0, 1]])) == (1, 1)

    def test_diagonal_2_3(self):
        assert smith_normal_form(map(sparse, [[2, 0], [0, 3]])) == (1, 6)

    def test_zero(self):
        assert smith_normal_form(map(sparse, [[0, 0], [0, 0]])) == ()

    def test_empty(self):
        assert smith_normal_form([]) == ()

    def test_one_shot_iterator_of_gapped_rows(self):
        # rows are read once; keys need not be contiguous, a stored zero is
        # not an entry and an empty map is a zero row
        rows = iter([{3: 2, 7: 0}, {7: 6}, {}])
        assert smith_normal_form(rows) == (2, 6)

    def test_rectangular(self):
        assert smith_normal_form(map(sparse, [[2, 4, 4], [-6, 6, 12]])) == (2, 6)

    def test_divisibility_chain_and_determinant(self):
        rng = random.Random(7)
        for _ in range(40):
            size = rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(size)] for _ in range(size)]
            factors = smith_normal_form(map(sparse, rows))
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            det = det_oracle(rows)
            if det:
                assert len(factors) == size
                assert math.prod(factors) == abs(det)
            else:
                assert len(factors) < size

    def test_raw_matrices_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(17)
        shapes = [(7, 3), (3, 7), (5, 5), (6, 1), (1, 6), (8, 8)]
        for trial in range(120):
            nrows, ncols = shapes[trial % len(shapes)]
            bound = rng.choice((1, 6, 50))
            # common column factors give nontrivial chains such as (1, 4) from
            # [[2, 1], [0, 2]], where a triangular diagonal is not the answer
            scale = [rng.choice((1, 1, 2, 3, 4, 6)) for _ in range(ncols)]
            m = [[rng.randint(-bound, bound) * s for s in scale] for _ in range(nrows)]
            for i in rng.sample(range(nrows), rng.randint(0, nrows // 2)):
                m[i] = [0] * ncols  # zero rows
            expected = tuple(abs(int(f)) for f in invariant_factors(sympy.Matrix(m)) if f)
            assert smith_normal_form(map(sparse, m)) == expected

    def test_a_non_unit_pivot_gets_the_full_smith_form(self):
        # one pivot of 2 is enough to leave the unit-pivot shortcut; the
        # determinant 2 then makes the chain (1, 2)
        assert smith_normal_form(map(sparse, [[2, 1], [0, 1]])) == (1, 2)

    def test_unit_pivots_with_off_diagonal_entries_give_ones(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(29)
        for _ in range(60):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(nrows, 8)
            pivots = sorted(rng.sample(range(ncols), nrows))
            m = [[0] * p + [1] + [rng.randint(-9, 9) for _ in range(ncols - p - 1)]
                 for p in pivots]
            expected = tuple(abs(int(f)) for f in invariant_factors(sympy.Matrix(m)) if f)
            assert expected == (1,) * nrows
            assert smith_normal_form(map(sparse, m)) == expected

    def test_distinct_unit_pivots_in_any_order_need_no_elimination(self, monkeypatch):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        passes = []
        monkeypatch.setattr(algebra, "echelon_basis",
                            lambda rows: passes.append(1) or echelon_basis(rows))
        rng = random.Random(31)
        for _ in range(60):
            nrows = rng.randint(1, 6)
            ncols = rng.randint(nrows, 8)
            # each row's smallest column holds +-1, no two rows share it, and
            # the rows come in no particular order
            m = [{p: rng.choice((1, -1)),
                  **{j: rng.randint(-9, 9) for j in range(p + 1, ncols) if rng.random() < 0.5}}
                 for p in rng.sample(range(ncols), nrows)]
            dense = [[row.get(j, 0) for j in range(ncols)] for row in m]
            expected = tuple(abs(int(f)) for f in invariant_factors(sympy.Matrix(dense)) if f)
            assert smith_normal_form(m) == expected == (1,) * nrows
        assert passes == []
        # a shared pivot, a pivot of 2, an empty row or a stored zero at the
        # smallest column sends the rows through an echelon pass first
        for rows, expected in (([{0: 1}, {0: 1, 1: 1}], (1, 1)), ([{0: 2, 1: 1}, {1: 1}], (1, 2)),
                               ([{0: -1}, {}], (1,)), ([{0: 0, 1: 1}], (1,))):
            passes.clear()
            assert smith_normal_form(rows) == expected
            assert passes, rows


# --- echelon basis -----------------------------------------------------------

def small_matrix(rng, nrows, ncols):
    """Mostly 0/+-1 entries, like the relation rows, with an occasional 2."""
    return [[rng.choice((0, 0, 0, 1, -1, 1, -1, 2)) for _ in range(ncols)]
            for _ in range(nrows)]


class TestEchelonBasis:
    def test_echelon_shape(self):
        rng = random.Random(11)
        for _ in range(200):
            ncols = rng.randint(1, 6)
            basis = echelon_basis(map(sparse, small_matrix(rng, rng.randint(0, 8), ncols)))
            pivots = [next(j for j, e in enumerate(row) if e) for row in dense(basis, ncols)]
            assert pivots == sorted(set(pivots))
            assert all(row[j] > 0 for row, j in zip(basis, pivots))
            assert all(e for row in basis for e in row.values())

    def test_rank_and_invariant_factors_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(3)
        for _ in range(150):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
            m = small_matrix(rng, nrows, ncols)
            basis = echelon_basis(map(sparse, m))
            assert len(basis) == sympy.Matrix(m).rank()
            expected = tuple(abs(int(f)) for f in invariant_factors(sympy.Matrix(m)) if f)
            assert smith_normal_form(basis) == expected

    def test_zero_and_empty_rows(self):
        assert echelon_basis([]) == []
        assert echelon_basis(map(sparse, [[0, 0, 0], [0, 0, 0]])) == []
        basis = echelon_basis(map(sparse, [[0, -2, 4], [0, 3, 0]]))
        assert dense(basis, 3) == [[0, 1, 4], [0, 0, 12]]

    def test_stored_zeros_are_dropped(self):
        # a stored zero left of the pivot must not be taken for the pivot
        assert echelon_basis([{0: 0, 1: -2, 2: 4}, {0: 0, 1: 3, 2: 0}]) == [
            {1: 1, 2: 4}, {2: 12}]
        assert echelon_basis([{0: 0}, {3: 0, 1: 0}, {}]) == []
        # nor may a Euclid step leave one where it cancels an entry
        assert echelon_basis([{0: 1, 1: 1}, {0: 1, 1: 1, 2: -1}]) == [{0: 1, 1: 1}, {2: 1}]

    def test_a_euclid_swap_changes_no_kept_row(self):
        # {0: 3, 3: 1} leaves remainder 1 at column 0 against the kept row
        # {0: 2, 1: 1}, which the swap displaces and reduces further: a copy
        # of it, so the basis returned before and the rows given stay as
        # they were
        rows = [{0: 2, 1: 1}, {0: 3, 3: 1}]
        kept = {}
        first = echelon_basis(rows[:1], kept)
        assert echelon_basis(rows[1:], kept) == [{0: 1, 1: -1, 3: 1}, {1: 3, 3: -2}]
        assert echelon_basis(rows) == [{0: 1, 1: -1, 3: 1}, {1: 3, 3: -2}]
        assert first == [{0: 2, 1: 1}]
        assert rows == [{0: 2, 1: 1}, {0: 3, 3: 1}]

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda ncols: st.tuples(
                st.lists(st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols),
                         max_size=6),
                st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
                st.lists(st.integers(-3, 3), min_size=6, max_size=6),
            )
        )
    )
    def test_reduction_is_constant_on_cosets(self, case):
        rows, v, coeffs = case
        basis = echelon_basis(map(sparse, rows))
        shifted = list(v)
        for c, row in zip(coeffs, rows):
            shifted = [a + c * b for a, b in zip(shifted, row)]
        assert reduce_mod_rows(shifted, basis) == reduce_mod_rows(v, basis)
        # and the representative differs from v by a lattice vector:
        # adding it as a row leaves the lattice unchanged
        r = reduce_mod_rows(v, basis)
        diff = [a - b for a, b in zip(v, r)]
        assert echelon_basis(map(sparse, [*rows, diff])) == basis
