"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Every value asserted here is exact; tolerances are zero
throughout, with the stated runtime budgets enforced on the clock.
"""

import math
import random
import time
from fractions import Fraction

from semifree.algebra import Term
from semifree.cube import (
    CubeClass,
    all_subsets,
    alpha_class,
    express_in_basis,
    hypercube_data,
    injectivity_rank_check,
    restrict_class,
)
from semifree.localization import (
    RestrictionAssignment,
    euler_class,
    gamma_restrictions,
    integrate,
    predict_counts,
    search_candidates,
)
from semifree.pipeline import run_pipeline
from semifree.reduction import (
    betti_by_counting,
    graded_quotient,
    poincare_check,
    presentation_from_data,
)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_1_binomial_counts():
    start = time.monotonic()
    ok = all(
        predict_counts(n, 1) == tuple(math.comb(n, k) for k in range(n + 1))
        for n in range(1, 13)
    )
    elapsed = time.monotonic() - start
    report(f"1 binomial counts for n <= 12 ({elapsed:.3f}s)", ok and elapsed < 1.0)


def test_criterion_2_moment_equations_and_top_gamma_integral():
    ok = True
    for n in range(1, 9):
        for l in range(n):
            s = sum((-1) ** k * math.comb(n, k) * k**l for k in range(n + 1))
            ok &= s == 0
        data = hypercube_data(n)
        g = gamma_restrictions(data)
        top = RestrictionAssignment({p.id: g[p.id] ** n for p in data.points})
        value = integrate(data, top)
        ok &= value == (-1) ** n * math.factorial(n)
        # independent double-loop oracle: sum over points of k^n / (-1)^k
        oracle = Fraction(0)
        for p in data.points:
            k = p.negative_count
            oracle += Fraction(k**n, (-1) ** k)
        ok &= oracle == (-1) ** n * math.factorial(n)
        ok &= value == oracle
    report("2 moment equations and top gamma integral, n <= 8", ok)


def test_criterion_3_euler_characteristic():
    ok = True
    for n in range(1, 9):
        data = hypercube_data(n)
        alpha = RestrictionAssignment(
            {p.id: euler_class(p.weights) for p in data.points}
        )
        ok &= integrate(data, alpha) == 2**n
    report("3 top Chern integral equals 2^n, n <= 8", ok)


def test_criterion_4_remark_search():
    start = time.monotonic()
    results = search_candidates(3, 2, 2, 3)
    elapsed = time.monotonic() - start
    target = ((-2, 1, 1), (-1, -1, 2))
    found = target in results
    no_semifree = not any(
        all(abs(w) == 1 for point in config for w in point) for config in results
    )
    report(
        f"4 search reproduces the (1,1,-2)/(-1,-1,2) pair, no semifree pair ({elapsed:.3f}s)",
        found and no_semifree and elapsed < 10.0,
    )


def test_criterion_5_deduction_pipeline_matches_model():
    ok = True
    x = Term(1, 1)
    for n in range(1, 7):
        data = hypercube_data(n)
        subset_of = run_pipeline(data)
        # a level-preserving bijection onto the subsets of {1..n}
        ok &= len(subset_of) == len(data.points) == 2**n
        ok &= set(subset_of.values()) == set(all_subsets(n))
        ok &= all(
            len(J) == data.point(pid).negative_count for pid, J in subset_of.items()
        )
        for j in range(1, n + 1):
            a_j = alpha_class({j})
            level_sums = [Term()] * (n + 1)
            for J in subset_of.values():
                value = restrict_class(a_j, J)
                ok &= value == (x if j in J else Term())
                level_sums[len(J)] += value
            for k in range(n + 1):
                coeff = math.comb(n - 1, k - 1) if k else 0
                ok &= level_sums[k] == Term(coeff, 1)
    report("5 pipeline map matches the model's restrictions, n <= 6", ok)


def test_criterion_6_injectivity_ranks():
    ok = all(injectivity_rank_check(n).passed for n in range(1, 6))
    report("6 restriction basis has full rank in every degree, n <= 5", ok)


def test_criterion_7_reduced_space():
    start = time.monotonic()
    data3 = hypercube_data(3, Fraction(3, 2))
    q = graded_quotient(presentation_from_data(data3), 4)
    ok = q.ranks == (1, 4, 1)
    ok &= all(not t for t in q.torsion)
    ok &= betti_by_counting(data3) == q.ranks
    ok &= poincare_check(q)
    ok &= q.euler_characteristic == 6
    for n in range(1, 6):
        for step in range(n):
            c = Fraction(2 * step + 1, 2)
            data = hypercube_data(n, c)
            qn = graded_quotient(presentation_from_data(data), 2 * (n - 1))
            ok &= betti_by_counting(data) == qn.ranks
            ok &= poincare_check(qn)
    elapsed = time.monotonic() - start
    report(
        f"7 reduced-space ranks, duality, counting agreement ({elapsed:.1f}s)",
        ok and elapsed < 60.0,
    )


def test_criterion_8_ring_relation_restricts_to_zero():
    ok = True
    for n in range(1, 9):
        y = CubeClass.gen_y()
        for i in range(1, n + 1):
            a = CubeClass.gen_a(i)
            for J in all_subsets(n):
                lhs = restrict_class(a, J) * restrict_class(y, J)
                rhs = restrict_class(a, J) * restrict_class(a, J)
                ok &= lhs == rhs
            ok &= not (a * y - a * a)  # normal form absorbs the relation
    report("8 a_i y - a_i^2 restricts to zero at all points, n <= 8", ok)


def test_criterion_9_property_suite():
    rng = random.Random(2024)

    def random_class(n):
        # one degree d, then subsets of size at most d
        d = rng.randint(0, n + 3)
        terms = {}
        for _ in range(rng.randint(0, 4)):
            S = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, min(d, n)))))
            terms[S] = rng.randint(-5, 5)
        return CubeClass(terms, d)

    ok = True
    for _ in range(1000):
        n = rng.randint(1, 4)
        f, g = random_class(n), random_class(n)
        J = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
        ok &= restrict_class(f * g, J) == restrict_class(f, J) * restrict_class(g, J)
    for _ in range(100):
        n = rng.randint(1, 4)
        cls = random_class(n)
        rebuilt = CubeClass()
        for J, term in express_in_basis(cls, n).items():
            rebuilt = rebuilt + int(term.coeff) * (
                alpha_class(J) * CubeClass.gen_y() ** term.degree
            )
        ok &= rebuilt == cls
    data = hypercube_data(3)
    for _ in range(100):
        d = rng.randint(0, 4)
        a = {p.id: Term(rng.randint(-4, 4), d) for p in data.points}
        b = {p.id: Term(rng.randint(-4, 4), d) for p in data.points}
        c = rng.randint(-3, 3)
        lhs = integrate(
            data, RestrictionAssignment({pid: a[pid] * c + b[pid] for pid in a})
        )
        rhs = integrate(data, RestrictionAssignment(a)) * c + integrate(
            data, RestrictionAssignment(b)
        )
        ok &= lhs == rhs
    report("9 multiplicativity, basis round-trip, linearity properties", ok)
