"""Reference answers the benchmark computes without calling `semifree`.

Every checker takes the program's output and returns ``None`` when it is
right, or a one-line description of the first mismatch.  The references are
closed forms from the paper (binomial Betti numbers, ranks of the subset
lattice, Stirling numbers for the hypercube integrals) or survivor lists
frozen from the sieve and cross-checked by `sieve_survivors` below.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

Config = tuple[tuple[int, ...], ...]

# Survivors of `search --n N --points P --bound B --degree D`, keyed by
# (N, P, B, D), in canonical form: weights sorted within a point, points
# sorted.  (3, 2, 2, 3) is the paper's dimension-6 remark: with two fixed
# points only (1,1,-2)/(-1,-1,2) survives up to degree 3.
SURVIVORS: dict[tuple[int, int, int, int], list[Config]] = {
    (3, 2, 2, 3): [((-2, 1, 1), (-1, -1, 2))],
    (3, 2, 3, 3): [((-3, 1, 2), (-2, -1, 3)), ((-2, 1, 1), (-1, -1, 2))],
    (3, 3, 2, 3): [],
    (2, 3, 3, 2): [
        ((-3, -2), (-1, 2), (1, 3)),
        ((-3, -1), (-2, 1), (2, 3)),
        ((-2, -1), (-1, 1), (1, 2)),
    ],
    (3, 2, 3, 4): [((-3, 1, 2), (-2, -1, 3)), ((-2, 1, 1), (-1, -1, 2))],
    (2, 4, 2, 3): [
        ((-2, -2), (-2, 2), (-2, 2), (2, 2)),
        ((-2, -2), (-2, 2), (-1, 2), (1, 2)),
        ((-2, -1), (-2, 1), (-2, 2), (2, 2)),
        ((-2, -1), (-2, 1), (-1, 2), (1, 2)),
        ((-2, -1), (-1, 1), (-1, 2), (1, 1)),
        ((-2, 1), (-1, -1), (-1, 1), (1, 2)),
        ((-1, -1), (-1, 1), (-1, 1), (1, 1)),
    ],
    (4, 2, 2, 4): [],
    (2, 3, 2, 2): [((-2, -1), (-1, 1), (1, 2))],
    (1, 2, 2, 1): [((-2,), (2,)), ((-1,), (1,))],
}


def canonical(config) -> Config:
    return tuple(sorted(tuple(sorted(w)) for w in config))


# ---------------------------------------------------------------- reduce


def default_level(n: int) -> Fraction:
    """The regular level `reduce --n` uses without --c: the half-integer
    nearest the middle, n/2 for odd n and n/2 + 1/2 for even n."""
    return Fraction(n, 2) if n % 2 else Fraction(n + 1, 2)


def betti_closed_form(n: int, c: Fraction) -> list[int]:
    """b_i = sum_{k<c, k<=i} C(n,k) - sum_{k<c, n-k<=i} C(n,k), i < n."""
    below = [k for k in range(n + 1) if k < c]
    return [
        sum(math.comb(n, k) for k in below if k <= i)
        - sum(math.comb(n, k) for k in below if n - k <= i)
        for i in range(n)
    ]


def check_reduce(result, n: int, c: Fraction) -> str | None:
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    want = "betti: " + " ".join(map(str, betti_closed_form(n, c)))
    if not lines or lines[0] != want:
        return f"expected {want!r}, got {lines[:1]!r}"
    if "poincare duality: ok" not in lines or "FAIL" in out:
        return "duality or counting cross-check failed"
    return None


# ---------------------------------------------------------------- search / check

_CONFIG_POINT = re.compile(r"\(([-0-9,]+)\)")


def parse_search(out: str) -> tuple[int, list[Config]]:
    lines = out.splitlines()
    head = int(lines[0].split()[0])
    configs = [
        tuple(tuple(int(w) for w in m.split(",")) for m in _CONFIG_POINT.findall(line))
        for line in lines[1:]
    ]
    return head, configs


def check_search(result, key: tuple[int, int, int, int]) -> str | None:
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    try:
        head, got = parse_search(out)
    except (IndexError, ValueError):
        return "unparseable search output"
    want = SURVIVORS[key]
    if head != len(got) or len(set(got)) != len(got):
        return "survivor count line disagrees with the list, or duplicates"
    if sorted(got) != sorted(want):
        return f"survivors {got} != frozen {want}"
    return None


def moment_equations_hold(config: Config, n: int) -> bool:
    """sum_k N_k k^l (-1)^k = 0 for l < n, N_k = points with k negative weights."""
    N = [0] * (n + 1)
    for w in config:
        N[sum(1 for x in w if x < 0)] += 1
    return all(
        sum(N[k] * k**l * (-1) ** k for k in range(n + 1)) == 0 for l in range(n)
    )


def check_passes(config: Config, key: tuple[int, int, int, int]) -> bool:
    """Whether `check --max-degree D` accepts a configuration of the search space."""
    n = key[0]
    semifree = all(abs(x) == 1 for w in config for x in w)
    ok = canonical(config) in SURVIVORS[key]
    return ok and (not semifree or moment_equations_hold(config, n))


def check_check(result, passes: bool) -> str | None:
    rc, out = result
    want_rc, want_line = (0, "check: PASS") if passes else (1, "check: FAIL")
    last = out.splitlines()[-1:] or [""]
    if rc != want_rc or last[0] != want_line:
        return f"expected exit {want_rc} and {want_line!r}, got {rc} and {last[0]!r}"
    return None


def sieve_survivors(n: int, points: int, bound: int, degree: int) -> list[Config]:
    """Independent sieve over the same search space, used to vouch for
    SURVIVORS: Chern monomials integrate to 0 below degree n and to an
    integer from degree n on."""
    values = [w for w in range(-bound, bound + 1) if w]
    shapes = list(combinations_with_replacement(values, n))
    exponents = [
        e
        for e in product(*(range(degree // i + 1) for i in range(1, n + 1)))
        if sum(i * ei for i, ei in enumerate(e, start=1)) <= degree
    ]

    def sigmas(w):
        return [sum(math.prod(s) for s in combinations(w, i)) for i in range(1, n + 1)]

    out = []
    for config in combinations_with_replacement(shapes, points):
        per_point = [(sigmas(w), math.prod(w)) for w in config]
        if all(_monomial_ok(per_point, e, n) for e in exponents):
            out.append(canonical(config))
    return sorted(out)


def _monomial_ok(per_point, e, n: int) -> bool:
    total = sum(
        Fraction(math.prod(s**ei for s, ei in zip(sig, e)), wprod)
        for sig, wprod in per_point
    )
    d = sum(i * ei for i, ei in enumerate(e, start=1))
    return total == 0 if d < n else total.denominator == 1


# ---------------------------------------------------------------- model


def partitions_up_to(n: int) -> int:
    """Number of Chern monomials c_1^e1..c_n^en of degree <= n."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for d in range(part, n + 1):
            p[d] += p[d - part]
    return sum(p)


def check_hypercube_check(result, n: int) -> str | None:
    rc, out = result
    lines = out.splitlines()
    if rc != 0 or lines[-1:] != ["check: PASS"]:
        return f"exit code {rc}, last line {lines[-1:]}"
    moments = [l for l in lines if l.startswith("moment equation")]
    integrals = [l for l in lines if l.startswith("integral of")]
    if len(moments) != n or any(not l.endswith("sum = 0") for l in moments):
        return "moment equations not all zero"
    if len(integrals) != partitions_up_to(n) or any(not l.endswith(" ok") for l in integrals):
        return f"expected {partitions_up_to(n)} passing integrals, got {len(integrals)}"
    return None


_BIJECTION_LINE = re.compile(r"^\s+(\S+) -> \{([0-9, ]*)\}$")


def check_solve(result, n: int, levels: dict[str, int]) -> str | None:
    """The printed map is a bijection onto the subsets of {1..n} that sends a
    point with k negative weights to a k-subset."""
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    want = "counts: " + " ".join(str(math.comb(n, k)) for k in range(n + 1))
    if lines[:1] != [want]:
        return f"expected {want!r}, got {lines[:1]}"
    image = {}
    for line in lines:
        m = _BIJECTION_LINE.match(line)
        if m:
            J = frozenset(int(i) for i in m.group(2).replace(",", " ").split())
            image[m.group(1)] = J
    if image.keys() != levels.keys():
        return "bijection does not list every point exactly once"
    if len(set(image.values())) != len(image) or len(image) != 2**n:
        return "map is not a bijection onto the subsets"
    for pid, J in image.items():
        if len(J) != levels[pid] or not J <= set(range(1, n + 1)):
            return f"point {pid} of level {levels[pid]} sent to {sorted(J)}"
    return None


def check_count(result, n: int, N0: int) -> str | None:
    rc, out = result
    want = " ".join(str(N0 * math.comb(n, k)) for k in range(n + 1))
    if rc != 0 or out.strip() != want:
        return f"expected {want!r}, got {out.strip()!r} (exit {rc})"
    return None


def _x_power(d: int) -> str:
    return "1" if d == 0 else ("x" if d == 1 else f"x^{d}")


def chern_coefficients(n: int, k: int) -> dict[tuple[tuple[int, ...], int], int]:
    """c_k of prod_i (1 + t(2a_i - y)): a_S y^(k-|S|) has coefficient
    2^|S| (-1)^(k-|S|) C(n-|S|, k-|S|)."""
    return {
        (S, k - len(S)): 2 ** len(S) * (-1) ** (k - len(S)) * math.comb(n - len(S), k - len(S))
        for s in range(k + 1)
        for S in combinations(range(1, n + 1), s)
    }


def parse_cube_class(text: str) -> dict[tuple[tuple[int, ...], int], int]:
    terms = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = -1 if term.startswith("-") else 1
        coeff, subset, ypow = 1, [], 0
        for factor in term.lstrip("-").split("*"):
            if factor.startswith("a"):
                subset.append(int(factor[1:]))
            elif factor == "y":
                ypow = 1
            elif factor.startswith("y^"):
                ypow = int(factor[2:])
            else:
                coeff = int(factor)
        key = (tuple(sorted(subset)), ypow)
        terms[key] = terms.get(key, 0) + sign * coeff
    return terms


def check_ring(result, n: int) -> str | None:
    """Restriction of alpha_S to the point T is x^|S| when S is inside T and
    0 otherwise; the Chern series matches `chern_coefficients`."""
    rc, out = result
    if rc != 0:
        return f"exit code {rc}"
    try:
        doc = json.loads(out)
    except json.JSONDecodeError:
        return "ring output is not JSON"
    basis = doc["basis"]
    subset_of = {row["id"]: frozenset(row["subset"]) for row in basis}
    if doc["n"] != n or len(basis) != 2**n or sorted(doc["points"]) != sorted(subset_of):
        return "points and basis do not list the 2^n subsets"
    for row in basis:
        S = frozenset(row["subset"])
        for pid, got in zip(doc["points"], row["restrictions"], strict=True):
            want = _x_power(len(S)) if S <= subset_of[pid] else "0"
            if got != want:
                return f"alpha_{sorted(S)} at {pid}: {got} != {want}"
    series = doc["chern_series"]
    if len(series) != n:
        return f"{len(series)} Chern classes, expected {n}"
    for k, text in enumerate(series, start=1):
        if parse_cube_class(text) != chern_coefficients(n, k):
            return f"c{k} = {text} disagrees with the closed form"
    return None


def check_injectivity(report, n: int) -> str | None:
    want = [sum(math.comb(n, k) for k in range(d + 1)) for d in range(n + 1)]
    got_sizes = [e.basis_size for e in report.entries]
    got_ranks = [e.rank for e in report.entries]
    if got_sizes != want or got_ranks != want:
        return f"ranks {got_ranks}, basis sizes {got_sizes}, expected {want}"
    return None


def stirling2(k: int, n: int) -> int:
    S = [[0] * (n + 1) for _ in range(k + 1)]
    S[0][0] = 1
    for i in range(1, k + 1):
        for j in range(1, min(i, n) + 1):
            S[i][j] = j * S[i - 1][j] + S[i - 1][j - 1]
    return S[k][n]


def check_gamma_integral(value, n: int, k: int) -> str | None:
    """Integral of gamma^k over the n-cube: (-1)^n n! S(k, n) x^(k-n), which is
    0 for k < n and (-1)^n n! at k = n."""
    if k > n:
        raise ValueError("the workload integrates gamma^k for k <= n only")
    want = (-1) ** n * math.factorial(n) * stirling2(k, n)
    return None if value == want else f"integral of gamma^{k} is {value}, expected {want}"
