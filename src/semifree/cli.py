"""Command-line surface: check, count, ring, solve, reduce, search.

Input files are plain text.  A document looks like

    # the two-point configuration in dimension 6
    n = 3
    point A weights 1 1 -2 moment -1/2
    point B weights -1 -1 2 moment 1/2

Rationals are written p/q or as plain integers.  Exit codes: 0 success,
1 a mathematical constraint failed or a size is above its bound, 2 malformed
input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from functools import cache

from . import localization, reduction
from .algebra import Term
from .cube import (
    degree_basis,
    equivariant_chern_series,
    hypercube_data,
    subset_id,
    superset_columns,
)
from .errors import (InputError, IntegralTooLarge, RingTooLarge, SemifreeError,
                     ZeroIsCritical)
from .fixed_points import FixedPoint, FixedPointData
from .pipeline import run_pipeline

EXIT_OK = 0
EXIT_CONSTRAINT = 1
EXIT_INPUT = 2

# Largest n for `ring`: its restriction table has 4^n entries, 3^n of them
# nonzero (superset_columns).  On a 2-core Xeon `ring --n 10` takes 0.2 s
# (text) to 0.6 s and 113 MB (structured), most of it the text or JSON of
# the table; n = 11 would need four times as much.
MAX_RING_N = 10

# Smallest value each numeric option accepts, by argparse destination.
MINIMUM = {"n": 1, "N0": 1, "points": 1, "bound": 1, "degree": 1, "max_degree": 0}


def check_ranges(args) -> None:
    for dest, least in MINIMUM.items():
        value = getattr(args, dest, None)
        if value is not None and value < least:
            option = "--" + dest.replace("_", "-")
            raise InputError(f"{option} must be at least {least}, got {value}")


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad rational {text!r}") from e


def parse_document(text: str) -> FixedPointData:
    """Parse the fixed-point data document format described above."""
    n = None
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        name, _, value = line.partition("=")
        if tokens[0] == "point":
            if n is None:
                raise InputError(f"line {lineno}: 'n = ...' must come first")
            if len(tokens) < 3 or tokens[2] != "weights":
                raise InputError(
                    f"line {lineno}: expected 'point <id> weights w1 ... [moment p/q]'"
                )
            pid = tokens[1]
            rest = tokens[3:]
            moment = None
            if "moment" in rest:
                i = rest.index("moment")
                if i + 1 != len(rest) - 1:
                    raise InputError(f"line {lineno}: moment takes one value")
                moment = parse_rational(rest[i + 1])
                rest = rest[:i]
            try:
                weights = tuple(int(w) for w in rest)
            except ValueError:
                raise InputError(f"line {lineno}: weights must be integers")
            if not weights:
                raise InputError(f"line {lineno}: no weights given")
            points.append(FixedPoint(pid, weights, moment))
        elif tokens[0] == "n" or name.strip() == "n":
            if n is not None:
                raise InputError(f"line {lineno}: a second 'n = <int>' line")
            if name.strip() != "n" or len(value.split()) != 1:
                raise InputError(f"line {lineno}: expected 'n = <int>'")
            try:
                n = int(value)
            except ValueError:
                raise InputError(f"line {lineno}: bad n {value.strip()!r}")
            if n < 1:
                raise InputError(f"line {lineno}: n must be at least 1, got {n}")
        else:
            raise InputError(f"line {lineno}: unrecognized directive {line!r}")
    if n is None:
        raise InputError("missing 'n = <int>' line")
    if not points:
        raise InputError("no points given")
    return FixedPointData(n, tuple(points))


def load_document(path: str) -> FixedPointData:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    return parse_document(text)


def cmd_check(args) -> int:
    data = load_document(args.file)
    max_degree = args.max_degree if args.max_degree is not None else data.n
    # first, so that too many Chern monomials or integrals too large to print
    # are refused before any output
    creport = localization.consistency_check(data, max_degree)
    for entry in creport.entries:
        value = entry.value
        if max(abs(value.numerator), value.denominator) >= localization.DIGITS_LIMIT:
            raise IntegralTooLarge(
                f"the integral of degree {entry.degree} has more than "
                f"{localization.MAX_COUNT_DIGITS} digits"
            )
    failed = False
    if data.semifree:
        report = localization.verify_moment_equations(data)
        for l, s in report.sums:
            print(f"moment equation l={l}: sum = {s}"
                  + ("" if s == 0 else "  FAIL"))
        failed |= not report.passed
    else:
        print("data is not semifree; skipping moment equations")
    for entry in creport.entries:
        mono = " ".join(
            f"c{i+1}^{e}" if e > 1 else f"c{i+1}"
            for i, e in enumerate(entry.exponents)
            if e
        ) or "1"
        status = "ok" if entry.ok else "FAIL"
        print(f"integral of {mono} (degree {entry.degree}): "
              f"{entry.value} * x^{entry.degree - data.n}  {status}")
    failed |= not creport.passed
    print("check:", "FAIL" if failed else "PASS")
    return EXIT_CONSTRAINT if failed else EXIT_OK


def cmd_count(args) -> int:
    print(" ".join(str(c) for c in localization.predict_counts(args.n, args.N0)))
    return EXIT_OK


def _ring_tables(n: int):
    if n > MAX_RING_N:
        raise RingTooLarge(f"n={n} exceeds the ring table bound {MAX_RING_N}")
    subsets = degree_basis(n, n)
    ids = [subset_id(J) for J in subsets]
    # alpha_J restricts to x^|J| at the supersets J' of J and to 0 elsewhere
    powers = [str(Term(1, k)) for k in range(n + 1)]
    basis = []
    for J, pid, columns in zip(subsets, ids, superset_columns(n)):
        row = ["0"] * len(subsets)
        power = powers[len(J)]
        for k in columns:
            row[k] = power
        basis.append({"subset": list(J), "id": pid, "restrictions": row})
    chern = [str(c) for c in equivariant_chern_series(n, n)]
    return {
        "n": n,
        "points": ids,
        "basis": basis,
        "chern_series": chern,
    }


def cmd_ring(args) -> int:
    tables = _ring_tables(args.n)
    if args.format == "structured":
        print(json.dumps(tables, indent=2))
        return EXIT_OK
    print(f"model ring for n={args.n}: Z[a1..a{args.n}, y]/(ai*y - ai^2)")
    print("points:", " ".join(tables["points"]))
    for row in tables["basis"]:
        label = "alpha_" + (row["id"][1:] or "0")
        print(f"{label}: " + "  ".join(row["restrictions"]))
    for i, c in enumerate(tables["chern_series"], start=1):
        print(f"c{i} = {c}")
    return EXIT_OK


def cmd_solve(args) -> int:
    data = load_document(args.file)
    subsets = run_pipeline(data)
    n = data.n
    row = [math.comb(n, k) for k in range(n + 1)]  # the counts just checked
    print(f"counts: {' '.join(map(str, row))}")
    for k, N_k in enumerate(row):
        # forced by n (see semifree.pipeline): the k-subsets holding j
        ones = math.comb(n - 1, k - 1) if k else 0
        values = [1] * ones + [0] * (N_k - ones)
        print(f"level {k}: generator sum = {Term(ones, 1)}, values = {values}")
    print("bijection certificate:")
    for pid, J in subsets.items():
        print(f"  {pid} -> {{{', '.join(str(i) for i in sorted(J))}}}")
    print("restriction data is isomorphic to the model's")
    return EXIT_OK


def cmd_reduce(args) -> int:
    if args.file:
        if args.n is not None or args.c is not None:
            raise InputError("reduce takes a file or --n (with optional --c), not both")
        data = load_document(args.file)
    else:
        if args.n is None:
            raise InputError("reduce needs --n (with optional --c) or a file")
        # default: the half-integral offset nearest the middle, n//2 + 1/2
        c = Fraction(2 * (args.n // 2) + 1, 2) if args.c is None else parse_rational(args.c)
        if c.denominator == 1:
            raise ZeroIsCritical(f"offset {c} makes 0 a critical level")
        reduction.require_reducible(args.n)
        data = hypercube_data(args.n, c)
    pres = reduction.presentation_from_data(data)
    n = data.n
    # the reduced space has dimension 2(n-1): nothing lives above that degree
    top = 2 * (n - 1)
    max_degree = args.max_degree if args.max_degree is not None else top
    if max_degree // 2 > n - 1:
        raise InputError(
            f"--max-degree {max_degree} is above the top degree {top} for n={n}"
        )
    q = reduction.graded_quotient(pres, max_degree)
    print("betti:", " ".join(str(r) for r in q.ranks))
    failed = False
    by_count = reduction.betti_by_counting(data)
    for i, (r, counted) in enumerate(zip(q.ranks, by_count)):
        if counted != r:
            print(f"degree {2*i}: quotient rank {r} != counting rank {counted}  FAIL")
            failed = True
    if any(q.torsion):
        print("torsion:", q.torsion, " FAIL")
        failed = True
    dual = reduction.poincare_check(q)
    print("poincare duality:", "ok" if dual else "FAIL")
    failed |= not dual
    for i, coefficients in enumerate(reduction.reduced_chern_series(q), start=1):
        print(f"c{i} image: {list(coefficients)}")
    if len(q.ranks) == n:  # the sum needs every degree 0..n-1
        print("euler characteristic:", q.euler_characteristic)
    return EXIT_CONSTRAINT if failed else EXIT_OK


def cmd_search(args) -> int:
    results = localization.search_candidates(
        args.n, args.points, args.bound, args.degree
    )
    print(f"{len(results)} configuration(s) pass all checks up to degree {args.degree}")
    for config in results:
        print("  " + "  ".join("(" + ",".join(map(str, w)) + ")" for w in config))
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    main call: parse_args leaves it as it is and copies each subcommand's
    func and every option default into a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="semifree",
        description="Exact localization computations for circle actions "
        "with isolated fixed points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate data and run all integral constraints")
    p.add_argument("file")
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("count", help="fixed-point counts forced by the moment equations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N0", type=int, default=1)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("ring", help="model ring basis, restriction table, Chern series")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("solve", help="check the binomial counts and label each point "
                       "by a subset; the level lines depend on n alone")
    p.add_argument("file")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="cohomology of the reduction at level zero")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--c", default=None)
    p.add_argument("--max-degree", type=int, default=None)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("search", help="enumerate weight data passing the sieve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_ranges(args)
        # by name, so a cmd_* rebound after the parser was cached is the one run
        return globals()[args.func.__name__](args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SemifreeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
