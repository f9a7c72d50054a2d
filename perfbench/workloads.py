"""Seeded operation lists for the three workloads.

A workload is a fixed mix of operations; the seed only picks the inputs
(the order of the levels and of the operations, the random configurations
handed to `check`, point ids, line order and moment scaling of the
documents).  The mix is chosen so that the seed moves little
work: every pass of `reduce` visits every regular level of n = 6 once, and
every pass of `sieve` runs every search of the menu once.

Each operation goes through `semifree.cli.main(argv)` with stdout captured,
or through a named public library function looked up at call time, so that
the tracer's wrappers see it.
"""

from __future__ import annotations

import io
import string
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, combinations_with_replacement
from pathlib import Path
from typing import Callable

import oracle

WHY = {
    "reduce": "reduce --n 6 at every regular level plus reduce --n 7: the n-frontier, "
    "where Smith normal form of the relation rows dominates",
    "sieve": "search over a menu of small weight configurations plus check on seeded "
    "documents: the Chern sieve (consistency_check) dominates, reduction is idle",
    "model": "ring, solve, check, count and reduce FILE on relabelled hypercube documents "
    "plus injectivity and gamma^k integrals at n = 8: rational arithmetic and pipeline",
}

# (n, points, bound, degree) of the `search` menu; each takes 60-200 ms.
SEARCH_MENU = [(3, 2, 3, 3), (3, 3, 2, 3), (2, 3, 3, 2), (3, 2, 3, 4), (2, 4, 2, 3), (4, 2, 2, 4)]
TOY_SEARCH_MENU = [(2, 3, 2, 2), (1, 2, 2, 1)]
REMARK = (3, 2, 2, 3)
# Some drawn documents cost half as much again to check as others.  With
# three per search the cheap checks outnumber the searches and the costly
# checks together, so the median operation stays a cheap check on every seed.
DRAWN_PER_SEARCH = 3


@dataclass
class Op:
    label: str
    run: Callable[[object], object]  # called with the package namespace
    check: Callable[[object], str | None]  # None when the output is right


def run_cli(argv: list[str], sf) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = sf.cli.main(argv)
    return rc, out.getvalue()


def cli_op(argv: list[str], check, label: str | None = None) -> Op:
    return Op(label or " ".join(argv), partial(run_cli, argv), check)


def lib_op(label: str, module: str, func: str, args: tuple, check) -> Op:
    def run(sf):
        return getattr(getattr(sf, module), func)(*args)

    return Op(label, run, check)


def _ids(rng, count: int) -> list[str]:
    """Distinct random point ids such as 'qZ3k0'."""
    alphabet = string.ascii_letters + string.digits
    ids: set[str] = set()
    while len(ids) < count:
        ids.add(rng.choice(string.ascii_letters) + "".join(rng.choices(alphabet, k=4)))
    return sorted(ids)


def _write_doc(docdir: Path, name: str, n: int, points, rng) -> str:
    """points: (id, weights, moment or None); lines are shuffled by the seed."""
    lines = [
        f"point {pid} weights {' '.join(map(str, w))}"
        + ("" if mu is None else f" moment {mu}")
        for pid, w, mu in points
    ]
    rng.shuffle(lines)
    path = docdir / f"{name}.txt"
    path.write_text(f"# {name}\nn = {n}\n" + "\n".join(lines) + "\n")
    return str(path)


def _hypercube_points(n: int, rng) -> list[tuple[str, tuple[int, ...], int]]:
    """(id, weights, |J|) per subset J; ids are random and assigned in random order."""
    subsets = [J for k in range(n + 1) for J in combinations(range(1, n + 1), k)]
    ids = _ids(rng, len(subsets))
    rng.shuffle(ids)
    return [
        (pid, tuple(-1 if i in J else 1 for i in range(1, n + 1)), len(J))
        for pid, J in zip(ids, subsets)
    ]


# ---------------------------------------------------------------- reduce


def _reduce_level_op(n: int, c: Fraction) -> Op:
    argv = ["reduce", "--n", str(n), "--c", f"{c.numerator}/{c.denominator}"]
    return cli_op(argv, partial(oracle.check_reduce, n=n, c=c))


def reduce_ops(rng, sf, docdir: Path, toy: bool) -> tuple[list[Op], Op]:
    small, big = (3, 4) if toy else (6, 7)
    levels = [Fraction(2 * k + 1, 2) for k in range(small)]
    rng.shuffle(levels)
    ops = [_reduce_level_op(small, c) for c in levels]
    frontier = cli_op(
        ["reduce", "--n", str(big)],
        partial(oracle.check_reduce, n=big, c=oracle.default_level(big)),
    )
    ops.insert(rng.randrange(len(ops) + 1), frontier)
    c = oracle.default_level(small) - 1
    warmup = cli_op(
        ["reduce", "--n", str(small), "--c", str(c)], partial(oracle.check_reduce, n=small, c=c)
    )
    return ops, warmup


# ---------------------------------------------------------------- sieve


def _search_op(key) -> Op:
    n, p, b, d = key
    argv = ["search", "--n", str(n), "--points", str(p), "--bound", str(b), "--degree", str(d)]
    return cli_op(argv, partial(oracle.check_search, key=key))


def _check_op(config, key, name: str, docdir: Path, rng) -> Op:
    n, _, _, d = key
    ids = _ids(rng, len(config))
    points = [(pid, tuple(rng.sample(w, len(w))), None) for pid, w in zip(ids, config)]
    path = _write_doc(docdir, name, n, points, rng)
    return cli_op(
        ["check", path, "--max-degree", str(d)],
        partial(oracle.check_check, passes=oracle.check_passes(config, key)),
        label=f"check {name} --max-degree {d}",
    )


def sieve_ops(rng, sf, docdir: Path, toy: bool) -> tuple[list[Op], Op]:
    menu = (TOY_SEARCH_MENU if toy else SEARCH_MENU) + [REMARK]
    ops = []
    for i, key in enumerate(menu):
        n, p, b, _ = key
        ops.append(_search_op(key))
        shapes = list(combinations_with_replacement([w for w in range(-b, b + 1) if w], n))
        for j in range(DRAWN_PER_SEARCH):
            drawn = oracle.canonical(rng.choice(shapes) for _ in range(p))
            ops.append(_check_op(drawn, key, f"drawn{i}_{j}", docdir, rng))
        if oracle.SURVIVORS[key]:
            survivor = rng.choice(oracle.SURVIVORS[key])
            ops.append(_check_op(survivor, key, f"survivor{i}", docdir, rng))
    rng.shuffle(ops)
    warmup = cli_op(
        ["search", "--n", "3", "--points", "2", "--bound", "2", "--degree", "3"],
        partial(oracle.check_search, key=REMARK),
    )
    return ops, warmup


# ---------------------------------------------------------------- model


def _gamma_power(sf, data, k: int):
    gamma = sf.localization.gamma_restrictions(data)
    return sf.localization.RestrictionAssignment({pid: v**k for pid, v in gamma.values.items()})


def model_ops(rng, sf, docdir: Path, toy: bool) -> tuple[list[Op], Op]:
    ring_n, cube_ns, moment_ns, lib_n = (3, (2, 3, 4), (2, 3), 4) if toy else (7, (6, 7, 8), (3, 4, 5), 8)
    ops = [
        cli_op(
            ["ring", "--n", str(ring_n), "--format", "structured"],
            partial(oracle.check_ring, n=ring_n),
        )
    ]
    for n in cube_ns:
        points = _hypercube_points(n, rng)
        path = _write_doc(docdir, f"cube{n}", n, [(pid, w, None) for pid, w, _ in points], rng)
        levels = {pid: k for pid, _, k in points}
        ops.append(cli_op(["solve", path], partial(oracle.check_solve, n=n, levels=levels),
                          label=f"solve cube{n}"))
        ops.append(cli_op(["check", path], partial(oracle.check_hypercube_check, n=n),
                          label=f"check cube{n}"))
    for _ in range(2):
        n, N0 = rng.randint(3, 5) if toy else rng.randint(6, 10), rng.randint(1, 5)
        ops.append(cli_op(["count", "--n", str(n), "--N0", str(N0)],
                          partial(oracle.check_count, n=n, N0=N0)))
    for n in moment_ns:
        for c in (Fraction(2 * k + 1, 2) for k in range(n)):
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            points = [(pid, w, scale * (k - c)) for pid, w, k in _hypercube_points(n, rng)]
            name = f"moment{n}_{c.numerator}"
            path = _write_doc(docdir, name, n, points, rng)
            ops.append(cli_op(["reduce", path], partial(oracle.check_reduce, n=n, c=c),
                              label=f"reduce {name}"))
    ops.append(lib_op(f"injectivity_rank_check({lib_n})", "cube", "injectivity_rank_check",
                      (lib_n,), partial(oracle.check_injectivity, n=lib_n)))
    data = sf.cube.hypercube_data(lib_n)
    for k in range(lib_n + 1):
        ops.append(lib_op(f"integrate(cube{lib_n}, gamma^{k})", "localization", "integrate",
                          (data, _gamma_power(sf, data, k)),
                          partial(oracle.check_gamma_integral, n=lib_n, k=k)))
    rng.shuffle(ops)
    warmup = cli_op(["ring", "--n", "3", "--format", "structured"], partial(oracle.check_ring, n=3))
    return ops, warmup


# name -> maker(rng, package, document directory, toy) -> (operations, warm-up)
WORKLOADS = {"reduce": reduce_ops, "sieve": sieve_ops, "model": model_ops}
