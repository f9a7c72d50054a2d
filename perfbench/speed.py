"""The machine's speed, measured by a fixed reference computation.

On a shared host the speed one process gets drifts by up to 1.8x within
seconds, and a slow spell slows every operation alike; a run's median or
fastest latency does not remove a spell that lasts the whole run.  So the
benchmark times `reference()`, which never changes, just before and just
after each timed operation, and scales the operation's latency by
NOMINAL_S ÷ (mean of the two reference times): the result is the latency
on a machine on which `reference()` takes NOMINAL_S, whatever the speed
was at the moment of timing.

The reference is integer row reduction over Python ints, the kind of work
that dominates the workloads (Smith normal form, exact ranks), so that it
slows with them; it calls nothing from `semifree`, so a change to the
program leaves it alone.
"""

from __future__ import annotations

import random
from math import gcd
from time import perf_counter

SIZE = 40
# perf_counter seconds of one `reference()` on the 2-core x86-64 machine the
# benchmark was written on (the median over a few minutes).
NOMINAL_S = 0.015

_MATRIX = [[random.Random(7 * i + j).randint(-9, 9) for j in range(SIZE)] for i in range(SIZE)]


def reference() -> None:
    """Fraction-free elimination of a fixed integer matrix, each row divided
    by the gcd of its entries."""
    a = [list(row) for row in _MATRIX]
    n = len(a)
    for t in range(n):
        p = next((i for i in range(t, n) if a[i][t]), None)
        if p is None:
            continue
        a[t], a[p] = a[p], a[t]
        for i in range(t + 1, n):
            if a[i][t]:
                x, y = a[t][t], a[i][t]
                a[i] = [x * u - y * v for u, v in zip(a[i], a[t])]
                g = 0
                for u in a[i]:
                    g = gcd(g, u)
                if g > 1:
                    a[i] = [u // g for u in a[i]]


def reference_s() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a latency timed between two reference timings into
    the latency at nominal speed."""
    return NOMINAL_S / ((before + after) / 2)
