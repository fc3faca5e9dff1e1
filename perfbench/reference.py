"""A fixed pure-Python computation that gauges how fast the host runs
Python at this moment.

On a shared host other tenants change the speed of every process, by up
to a factor of two within a minute, and not by the same factor for every
kind of code.  The probe times two kinds of work residua does: bit-row
closure and dict lookups on rows, as in poset closure and meet tables,
and tuple-grid filtering with ``all``/``any`` over ``zip``, as in the
testbed's isolation search.  Its reading is the mean of the two slowdowns
against their times on a quiet host (1.0 there).  The benchmark runs the
probe next to the items and divides their times by its reading.  The
probe is owned by the benchmark and never changes, so a change to
residua moves the scaled times and a change in host load mostly does
not.
"""

from __future__ import annotations

import itertools
import time

# Times of the two parts on a quiet 2-core Xeon host, Python 3.11.
ROWS_NOMINAL_S = 0.0012
GRID_NOMINAL_S = 0.0012
ROWS = 64
GRID = tuple(itertools.product(range(6), repeat=3))


def _rows() -> int:
    n = ROWS
    # A fixed relation on 0..n-1, closed transitively on bit rows.
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (j - i) % 3 == 0 or (j & i) == i:
                up[i] |= 1 << j
    for k in range(n):
        row, bit = up[k], 1 << k
        for i in range(n):
            if up[i] & bit:
                up[i] |= row
    index = {row: i for i, row in enumerate(up)}
    total = 0
    for i in range(n):
        for j in range(n):
            k = index.get(up[i] & up[j])
            total += -1 if k is None else k
    return total


def _grid() -> int:
    total = 0
    for x in GRID[::54]:
        below = [z for z in GRID if z != x and all(min(a, 4) <= b for a, b in zip(z, x))]
        below.sort(key=lambda z: tuple(-c for c in z))
        ranges = [range(min(c, 3), -1, -1) for c in x]
        total += sum(1 for a in itertools.product(*ranges) if all(any(p < q for p, q in zip(z, a)) for z in below[:8]))
    return total


def _fastest(work) -> float:
    # The faster of two runs, so that one interrupted run does not skew
    # the items around it.
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def probe() -> float:
    """How many times slower than a quiet host Python runs now."""
    return (_fastest(_rows) / ROWS_NOMINAL_S + _fastest(_grid) / GRID_NOMINAL_S) / 2


def scale(raw_s: float, before: float, after: float) -> float:
    """A raw time scaled to quiet-host speed, by probes on either side."""
    return raw_s / ((before + after) / 2)
