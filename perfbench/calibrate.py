"""A fixed pure-Python workload that gauges how fast the host runs now.

On a host shared with other tenants the same computation can run two to
three times slower for minutes at a time, and CPU time slows with it: the
loss is in instructions per cycle, not in time spent descheduled.  No
statistic over one operation removes that.  The benchmark therefore times
this workload right before and right after every timed operation and
sets the operation's time against the mean of the two (``run.py``), so
that a slowdown of the host cancels and a change of the program does not.

The workload uses what the program uses: lists of integer lists, alive
flags, list comprehensions over neighbours, sets and a seeded
``random.Random``.  It runs with the garbage collector off, so that its
time does not depend on what else the process holds, and it never
changes, so its time moves with the host only.
"""

from __future__ import annotations

import gc
import random
import time

N = 20_000
M = 60_000
STEPS = 40_000
SEED = 4242

# The reference speed: the host runs the workload in this many seconds.
# On a 2-CPU Intel Xeon under Python 3.11 it took 0.16 to 0.36 s as the
# other tenants' load varied.  Times at the reference speed are ratios to
# the calibration times multiplied by this constant, so that they read as
# seconds.
REFERENCE_S = 0.2


def _graph() -> list[list[int]]:
    rng = random.Random(SEED)
    adjacency: list[list[int]] = [[] for _ in range(N)]
    seen = set()
    while len(seen) < M:
        u, v = rng.randrange(N), rng.randrange(N)
        key = (u, v) if u < v else (v, u)
        if u != v and key not in seen:
            seen.add(key)
            adjacency[u].append(v)
            adjacency[v].append(u)
    for nbrs in adjacency:
        nbrs.sort()
    return adjacency


_ADJACENCY = _graph()


def workload() -> int:
    """Copy the graph, build a greedy independent set by degree, then make
    seeded insert-and-evict moves on it; returns a checksum."""
    adjacency = [list(nbrs) for nbrs in _ADJACENCY]
    alive = [True] * N
    degree = [len(nbrs) for nbrs in adjacency]
    solution = set()
    for v in sorted(range(N), key=degree.__getitem__):
        if alive[v]:
            solution.add(v)
            for u in adjacency[v]:
                alive[u] = False
    rng = random.Random(SEED)
    tight = [0] * N
    for v in solution:
        for u in adjacency[v]:
            tight[u] += 1
    for _ in range(STEPS):
        v = rng.randrange(N)
        if v in solution:
            continue
        evicted = [u for u in adjacency[v] if u in solution]
        for u in evicted:
            solution.discard(u)
            for w in adjacency[u]:
                tight[w] -= 1
        solution.add(v)
        for w in adjacency[v]:
            tight[w] += 1
    return len(solution) + sum(tight)


CHECKSUM = workload()


def seconds() -> float:
    """Time one pass of the workload and check its result."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = workload()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if result != CHECKSUM:
        raise RuntimeError(f"calibration workload returned {result}, not {CHECKSUM}")
    return elapsed
