"""Recompute the reference size of each benchmark workload.

    python3 perfbench/reference.py pa100k
    python3 perfbench/reference.py mesh100 [--seconds 120]
    python3 perfbench/reference.py er20k [--seconds 40] [--seeds 1 2 3]

pa100k   the floor of the LP upper bound n - nu(B)/2, certified here;
         kernelization reaches it, so it is the optimum.
mesh100  an independent set from scipy's MILP solver (HiGHS) with one
         clique constraint per triangle and one edge constraint per
         edge outside every triangle; the set is checked independent
         under the benchmark's own edges, and the solver's dual bound
         is printed beside it.
er20k    the best size over wall-clock runs of the three pipelines on
         several seeds; the MILP solver gives nothing useful here.

The numbers this prints are the ones ``WORKLOADS`` in ``run.py`` records.
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

sys.path.insert(0, str(Path(__file__).resolve().parent))
import certify  # noqa: E402
import instances  # noqa: E402


def cliques_of(n: int, edges):
    """Triangles, plus the edges that lie in no triangle."""
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    triangles = []
    covered = set()
    for u, v in edges:
        a, b = min(u, v), max(u, v)
        for w in adjacency[a] & adjacency[b]:
            covered.add((a, b))
            if w > b:
                triangles.append((a, b, w))
    loose = [(min(u, v), max(u, v)) for u, v in edges
             if (min(u, v), max(u, v)) not in covered]
    return triangles + loose


def milp_reference(n: int, edges, seconds: float) -> int:
    cliques = cliques_of(n, edges)
    rows = np.repeat(np.arange(len(cliques)), [len(c) for c in cliques])
    cols = np.fromiter((v for c in cliques for v in c), dtype=np.int64)
    a = csr_matrix((np.ones(cols.size), (rows, cols)), shape=(len(cliques), n))
    result = milp(
        c=-np.ones(n),
        constraints=LinearConstraint(a, -np.inf, 1),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options={"time_limit": seconds, "disp": False},
    )
    if result.x is None:
        raise SystemExit(f"milp found no solution: {result.message}")
    chosen = {int(v) for v in np.flatnonzero(result.x > 0.5)}
    errors = certify.independence_errors(certify.EdgeArrays(n, edges), chosen)
    if errors:
        raise SystemExit(f"milp solution is not independent: {errors}")
    dual = -result.mip_dual_bound if result.mip_dual_bound is not None else math.nan
    print(f"{len(cliques)} clique constraints; status: {result.message}")
    print(f"independent set of {len(chosen)} (checked); dual bound {dual:.1f}")
    return len(chosen)


def search_reference(n: int, edges, seconds: float, seeds) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from fastmis.graph import load
    from fastmis.local_search import Budget
    from fastmis.pipelines import ker_mis, online_mis, plain_arw

    graph = load(edges, n)
    arrays = certify.EdgeArrays(n, edges)
    best = 0
    for seed in seeds:
        for name, run in (("onlinemis", lambda b, r: online_mis(graph, 0.01, b, r)),
                          ("kermis", lambda b, r: ker_mis(graph, 0.01, b, r)),
                          ("arw", lambda b, r: plain_arw(graph, b, r))):
            found = run(Budget(seconds=seconds), random.Random(seed))
            errors = certify.independence_errors(arrays, found)
            if errors:
                raise SystemExit(f"{name} seed {seed}: {errors}")
            print(f"{name} seed {seed}: {len(found)} after {seconds:g} s")
            best = max(best, len(found))
    print(f"best {best}")
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(instances.GENERATORS))
    parser.add_argument("--seconds", type=float, default=None,
                        help="solver time limit (mesh100: 120, er20k: 40 per run)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    n, edges = instances.GENERATORS[args.workload]()
    start = time.perf_counter()
    if args.workload == "pa100k":
        bound = certify.lp_upper_bound(certify.EdgeArrays(n, edges))
        print(f"LP upper bound {bound}; reference {math.floor(bound)}")
    elif args.workload == "mesh100":
        milp_reference(n, edges, args.seconds or 120.0)
    else:
        search_reference(n, edges, args.seconds or 40.0, args.seeds)
    print(f"took {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
