"""Checks on solver output made apart from the program under test.

Nothing here touches ``fastmis``: results are checked against the
benchmark's own edge list, and the upper bound comes from scipy's
matching code.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching


class EdgeArrays:
    """The benchmark's edge list as two int arrays, built once per run."""

    def __init__(self, n: int, edges) -> None:
        flat = np.array(edges, dtype=np.int64).reshape(-1, 2)
        self.n = n
        self.u = flat[:, 0]
        self.v = flat[:, 1]


def independence_errors(arrays: EdgeArrays, solution) -> list[str]:
    """Reasons ``solution`` is not an independent set of the graph
    (an empty list when it is one)."""
    ids = np.fromiter(solution, dtype=np.int64, count=len(solution))
    errors = []
    bad = ids[(ids < 0) | (ids >= arrays.n)]
    if bad.size:
        errors.append(f"{bad.size} ids outside 0..{arrays.n - 1}, e.g. {int(bad[0])}")
        ids = ids[(ids >= 0) & (ids < arrays.n)]
    member = np.zeros(arrays.n, dtype=bool)
    member[ids] = True
    inside = member[arrays.u] & member[arrays.v]
    if inside.any():
        k = int(np.argmax(inside))
        errors.append(f"{int(inside.sum())} edges inside the set, e.g. "
                      f"({int(arrays.u[k])}, {int(arrays.v[k])})")
    return errors


def lp_upper_bound(arrays: EdgeArrays) -> float:
    """Optimum of the LP relaxation, n - nu(B)/2, where nu(B) is the
    maximum matching of the bipartite double cover (vertex v has a left
    copy and a right copy; edge {u, v} joins u_L-v_R and v_L-u_R).  No
    independent set is larger."""
    n = arrays.n
    rows = np.concatenate([arrays.u, arrays.v])
    cols = np.concatenate([arrays.v, arrays.u])
    cover = csr_matrix((np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n))
    matched = maximum_bipartite_matching(cover, perm_type="column")
    nu = int(np.count_nonzero(matched >= 0))
    return n - nu / 2
