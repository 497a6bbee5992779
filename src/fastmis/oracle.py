"""Exact maximum-independent-set solvers for small instances.

These are the ground truth for every randomized correctness test in the
suite: a branch-and-bound solver with in-recursion simplification and a
brute enumerator of (1,2)-swaps.
"""

from __future__ import annotations

from .graph import Graph


class GraphTooLargeError(ValueError):
    """Refusal guard against accidental exponential runs."""


def exact_mis(g: Graph, node_limit: int = 40) -> tuple[int, set[int]]:
    """Optimal independent-set size and one witness, by branch and bound.

    Branches on a maximum-degree vertex (in vs. out of the solution),
    simplifies degree-0 and degree-1 vertices inside the recursion, and
    prunes with a greedy lower bound plus the trivial remaining-vertex
    upper bound.
    """
    vertices = g.alive_vertices()
    if len(vertices) > node_limit:
        raise GraphTooLargeError(
            f"{len(vertices)} alive vertices exceed the node limit {node_limit}"
        )
    adj: dict[int, set[int]] = {v: set(g.neighbors_live(v)) for v in vertices}

    best_set = _greedy_set(adj)
    best_size = len(best_set)

    chosen: list[int] = []

    def delete(v: int) -> list[tuple[int, int]]:
        touched = [(u, v) for u in adj[v]]
        for u in adj[v]:
            adj[u].discard(v)
        del adj[v]
        return touched

    def restore(v: int, touched: list[tuple[int, int]], nbrs: set[int]) -> None:
        adj[v] = nbrs
        for u, _ in touched:
            adj[u].add(v)

    def solve() -> None:
        nonlocal best_size, best_set
        undo: list[tuple[int, list[tuple[int, int]], set[int], bool]] = []
        # simplify: take degree-0 vertices and pendants outright
        changed = True
        while changed:
            changed = False
            for v in list(adj):
                if v not in adj:
                    continue
                d = len(adj[v])
                if d == 0:
                    chosen.append(v)
                    nbrs = adj[v]
                    undo.append((v, delete(v), nbrs, True))
                    changed = True
                elif d == 1:
                    u = next(iter(adj[v]))
                    chosen.append(v)
                    nbrs = adj[v]
                    undo.append((v, delete(v), nbrs, True))
                    nbrs_u = adj[u]
                    undo.append((u, delete(u), nbrs_u, False))
                    changed = True
        if not adj:
            if len(chosen) > best_size:
                best_size = len(chosen)
                best_set = set(chosen)
        elif len(chosen) + len(adj) > best_size:
            v = max(adj, key=lambda x: (len(adj[x]), -x))
            nbrs_v = set(adj[v])
            # branch: v in the solution, neighborhood removed
            chosen.append(v)
            undo_in = [(v, delete(v), nbrs_v, True)]
            for u in nbrs_v:
                nbrs_u = adj[u]
                undo_in.append((u, delete(u), nbrs_u, False))
            solve()
            for u, touched, nbrs, took in reversed(undo_in):
                restore(u, touched, nbrs)
                if took:
                    chosen.pop()
            # branch: v out
            undo_out = [(v, delete(v), nbrs_v, False)]
            solve()
            for u, touched, nbrs, _ in reversed(undo_out):
                restore(u, touched, nbrs)
        for u, touched, nbrs, took in reversed(undo):
            restore(u, touched, nbrs)
            if took:
                chosen.pop()

    solve()
    return best_size, best_set


def enumerate_swaps(g: Graph, sol) -> list[tuple[int, int, int]]:
    """All valid (1,2)-swaps of a maximal solution, by brute force.

    ``sol`` may be a Solution object or a plain vertex-id set; only
    membership is read, tightness is recomputed here from scratch so the
    enumeration stays independent of the incremental search structures.
    """
    members = sol if isinstance(sol, (set, frozenset)) else sol.vertices()
    members = {v for v in members if g.alive[v]}
    tightness = {v: 0 for v in g.alive_vertices()}
    for v in members:
        for u in g.neighbors_live(v):
            tightness[u] += 1
    swaps = []
    for v in sorted(members):
        ones = [u for u in g.neighbors_live(v) if u not in members and tightness[u] == 1]
        for i, u in enumerate(ones):
            for w in ones[i + 1:]:
                if not g.has_live_edge(u, w):
                    swaps.append((v, u, w))
    return swaps


def _greedy_set(adj: dict[int, set[int]]) -> set[int]:
    """Min-degree greedy independent set; lower bound seed for the search."""
    degree = {v: len(nb) for v, nb in adj.items()}
    dead: set[int] = set()
    out: set[int] = set()
    for v in sorted(adj, key=lambda x: (degree[x], x)):
        if v in dead:
            continue
        out.add(v)
        dead.add(v)
        dead.update(adj[v])
    return out
