"""Shared graph builders and rescan checkers for the test suite."""

from __future__ import annotations

import random
from itertools import combinations

from fastmis.graph import Graph, load


def path_graph(n: int) -> Graph:
    return load([(i, i + 1) for i in range(n - 1)], n)


def cycle_graph(n: int) -> Graph:
    return load([(i, (i + 1) % n) for i in range(n)], n)


def star_graph(leaves: int) -> Graph:
    return load([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def complete_graph(n: int) -> Graph:
    return load(list(combinations(range(n), 2)), n)


def complete_bipartite(a: int, b: int) -> Graph:
    return load([(i, a + j) for i in range(a) for j in range(b)], a + b)


def empty_graph(n: int) -> Graph:
    return load([], n)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return load(outer + spokes + inner, 10)


def er_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return load(edges, n)


def random_tree(rng: random.Random, n: int) -> Graph:
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return load(edges, n)


def ba_graph(rng: random.Random, n: int, attach=3) -> Graph:
    """Preferential attachment: each new vertex wires to degree-weighted
    targets. ``attach`` is a link count or a tuple sampled per vertex;
    mixed counts give the degree-1 and degree-2 mass real complex
    networks carry alongside their hubs."""
    choices = attach if isinstance(attach, tuple) else (attach,)
    edges = [(0, 1)]
    pool = [0, 1]
    for v in range(2, n):
        want = rng.choice(choices)
        targets = set()
        tries = 0
        while len(targets) < want and tries < 20 * want:
            targets.add(pool[rng.randrange(len(pool))])
            tries += 1
        for t in targets:
            edges.append((v, t))
            pool.append(v)
            pool.append(t)
    return load(edges, n)


def gnm_graph(rng: random.Random, n: int, m: int) -> Graph:
    """G(n, m): ``m`` distinct vertex pairs drawn uniformly."""
    seen = set()
    while len(seen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            seen.add((u, v) if u < v else (v, u))
    return load(list(seen), n)


def mesh_graph(rng: random.Random, side: int) -> Graph:
    """A side x side grid; each unit square gets its down-right diagonal
    with probability 1/2 (planar, degree at most 6)."""
    edges = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if j + 1 < side:
                edges.append((v, v + 1))
            if i + 1 < side:
                edges.append((v, v + side))
            if i + 1 < side and j + 1 < side and rng.random() < 0.5:
                edges.append((v, v + side + 1))
    return load(edges, side * side)


def brute_mis_size(g: Graph) -> int:
    """Independent ground truth by subset enumeration over alive vertices."""
    vertices = g.alive_vertices()
    assert len(vertices) <= 16, "enumeration oracle capped at 16 vertices"
    nbr_mask = {v: 0 for v in vertices}
    index = {v: i for i, v in enumerate(vertices)}
    for v in vertices:
        for u in g.neighbors_live(v):
            nbr_mask[v] |= 1 << index[u]
    best = 0
    for mask in range(1 << len(vertices)):
        chosen = [v for v in vertices if mask >> index[v] & 1]
        if len(chosen) <= best:
            continue
        if all(mask & nbr_mask[v] == 0 for v in chosen):
            best = len(chosen)
    return best


def brute_lp_optima(g: Graph):
    """All optimal half-integral assignments, by enumeration over {0,.5,1}."""
    vertices = g.alive_vertices()
    assert len(vertices) <= 9
    edges = [(u, v) for u, v in g.edges()]
    best_value = -1.0
    best: list[dict[int, float]] = []
    levels = (0.0, 0.5, 1.0)

    def walk(i, assignment):
        nonlocal best_value, best
        if i == len(vertices):
            value = sum(assignment.values())
            if value > best_value + 1e-9:
                best_value = value
                best = [dict(assignment)]
            elif abs(value - best_value) <= 1e-9:
                best.append(dict(assignment))
            return
        v = vertices[i]
        for x in levels:
            ok = all(
                assignment.get(u, 0.0) + x <= 1.0 + 1e-9
                for u in g.neighbors_live(v)
                if u in assignment
            )
            if ok:
                assignment[v] = x
                walk(i + 1, assignment)
                del assignment[v]

    walk(0, {})
    for u, v in edges:
        for sol in best:
            assert sol[u] + sol[v] <= 1.0 + 1e-9
    return best_value, best


def is_independent(g: Graph, solution) -> bool:
    members = set(solution)
    for v in members:
        for u in g.adjacency[v]:
            if u in members:
                return False
    return True


def check_solution_state(sol) -> None:
    """Full rescan of the incremental search structures."""
    g = sol.graph
    members = sol.vertices()
    assert sol.size == len(members)
    for v in members:
        if g.alive[v]:
            for u in g.neighbors_live(v):
                assert not sol.in_solution[u], f"adjacent pair {v},{u} in solution"
    for v in g.alive_vertices():
        want = sum(1 for u in g.neighbors_live(v) if sol.in_solution[u])
        assert sol.tightness[v] == want, f"tightness[{v}]={sol.tightness[v]} want {want}"
        should_free = not sol.in_solution[v] and want == 0
        assert (v in sol.free) == should_free, f"free flag wrong at {v}"
        assert (v in sol.non_solution) == (not sol.in_solution[v])


def unconfined_reference(g: Graph, v: int) -> bool:
    """The set-based confinement loop: is ``v`` provably avoidable?

    Grows the witness set S from {v}. Each round looks at the boundary
    vertices with exactly one neighbor in S; one with no neighbor outside
    N[S] proves ``v`` unconfined, and if the fewest such outside
    neighbors is exactly one, that vertex joins S.
    """
    witness = {v}
    closed = {v} | set(g.neighbors_live(v))
    while True:
        boundary = sorted({
            u
            for s in witness
            for u in g.neighbors_live(s)
            if u not in witness
        })
        best_extra: set[int] | None = None
        for u in boundary:
            nbrs_u = g.neighbors_live(u)
            if sum(1 for x in nbrs_u if x in witness) != 1:
                continue
            extra = {x for x in nbrs_u if x not in closed}
            if best_extra is None or len(extra) < len(best_extra):
                best_extra = extra
                if not extra:
                    return True
        if best_extra is None or len(best_extra) > 1:
            return False
        w = next(iter(best_extra))
        witness.add(w)
        closed.add(w)
        closed.update(g.neighbors_live(w))


def pendant_reference(g: Graph, stack) -> int:
    """The pendant rule with live-list copies: per fire it lists the live
    neighbor ``u`` of the degree-1 vertex ``v`` and the other live
    neighbors of ``u``, commits ``v``, drops ``u`` through
    :meth:`Graph.remove_vertex`, and queues those of the listed vertices
    whose degree fell to 1."""
    store = stack.constraints
    queue = [v for v in g.alive_vertices() if g.live_degree[v] == 1]
    count = 0
    while queue:
        v = queue.pop()
        if not g.alive[v] or g.live_degree[v] != 1:
            continue
        [u] = g.neighbors_live(v)
        second_ring = [x for x in g.neighbors_live(u) if x != v]
        stack.push_include(v)
        store.note_include(v)
        g.remove_vertex(v)
        store.note_exclude(u)
        g.remove_vertex(u)
        count += 1
        for x in second_ring:
            if g.alive[x] and g.live_degree[x] == 1:
                queue.append(x)
    return count


def double_cover_matching_size(g: Graph) -> int:
    """Maximum matching on the bipartite double cover, by one plain
    augmenting-path search per left copy (Kuhn's algorithm)."""
    vertices = g.alive_vertices()
    adj = {v: g.neighbors_live(v) for v in vertices}
    match_right: dict[int, int] = {}
    size = 0
    for root in vertices:
        seen = set()
        # iterative DFS; each frame is (left vertex, next neighbor index)
        path: list[tuple[int, int]] = []
        frames = [(root, 0)]
        found = False
        while frames and not found:
            x, i = frames.pop()
            while i < len(adj[x]):
                y = adj[x][i]
                i += 1
                if y in seen:
                    continue
                seen.add(y)
                if y not in match_right:
                    path.append((x, y))
                    found = True
                    break
                frames.append((x, i))
                path.append((x, y))
                frames.append((match_right[y], 0))
                break
            else:
                if path:
                    path.pop()
        if found:
            for x, y in path:
                match_right[y] = x
            size += 1
    return size
