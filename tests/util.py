"""Shared graph builders and rescan checkers for the test suite."""

from __future__ import annotations

import copy
import random
from itertools import combinations

from fastmis.graph import Graph, load
from fastmis.local_search import Solution, commit_check, sample_force_count


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
    """Full rescan of the incremental search structures; ``ones_bound``
    must be at least the rescanned number of 1-tight neighbors."""
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
        if sol.in_solution[v] and not sol.committed[v]:
            ones = sum(1 for u in g.neighbors_live(v) if sol.tightness[u] == 1)
            assert sol.ones_bound[v] >= ones, \
                f"ones_bound[{v}]={sol.ones_bound[v]} below {ones} 1-tight neighbors"


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


def greedy_reference(g: Graph, rng: random.Random, online: bool = False) -> Solution:
    """The min-degree greedy pass through the solution's own methods:
    each pick that is still alive, outside and free goes through
    :meth:`Solution.insert`, and afterwards every alive solution member
    not yet queued is queued."""
    sol = Solution._for_greedy(g, rng, online)
    vertices = g.alive_vertices()
    if vertices:
        top = max(g.live_degree[v] for v in vertices)
        buckets: list[list[int]] = [[] for _ in range(top + 1)]
        for v in vertices:
            buckets[g.live_degree[v]].append(v)
        for bucket in buckets:
            while bucket:
                i = rng.randrange(len(bucket))
                v = bucket[i]
                bucket[i] = bucket[-1]
                bucket.pop()
                if g.alive[v] and not sol.in_solution[v] and sol.tightness[v] == 0:
                    sol.insert(v)
    for v in g.alive_vertices():
        if sol.in_solution[v] and not sol._queued[v]:
            sol._queued[v] = True
            sol._queue.append(v)
    return sol


def _set_add(s, v: int) -> None:
    if s.pos[v] < 0:
        s.pos[v] = len(s.items)
        s.items.append(v)


def _set_discard(s, v: int) -> None:
    i = s.pos[v]
    if i < 0:
        return
    last = s.items[-1]
    s.items[i] = last
    s.pos[last] = i
    s.items.pop()
    s.pos[v] = -1


class ReferenceSolution(Solution):
    """The iterated local search method by method: each set update, queue
    push and pop is its own call, and every draw goes through
    ``rng.randrange`` and ``rng.shuffle``. The inlined moves of
    :class:`Solution` and the module-level search functions must leave
    the same state and the same rng state."""

    @classmethod
    def adopt(cls, sol: Solution) -> ReferenceSolution:
        """An independent copy of ``sol``, its graph and rng included."""
        ref = copy.deepcopy(sol)
        ref.__class__ = cls
        return ref

    def insert(self, v: int) -> None:
        if self.in_solution[v] or not self.graph.alive[v]:
            raise ValueError(f"vertex {v} is not insertable")
        if self.tightness[v] != 0:
            raise ValueError(f"vertex {v} has tightness {self.tightness[v]}")
        if self.online and commit_check(self.graph, v):
            self._commit(v)
            return
        self._base_insert(v)
        self._enqueue(v)

    def remove(self, v: int) -> None:
        if not self.in_solution[v]:
            raise ValueError(f"vertex {v} is not in the solution")
        if self.committed[v]:
            raise ValueError(f"vertex {v} is committed and cannot leave")
        self.in_solution[v] = False
        self.size -= 1
        if self._first_move is not None:
            self._first_move.setdefault(v, -1)
        self.clock += 1
        self.last_out[v] = self.clock
        _set_add(self.non_solution, v)
        for u in self.graph.adjacency[v]:
            if not self.graph.alive[u]:
                continue
            self.tightness[u] -= 1
            if not self.in_solution[u]:
                if self.tightness[u] == 0:
                    _set_add(self.free, u)
                elif self.tightness[u] == 1:
                    for y in self.graph.adjacency[u]:
                        if self.in_solution[y]:
                            self._enqueue(y)
                            break
        if self.tightness[v] == 0:
            _set_add(self.free, v)

    def maximalize(self) -> int:
        gained = 0
        while len(self.free):
            self.insert(self.free.items[self.rng.randrange(len(self.free))])
            gained += 1
        return gained

    def _base_insert(self, v: int) -> None:
        self.in_solution[v] = True
        self.size += 1
        if self._first_move is not None:
            self._first_move.setdefault(v, 1)
        _set_discard(self.free, v)
        _set_discard(self.non_solution, v)
        for u in self.graph.adjacency[v]:
            self.tightness[u] += 1
            if self.tightness[u] == 1:
                _set_discard(self.free, u)

    def _enqueue(self, v: int) -> None:
        if not self._queued[v]:
            self._queued[v] = True
            self._queue.append(v)

    def _pop_candidate(self) -> int | None:
        while self._queue:
            v = self._queue.popleft()
            self._queued[v] = False
            if self.in_solution[v] and self.graph.alive[v]:
                return v
        return None

    def find_one_two_swap(self, v: int, pair_cap: int | None):
        g = self.graph
        ones = [u for u in g.adjacency[v] if self.tightness[u] == 1 and g.alive[u]]
        if len(ones) < 2:
            return None
        self.rng.shuffle(ones)
        examined = 0
        for i, u in enumerate(ones):
            for w in ones[i + 1:]:
                if pair_cap is not None and examined >= pair_cap:
                    return None
                examined += 1
                if not g.has_live_edge(u, w):
                    return u, w
        return None

    def local_search(self, pair_cap: int | None) -> int:
        swaps = 0
        self.maximalize()
        while True:
            v = self._pop_candidate()
            if v is None:
                return swaps
            found = self.find_one_two_swap(v, pair_cap)
            if found is None:
                continue
            u, w = found
            self.remove(v)
            self.insert(u)
            self.insert(w)
            swaps += 1
            self.maximalize()

    def perturb(self, params, rng: random.Random) -> None:
        for _ in range(sample_force_count(rng)):
            if len(self.non_solution) == 0:
                break
            pick = None
            for _ in range(params.candidate_pool):
                x = self.non_solution.items[rng.randrange(len(self.non_solution))]
                if pick is None or (self.last_out[x], x) < (self.last_out[pick], pick):
                    pick = x
            for y in self.graph.adjacency[pick]:
                if self.in_solution[y]:
                    self.remove(y)
            self.insert(pick)
        self.maximalize()


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
