"""Shared graph builders and rescan checkers for the test suite."""

from __future__ import annotations

import copy
import random
from itertools import combinations

from fastmis.cli import ParseError, _first_asymmetry, _vertex_line_fault
from fastmis.graph import Graph, gc_paused, load
from fastmis.local_search import CANDIDATE_POOL, Solution, sample_force_count
from fastmis.reductions import Alternative, Fold, TwinGadget


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


@gc_paused
def read_metis_reference(path) -> Graph:
    """``fastmis.cli.read_metis`` as it was before the numpy tokenizer,
    kept line for line as the reference of the differential parser test.

    Parse the adjacency format: header ``n m [fmt]`` then one
    1-indexed neighbor line per vertex. ``%`` lines are comments. The
    parser is strict: indexes out of range, self-loops, duplicate or
    asymmetric entries, and edge-count mismatches all fail with the
    offending line number.

    Each line is read with ``str.split`` and ``int`` and checked as a
    sorted list; only a line that fails is scanned token by token, to word
    its first fault. Symmetry is checked against reverse lists.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    linenos = [i for i, raw in enumerate(lines, start=1) if not raw.lstrip().startswith("%")]
    if not linenos:
        raise ParseError(f"{path}: empty file")
    header_line = linenos[0]
    parts = lines[header_line - 1].split()
    if len(parts) not in (2, 3):
        raise ParseError(f"{path}:{header_line}: header must be 'n m [fmt]'")
    try:
        n, m = int(parts[0]), int(parts[1])
        fmt = int(parts[2]) if len(parts) == 3 else 0
    except ValueError as exc:
        raise ParseError(f"{path}:{header_line}: {exc}") from exc
    if fmt != 0:
        raise ParseError(f"{path}:{header_line}: weighted format {fmt} is unsupported")
    linenos = linenos[1:]
    while linenos and len(linenos) > n and not lines[linenos[-1] - 1].strip():
        linenos.pop()
    if len(linenos) != n:
        raise ParseError(f"{path}: expected {n} vertex lines, found {len(linenos)}")
    to_index = (-1).__add__
    adjacency: list[list[int]] = []
    append = adjacency.append
    for v, lineno in enumerate(linenos):
        line = lines[lineno - 1]
        try:
            nbrs = sorted(map(to_index, map(int, line.split())))
        except ValueError:   # a bad token
            nbrs = None
        if nbrs is None or (nbrs and (nbrs[0] < 0 or nbrs[-1] >= n or v in nbrs
                                      or len(set(nbrs)) != len(nbrs))):
            raise ParseError(f"{path}:{lineno}: {_vertex_line_fault(line, v, n)}")
        append(nbrs)
    # walking the lists in vertex order fills each reverse list sorted, so
    # the graph is symmetric exactly when the reverse lists equal the lists
    reverse: list[list[int]] = [[] for _ in range(n)]
    for v, nbrs in enumerate(adjacency):
        for u in nbrs:
            reverse[u].append(v)
    if reverse != adjacency:
        v, u = _first_asymmetry(adjacency)
        raise ParseError(f"{path}:{linenos[v]}: vertex {v + 1} lists {u + 1} but not vice versa")
    # symmetric and loop-free lists hold every edge twice
    total = sum(map(len, adjacency))
    if total != 2 * m:
        raise ParseError(f"{path}:{header_line}: header claims {m} edges, lines hold {total // 2}")
    return Graph(adjacency)


def is_independent(g: Graph, solution) -> bool:
    members = set(solution)
    for v in members:
        for u in g.adjacency[v]:
            if u in members:
                return False
    return True


def check_solution_state(sol) -> None:
    """Full rescan of the incremental search structures: every member is
    alive, and ``ones_bound`` is at least the rescanned number of 1-tight
    neighbors."""
    g = sol.graph
    members = sol.vertices()
    assert sol.size == len(members)
    for v in members:
        assert g.alive[v], f"solution member {v} is dead"
        for u in g.neighbors_live(v):
            assert not sol.in_solution[u], f"adjacent pair {v},{u} in solution"
    for v in g.alive_vertices():
        want = sum(1 for u in g.neighbors_live(v) if sol.in_solution[u])
        assert sol.tightness[v] == want, f"tightness[{v}]={sol.tightness[v]} want {want}"
        should_free = not sol.in_solution[v] and want == 0
        assert (v in sol.free) == should_free, f"free flag wrong at {v}"
        assert (v in sol.non_solution) == (not sol.in_solution[v])
        if sol.in_solution[v]:
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
    queue = [v for v in g.alive_vertices() if g.live_degree[v] == 1]
    count = 0
    while queue:
        v = queue.pop()
        if not g.alive[v] or g.live_degree[v] != 1:
            continue
        [u] = g.neighbors_live(v)
        second_ring = [x for x in g.neighbors_live(u) if x != v]
        stack.push_include(v)
        g.remove_vertex(v)
        g.remove_vertex(u)
        count += 1
        for x in second_ring:
            if g.alive[x] and g.live_degree[x] == 1:
                queue.append(x)
    return count


def include_reference(g: Graph, stack, v: int) -> None:
    """Commit ``v`` and drop its live neighbors method by method: the
    stack's push and :meth:`Graph.remove_vertex` for each vertex."""
    stack.push_include(v)
    nbrs = g.neighbors_live(v)
    g.remove_vertex(v)
    for u in nbrs:
        g.remove_vertex(u)


def isolated_reference(g: Graph, stack) -> int:
    """The simplicial rule with live-list copies: per fire it unions the
    live lists of the live neighbors of ``v``, commits ``v`` through
    :func:`include_reference`, and queues the united vertices still
    alive."""
    queue = g.alive_vertices()
    count = 0
    while queue:
        v = queue.pop()
        if not g.alive[v] or not g.is_simplicial(v):
            continue
        ring = set()
        for u in g.neighbors_live(v):
            ring.update(g.neighbors_live(u))
        include_reference(g, stack, v)
        count += 1
        for x in ring:
            if g.alive[x]:
                queue.append(x)
    return count


def store_state(store):
    """Every constraint as its sorted members."""
    return [sorted(c) for c in store.constraints]


def taken_in_log(entries) -> set[int]:
    """Every vertex an undo log took: each include, the three vertices of
    a fold, the twins of a gadget and their shared neighbors, and both
    sides of an alternative, but not the vertices it dropped."""
    taken = set()
    for entry in entries:
        if isinstance(entry, int):
            taken.add(entry)
        elif isinstance(entry, Fold):
            taken |= {entry.left, entry.center, entry.right}
        elif isinstance(entry, TwinGadget):
            taken |= {entry.u, entry.v, *entry.shared}
        else:
            assert isinstance(entry, Alternative), entry
            taken |= {*entry.a_side, *entry.b_side}
    return taken


def entry_repr(entry) -> str:
    """An undo-log entry as the golden digests were recorded: an include,
    now the bare vertex id, in the form of the record it replaced, and
    every other entry by its repr."""
    if type(entry) is int:
        return f"IncludeVertex(v={entry})"
    return repr(entry)


def greedy_reference(g: Graph, rng: random.Random) -> Solution:
    """The min-degree greedy pass through the solution's own methods:
    each pick that is still outside and free goes through
    :meth:`Solution.insert`, and afterwards every solution member not yet
    queued is queued."""
    sol = Solution._for_greedy(g, rng)
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
                if not sol.in_solution[v] and sol.tightness[v] == 0:
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
        if self.in_solution[v]:
            raise ValueError(f"vertex {v} is not insertable")
        if self.tightness[v] != 0:
            raise ValueError(f"vertex {v} has tightness {self.tightness[v]}")
        self._base_insert(v)
        self._enqueue(v)

    def remove(self, v: int) -> None:
        if not self.in_solution[v]:
            raise ValueError(f"vertex {v} is not in the solution")
        self.in_solution[v] = False
        self.size -= 1
        if self._first_move is not None:
            self._first_move.setdefault(v, -1)
        self.clock += 1
        self.last_out[v] = self.clock
        _set_add(self.non_solution, v)
        for u in self.graph.adjacency[v]:
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
            if self.in_solution[v]:
                return v
        return None

    def find_one_two_swap(self, v: int, pair_cap: int | None):
        g = self.graph
        ones = [u for u in g.adjacency[v] if self.tightness[u] == 1]
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

    def perturb(self) -> None:
        rng = self.rng
        for _ in range(sample_force_count(rng)):
            if len(self.non_solution) == 0:
                break
            pick = None
            for _ in range(CANDIDATE_POOL):
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
