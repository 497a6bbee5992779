"""Mutable undirected graph with lazy vertex deletion.

Vertex ids are dense integers. Ids below ``n`` come from the input; ids at
or above ``n`` are created later by reductions (folding, gadget insertion)
and are appended so input ids stay stable for solution reporting. Removing
a vertex flips an ``alive`` flag instead of rewriting adjacency lists.
:meth:`Graph.neighbors_live` filters dead entries into a fresh list; the
hot scans (the local search, :meth:`Graph.is_simplicial`, and the
pendant, LP, unconfined and alternative rules) walk ``adjacency`` in place
instead and check ``alive`` inline. Cutting and the rest of the rules ask
``neighbors_live``. Adjacency lists are kept sorted so edge tests can
bisect them, twin signatures compare equal, and every scan visits
neighbors in a fixed order.
"""

from __future__ import annotations

from bisect import bisect_left, insort


class GraphFormatError(ValueError):
    """Input does not describe a valid simple undirected graph."""


class Graph:
    """Undirected graph over integer ids with alive flags and live degrees.

    ``live_degree[v]`` counts the alive neighbors of an alive ``v``, plus
    the neighbors removed with ``update_degrees=False``, which stay
    counted; :meth:`validate` checks both parts. Reductions and cutting
    read live degrees, so they need a graph without such removals
    (:attr:`degrees_exact`).

    Not thread-safe under mutation; independent runs must operate on
    independent copies (see :meth:`copy`).
    """

    __slots__ = ("n", "adjacency", "alive", "live_degree", "next_id", "_counted_dead")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        self.n = n
        self.adjacency: list[list[int]] = [[] for _ in range(n)]
        self.alive: list[bool] = [True] * n
        self.live_degree: list[int] = [0] * n
        self.next_id: int = n
        self._counted_dead: list[int] = []

    @classmethod
    def from_adjacency(cls, adjacency: list[list[int]]) -> Graph:
        """A fully alive graph that takes ``adjacency`` as it is, without a
        copy or a check: the lists must be sorted, symmetric, loop-free and
        without duplicates."""
        g = cls.__new__(cls)
        g.n = g.next_id = len(adjacency)
        g.adjacency = adjacency
        g.alive = [True] * g.n
        g.live_degree = list(map(len, adjacency))
        g._counted_dead = []
        return g

    # ------------------------------------------------------------------
    # queries

    def alive_vertices(self) -> list[int]:
        """Snapshot list of alive vertex ids, ascending."""
        alive = self.alive
        return [v for v in range(self.next_id) if alive[v]]

    def alive_count(self) -> int:
        return sum(self.alive)

    def live_edge_count(self) -> int:
        alive = self.alive
        return sum(self.live_degree[v] for v in range(self.next_id) if alive[v]) // 2

    @property
    def degrees_exact(self) -> bool:
        """True when no removal skipped the degree update, so every live
        degree counts exactly the alive neighbors."""
        return not self._counted_dead

    def neighbors_live(self, v: int) -> list[int]:
        """Alive neighbors of an alive vertex, sorted ascending."""
        if not self.alive[v]:
            raise ValueError(f"vertex {v} is not alive")
        alive = self.alive
        return [u for u in self.adjacency[v] if alive[u]]

    def has_live_edge(self, u: int, v: int) -> bool:
        if not (self.alive[u] and self.alive[v]):
            return False
        a = self.adjacency[u]
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def is_simplicial(self, v: int, max_degree: int | None = None) -> bool:
        """True if the closed live neighborhood of ``v`` induces a clique.

        ``max_degree`` short-circuits to False for higher-degree vertices,
        which is what the degree-restricted online check needs. With it,
        the live neighbors of ``v`` are counted from the adjacency list,
        so the answer stays exact after removals that skipped the degree
        update (see :meth:`remove_vertex`); neighbor degrees are then
        upper bounds, which the clique test below only uses to reject.
        Without it the degree of ``v`` is read, so the graph needs exact
        live degrees (:attr:`degrees_exact`); ValueError otherwise.
        """
        alive = self.alive
        adjacency = self.adjacency
        adj_v = adjacency[v]
        if max_degree is not None:
            deg = 0
            for u in adj_v:
                if alive[u]:
                    deg += 1
                    if deg > max_degree:
                        return False
        elif self._counted_dead:
            raise ValueError("is_simplicial without max_degree needs exact live degrees; "
                             "the graph has removals made with update_degrees=False")
        else:
            deg = self.live_degree[v]
        if deg <= 1:
            return True
        # the first two live neighbors must be adjacent; on a sparse graph
        # this rejects almost every vertex before any other neighbor is read
        first = -1
        for u in adj_v:
            if alive[u]:
                if first < 0:
                    first = u
                else:
                    second = u
                    break
        if not self.has_live_edge(first, second):
            return False
        if deg == 2:
            return True
        nbrs = [u for u in adj_v if alive[u]]
        live_degree = self.live_degree
        for a in nbrs:
            if live_degree[a] < deg - 1:
                return False
        return self.first_non_edge(nbrs) is None

    def first_non_edge(self, vertices: list[int]) -> tuple[int, int] | None:
        """First non-adjacent pair of the sorted alive ``vertices``, in
        lexicographic order, or None if they form a clique."""
        adjacency = self.adjacency
        for i, a in enumerate(vertices):
            adj_a = adjacency[a]
            for b in vertices[i + 1:]:
                j = bisect_left(adj_a, b)
                if j == len(adj_a) or adj_a[j] != b:
                    return a, b
        return None

    def edges(self) -> list[tuple[int, int]]:
        """Live edges as sorted (u, v) pairs with u < v."""
        out = []
        alive = self.alive
        for v in range(self.next_id):
            if not alive[v]:
                continue
            for u in self.adjacency[v]:
                if u > v and alive[u]:
                    out.append((v, u))
        return out

    # ------------------------------------------------------------------
    # mutation

    def remove_vertex(self, v: int, update_degrees: bool = True) -> None:
        """Flip ``v`` dead and lower the live degree of its live neighbors.

        With ``update_degrees=False`` only the flag flips, and the
        neighbors' live degrees keep counting ``v``. That saves the scan of
        the adjacency list for a caller that reads no live degree from
        then on, such as the online search, whose commit check counts live
        neighbors.
        """
        if not self.alive[v]:
            raise ValueError(f"vertex {v} is already removed")
        self.alive[v] = False
        if not update_degrees:
            self._counted_dead.append(v)
            return
        alive = self.alive
        live_degree = self.live_degree
        for u in self.adjacency[v]:
            if alive[u]:
                live_degree[u] -= 1

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge {u, v} between alive vertices; False if present."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (self.alive[u] and self.alive[v]):
            raise ValueError("both endpoints must be alive")
        if self.has_live_edge(u, v):
            return False
        insort(self.adjacency[u], v)
        insort(self.adjacency[v], u)
        self.live_degree[u] += 1
        self.live_degree[v] += 1
        return True

    def contract_fold(self, v: int, u: int, w: int) -> int:
        """Replace a degree-2 vertex ``v`` and its non-adjacent neighbors
        ``u``, ``w`` by one fresh vertex inheriting their outside
        neighborhoods. Returns the fresh id.
        """
        if not (self.alive[v] and self.alive[u] and self.alive[w]):
            raise ValueError("all three vertices must be alive")
        if self.live_degree[v] != 2 or self.neighbors_live(v) != sorted((u, w)):
            raise ValueError(f"vertex {v} must have exactly the live neighbors {{{u}, {w}}}")
        if self.has_live_edge(u, w):
            raise ValueError(f"fold neighbors {u} and {w} must not be adjacent")
        merged_nbrs = set(self.neighbors_live(u)) | set(self.neighbors_live(w))
        merged_nbrs.discard(u)
        merged_nbrs.discard(v)
        merged_nbrs.discard(w)
        self.remove_vertex(v)
        self.remove_vertex(u)
        self.remove_vertex(w)
        return self._new_vertex(sorted(merged_nbrs))

    def add_gadget(self, neighbor_ids: list[int]) -> int:
        """Fresh alive vertex adjacent to exactly ``neighbor_ids``."""
        nbrs = sorted(set(neighbor_ids))
        for u in nbrs:
            if not self.alive[u]:
                raise ValueError(f"gadget neighbor {u} is not alive")
        return self._new_vertex(nbrs)

    def _new_vertex(self, sorted_nbrs: list[int]) -> int:
        vid = self.next_id
        self.next_id += 1
        self.adjacency.append(sorted_nbrs)
        self.alive.append(True)
        self.live_degree.append(len(sorted_nbrs))
        for u in sorted_nbrs:
            insort(self.adjacency[u], vid)
            self.live_degree[u] += 1
        return vid

    # ------------------------------------------------------------------
    # structure management

    def copy(self) -> Graph:
        g = Graph.__new__(Graph)
        g.n = self.n
        g.adjacency = [list(a) for a in self.adjacency]
        g.alive = list(self.alive)
        g.live_degree = list(self.live_degree)
        g.next_id = self.next_id
        g._counted_dead = list(self._counted_dead)
        return g

    def validate(self) -> None:
        """Full-rescan consistency check; raises AssertionError on damage.

        A live degree must count the alive neighbors plus the neighbors
        removed without a degree update.
        """
        assert len(self.adjacency) == len(self.alive) == len(self.live_degree) == self.next_id
        counted_dead = set(self._counted_dead)
        assert len(counted_dead) == len(self._counted_dead), "vertex removed twice"
        assert not any(self.alive[v] for v in counted_dead), "counted dead vertex is alive"
        total = 0
        for v in range(self.next_id):
            adj = self.adjacency[v]
            assert adj == sorted(adj), f"adjacency of {v} not sorted"
            assert len(adj) == len(set(adj)), f"duplicate neighbors at {v}"
            assert v not in adj, f"self-loop at {v}"
            for u in adj:
                assert 0 <= u < self.next_id
                a = self.adjacency[u]
                i = bisect_left(a, v)
                assert i < len(a) and a[i] == v, f"asymmetric edge {v}-{u}"
            if self.alive[v]:
                live = sum(1 for u in adj if self.alive[u])
                want = live + sum(1 for u in adj if u in counted_dead)
                assert self.live_degree[v] == want, (
                    f"live_degree[{v}] = {self.live_degree[v]}, expected {want}"
                )
                total += live
        assert total % 2 == 0, "odd live degree sum"


def load(edge_set: list[tuple[int, int]], n: int) -> Graph:
    """Build a graph from an edge list, dropping self-loops and duplicates.

    Raises GraphFormatError when an endpoint falls outside [0, n).
    """
    g = Graph(n)
    per_vertex: list[set[int]] = [set() for _ in range(n)]
    for u, v in edge_set:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            continue
        per_vertex[u].add(v)
        per_vertex[v].add(u)
    for v in range(n):
        nbrs = sorted(per_vertex[v])
        g.adjacency[v] = nbrs
        g.live_degree[v] = len(nbrs)
    return g
