"""Mutable undirected graph with lazy vertex deletion.

Vertex ids are dense integers. Ids below ``n`` come from the input; ids at
or above ``n`` are created later by reductions (folding, gadget insertion)
and are appended so input ids stay stable for solution reporting. Removing
a vertex flips an ``alive`` flag instead of rewriting adjacency lists.
:meth:`Graph.neighbors_live` filters dead entries into a fresh list; the
hot scans (:meth:`Graph.is_simplicial`, and the pendant, simplicial, LP,
unconfined and alternative rules) walk ``adjacency`` in place instead and
check ``alive`` inline. Cutting and the rest of the rules ask
``neighbors_live``. The local search runs on :meth:`Graph.compact`'s
graph, with no dead vertex. Adjacency lists are kept sorted so edge tests
can bisect them, twin signatures compare equal, and every scan visits
neighbors in a fixed order.

:meth:`Graph.copy` shares the adjacency lists with its source until one
of the two first writes a list: :meth:`Graph.add_edge`,
:meth:`Graph.add_gadget` and :meth:`Graph.contract_fold` then give the
writing graph lists of its own. The search, cutting and the removal of
vertices never write a list, so they never pay for that copy.
"""

from __future__ import annotations

import functools
import gc
from bisect import bisect_left, insort


def gc_paused(build):
    """Decorate ``build`` to run with the cyclic garbage collector off.

    On exit, also when ``build`` raises, the wrapper puts back the state
    the caller had: a collector that was already off stays off. A bulk
    build allocates an object per vertex or edge, and every such allocation
    counts towards the next collection; each collection walks the objects
    in its generations, and a full one every container in the
    process, other graphs included. So the pause pays most when other large
    graphs are alive while ``build`` runs. Guard only a build that makes no
    reference cycle: reference counting then frees all its garbage, so
    memory stays bounded with the collector off, and the young collection
    that follows walks the new objects once. The switch is process-wide, so
    the guard is not thread-safe: a build in another thread may run with
    the collector off, or see it switched back on part-way.
    """
    @functools.wraps(build)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


class GraphFormatError(ValueError):
    """Input does not describe a valid simple undirected graph."""


class Graph:
    """Undirected graph over integer ids with alive flags and live degrees.

    ``live_degree[v]`` counts the alive neighbors of an alive ``v``;
    :meth:`remove_vertex` keeps it exact, and :meth:`validate` checks it.

    ``adjacency`` is one outer list for the graph's lifetime: it is never
    rebound, so a caller may hoist it. Its inner lists may be shared with
    other copies (``_shared``) until this graph first writes one.

    Not thread-safe under mutation; independent runs must operate on
    independent copies (see :meth:`copy`).
    """

    __slots__ = ("n", "adjacency", "alive", "live_degree", "next_id", "_shared")

    def __init__(self, adjacency: list[list[int]]) -> None:
        """A fully alive graph that takes ``adjacency`` as it is, without a
        copy or a check: the lists must be sorted, symmetric, loop-free and
        without duplicates. :func:`load` builds one from an edge list."""
        self.n = self.next_id = len(adjacency)
        self.adjacency = adjacency
        self.alive = [True] * self.n
        self.live_degree = list(map(len, adjacency))
        self._shared = False

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

    def is_simplicial(self, v: int) -> bool:
        """True if the closed live neighborhood of ``v`` induces a clique."""
        alive = self.alive
        adj_v = self.adjacency[v]
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

    def remove_vertex(self, v: int) -> None:
        """Flip ``v`` dead and lower the live degree of its live neighbors."""
        if not self.alive[v]:
            raise ValueError(f"vertex {v} is already removed")
        self.alive[v] = False
        alive = self.alive
        live_degree = self.live_degree
        for u in self.adjacency[v]:
            if alive[u]:
                live_degree[u] -= 1

    def add_edge(self, u: int, v: int) -> bool:
        """Insert edge {u, v} between alive vertices; False if present.

        The first insertion gives the graph its own adjacency lists."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        if not (self.alive[u] and self.alive[v]):
            raise ValueError("both endpoints must be alive")
        if self.has_live_edge(u, v):
            return False
        self._own_lists()
        insort(self.adjacency[u], v)
        insort(self.adjacency[v], u)
        self.live_degree[u] += 1
        self.live_degree[v] += 1
        return True

    def contract_fold(self, v: int, u: int, w: int) -> int:
        """Replace a degree-2 vertex ``v`` and its non-adjacent neighbors
        ``u``, ``w`` by one fresh vertex inheriting their outside
        neighborhoods. Returns the fresh id. Like :meth:`add_gadget`, it
        gives the graph its own adjacency lists first.
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
        """Fresh alive vertex adjacent to exactly ``neighbor_ids``; the
        graph gets its own adjacency lists first."""
        nbrs = sorted(set(neighbor_ids))
        for u in nbrs:
            if not self.alive[u]:
                raise ValueError(f"gadget neighbor {u} is not alive")
        return self._new_vertex(nbrs)

    def _new_vertex(self, sorted_nbrs: list[int]) -> int:
        self._own_lists()
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
        """An independent graph in O(n) pointer copies.

        The new outer list shares every adjacency list with this graph,
        and both graphs are marked shared; whichever first writes a list
        copies all of its lists then (:meth:`_own_lists`). Flags and
        degrees are copied at once.
        """
        g = Graph.__new__(Graph)
        g.n = self.n
        g.adjacency = list(self.adjacency)
        g.alive = list(self.alive)
        g.live_degree = list(self.live_degree)
        g.next_id = self.next_id
        g._shared = self._shared = True
        return g

    def compact(self) -> tuple[Graph, list[int]]:
        """A fully alive graph on the alive vertices, renumbered in
        ascending order so every adjacency list keeps its order, and
        ``ids``: ``ids[i]`` is the id here of the new graph's vertex ``i``."""
        ids = self.alive_vertices()
        new_id = [-1] * self.next_id
        for i, v in enumerate(ids):
            new_id[v] = i
        adjacency = self.adjacency
        alive = self.alive
        return Graph([[new_id[u] for u in adjacency[v] if alive[u]] for v in ids]), ids

    def _own_lists(self) -> None:
        """Copy every adjacency list in place if another graph may share
        them. The outer list keeps its identity, so hoisted references to
        ``adjacency`` stay valid; hoisted inner lists do not."""
        if self._shared:
            adjacency = self.adjacency
            adjacency[:] = [list(a) for a in adjacency]
            self._shared = False

    def validate(self) -> None:
        """Full-rescan consistency check; raises AssertionError on damage."""
        assert len(self.adjacency) == len(self.alive) == len(self.live_degree) == self.next_id
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
                assert self.live_degree[v] == live, (
                    f"live_degree[{v}] = {self.live_degree[v]}, expected {live}"
                )
                total += live
        assert total % 2 == 0, "odd live degree sum"


def load(edge_set: list[tuple[int, int]], n: int) -> Graph:
    """Build a graph from an edge list, dropping self-loops and duplicates.

    Raises GraphFormatError when ``n`` is negative or an endpoint falls
    outside [0, n).
    """
    if n < 0:
        raise GraphFormatError("vertex count must be nonnegative")
    per_vertex: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_set:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            continue
        per_vertex[u].append(v)
        per_vertex[v].append(u)
    return Graph([sorted(set(nbrs)) for nbrs in per_vertex])
