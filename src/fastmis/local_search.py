"""Iterated local search over maximal independent sets.

The solution structure supports insertion and removal in time
proportional to vertex degree, tracks per-vertex tightness (number of
solution neighbors), keeps the free vertices ready for re-maximalizing,
and queues candidates so no vertex is re-examined for a (1,2)-swap until
its neighborhood changes. One search iteration is a forced perturbation
followed by swap-based local search.

A (1,2)-swap at ``v`` needs two 1-tight neighbors of ``v``. Each
solution vertex keeps ``ones_bound``, an upper bound on how many alive
neighbors are 1-tight, and :func:`local_search` skips a candidate whose
bound is below 2 without scanning its neighborhood. The skip happens
exactly where :func:`find_one_two_swap` would return None before any rng
draw, so the screen leaves every trajectory and rng state unchanged.

The search walks ``graph.adjacency`` in place, dead entries included,
and checks the ``alive`` flag only where a dead neighbor could change
the outcome (see :class:`Solution`). Adjacency lists stay sorted, so
every rng draw, set insertion and queue push happens in vertex-id order.

In online mode every insertion first runs the cheap degree-<=2 clique
check (:func:`commit_check`): vertices that pass are committed
permanently and their neighborhoods leave the residual graph for good.
The check counts live neighbors instead of reading ``live_degree``, so
commits remove vertices without the degree update
(``update_degrees=False``): after the first commit the graph's live
degrees still count the removed vertices.

:func:`run_iterated` returns the best set it has seen without copying
it at each improvement: the solution records the first move of each
vertex since the last improvement and undoes those moves at the end.
"""

from __future__ import annotations

import random
import time
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass

from .graph import Graph
from .metrics import ConvergenceLog


@dataclass(frozen=True)
class PerturbationParams:
    """Knobs of the diversification step.

    candidate_pool: random non-solution vertices considered per forced
    insertion (the oldest-outside one wins). pair_cap: maximum valid
    swap pairs examined per target vertex; None removes the cap.
    """

    candidate_pool: int = 4
    pair_cap: int | None = 100

    def __post_init__(self) -> None:
        if self.candidate_pool < 1:
            raise ValueError("candidate_pool must be at least 1")
        if self.pair_cap is not None and self.pair_cap < 1:
            raise ValueError("pair_cap must be at least 1")


@dataclass(frozen=True)
class Budget:
    """Stopping rule: wall-clock seconds, iteration count, or both.

    Iteration budgets make runs reproducible; logs then use the
    iteration index as their time axis. ``target_size`` stops a run as
    soon as the best reported size reaches it. ``seconds`` may be
    ``math.inf``, but not NaN or negative: NaN never expires.
    """

    seconds: float | None = None
    iterations: int | None = None
    target_size: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is None and self.iterations is None:
            raise ValueError("budget needs seconds or iterations")
        if self.seconds is not None and not self.seconds >= 0:   # NaN too
            raise ValueError(f"budget seconds must be non-negative, got {self.seconds}")
        if self.iterations is not None and self.iterations < 0:
            raise ValueError(f"budget iterations must be non-negative, got {self.iterations}")

    @property
    def deterministic(self) -> bool:
        return self.seconds is None

    def expired(self, iteration: int, elapsed: float) -> bool:
        if self.iterations is not None and iteration >= self.iterations:
            return True
        return self.seconds is not None and elapsed >= self.seconds


class _IndexedSet:
    """Dense int set: ``items`` in insertion order with swap-removal, and
    ``pos[v]``, the index of ``v`` in ``items`` or -1.

    A discard moves the last item into the freed slot. The hot moves
    (:meth:`Solution.insert`, :meth:`Solution.remove`) add and discard
    inline on both lists in the same way.
    """

    __slots__ = ("items", "pos")

    def __init__(self, capacity: int, items: Iterable[int] = ()) -> None:
        """A set over ids below ``capacity`` holding the distinct
        ``items``, kept in their given order."""
        self.items = list(items)
        pos = self.pos = [-1] * capacity
        for i, v in enumerate(self.items):
            pos[v] = i

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, v: int) -> bool:
        return self.pos[v] >= 0

    def discard(self, v: int) -> None:
        i = self.pos[v]
        if i < 0:
            return
        last = self.items[-1]
        self.items[i] = last
        self.pos[last] = i
        self.items.pop()
        self.pos[v] = -1


class Solution:
    """Independent set with tightness bookkeeping over a live graph.

    Invariant: a dead vertex is in the solution only if it was
    committed, and a committed vertex has no live neighbor. Dead
    vertices cannot be inserted, a commit deletes the vertex's whole
    neighborhood, and only commits delete vertices during search. Hence
    the neighbor loops skip dead entries only where one could change the
    outcome: the tightness, free and queue updates of :meth:`remove`,
    the deletions of :meth:`_commit` and the 1-tight list of
    :func:`find_one_two_swap`. Elsewhere a dead entry is harmless:
    :meth:`insert` may raise a dead vertex's tightness, which nothing
    reads, and a solution member next to a live vertex is itself alive.
    Only :func:`greedy_initial` reads live degrees, to bucket the
    vertices before any commit.

    :meth:`insert` and :meth:`remove` are the one implementation of each
    move. They update the free and non-solution sets and push the
    candidate queue inline, in the order of the adjacency lists.

    ``ones_bound[v]`` bounds from above the number of alive 1-tight
    neighbors of a solution vertex ``v``. :meth:`insert` sets it to the
    number of live neighbors whose tightness rose to 1, :meth:`remove`
    adds 1 at the one solution neighbor of each vertex that turned
    1-tight, and :func:`greedy_initial` counts as :meth:`insert` does.
    It is never lowered: only a removal raises the true count after the
    insertion, and a tightness rising to 2, a commit or a deletion only
    lowers it. Outside the solution the entry is stale, and no outcome
    depends on it.

    Best-set tracking keeps, for every vertex moved since the last
    :meth:`mark_best`, its first move since then (+1 in, -1 out): a
    vertex moves in and out by turns, so at the mark it stood opposite
    to its first move. The map holds one entry per vertex at most, and
    stays ``None``, recording nothing, until the first mark.
    """

    def __init__(self, graph: Graph, rng: random.Random, online: bool = False) -> None:
        self._setup(graph, rng, online)
        self.free = _IndexedSet(graph.next_id, self.non_solution.items)

    @classmethod
    def _for_greedy(cls, graph: Graph, rng: random.Random, online: bool) -> Solution:
        """An empty solution whose free set starts empty too.

        :func:`greedy_initial` neither reads nor writes the free set; its
        pass ends with a maximal solution, for which the empty set is
        exact.
        """
        sol = cls.__new__(cls)
        sol._setup(graph, rng, online)
        sol.free = _IndexedSet(graph.next_id)
        return sol

    def _setup(self, graph: Graph, rng: random.Random, online: bool) -> None:
        capacity = graph.next_id
        self.graph = graph
        self.rng = rng
        self.online = online
        self.in_solution = [False] * capacity
        self.tightness = [0] * capacity
        self.ones_bound = [0] * capacity
        self.size = 0
        self.non_solution = _IndexedSet(capacity, graph.alive_vertices())
        self.committed = [False] * capacity
        self.last_out = [0] * capacity
        self.clock = 0
        self._queue: deque[int] = deque()
        self._queued = [False] * capacity
        self._first_move: dict[int, int] | None = None

    # ------------------------------------------------------------------

    def vertices(self) -> set[int]:
        return {v for v in range(len(self.in_solution)) if self.in_solution[v]}

    def insert(self, v: int) -> None:
        """Add a free vertex; in online mode this may commit it instead.

        Otherwise ``v`` leaves the free and non-solution sets, each live
        neighbor whose tightness rises to 1 leaves the free set and
        counts towards ``ones_bound[v]``, and ``v`` joins the candidate
        queue unless it is queued already.
        """
        in_solution = self.in_solution
        alive = self.graph.alive
        if in_solution[v] or not alive[v]:
            raise ValueError(f"vertex {v} is not insertable")
        tightness = self.tightness
        if tightness[v] != 0:
            raise ValueError(f"vertex {v} has tightness {tightness[v]}")
        if self.online and commit_check(self.graph, v):
            self._commit(v)
            return
        in_solution[v] = True
        self.size += 1
        if self._first_move is not None:
            self._first_move.setdefault(v, 1)
        # v is alive and outside the solution, so it is in non_solution
        items = self.non_solution.items
        pos = self.non_solution.pos
        i = pos[v]
        last = items.pop()
        if last != v:
            items[i] = last
            pos[last] = i
        pos[v] = -1
        items = self.free.items
        pos = self.free.pos
        i = pos[v]
        if i >= 0:
            last = items.pop()
            if last != v:
                items[i] = last
                pos[last] = i
            pos[v] = -1
        ones = 0
        for u in self.graph.adjacency[v]:
            t = tightness[u] + 1
            tightness[u] = t
            if t == 1 and alive[u]:
                # a dead u is in no set and takes part in no swap
                ones += 1
                i = pos[u]
                if i >= 0:
                    last = items.pop()
                    if last != u:
                        items[i] = last
                        pos[last] = i
                    pos[u] = -1
        self.ones_bound[v] = ones
        queued = self._queued
        if not queued[v]:
            queued[v] = True
            self._queue.append(v)

    def remove(self, v: int) -> None:
        """Take ``v`` out: it joins the non-solution set, and the free set
        if it has no solution neighbor; each live neighbor outside the
        solution whose tightness falls to 0 joins the free set, and one
        whose tightness falls to 1 adds 1 to the ``ones_bound`` of its
        solution neighbor and queues it."""
        in_solution = self.in_solution
        if not in_solution[v]:
            raise ValueError(f"vertex {v} is not in the solution")
        if self.committed[v]:
            raise ValueError(f"vertex {v} is committed and cannot leave")
        in_solution[v] = False
        self.size -= 1
        if self._first_move is not None:
            self._first_move.setdefault(v, -1)
        clock = self.clock = self.clock + 1
        self.last_out[v] = clock
        # v was in the solution, so it is not in non_solution
        non_solution = self.non_solution
        non_solution.pos[v] = len(non_solution.items)
        non_solution.items.append(v)
        adjacency = self.graph.adjacency
        alive = self.graph.alive
        tightness = self.tightness
        items = self.free.items
        pos = self.free.pos
        queued = self._queued
        ones_bound = self.ones_bound
        for u in adjacency[v]:
            if not alive[u]:
                continue
            t = tightness[u] - 1
            tightness[u] = t
            if not in_solution[u]:
                if t == 0:
                    if pos[u] < 0:
                        pos[u] = len(items)
                        items.append(u)
                elif t == 1:
                    # u turned 1-tight: its unique solution neighbor may
                    # have gained a swap, so it goes back on the queue
                    for y in adjacency[u]:
                        if in_solution[y]:
                            ones_bound[y] += 1
                            if not queued[y]:
                                queued[y] = True
                                self._queue.append(y)
                            break
        if tightness[v] == 0 and pos[v] < 0:
            pos[v] = len(items)
            items.append(v)

    def maximalize(self) -> int:
        """Insert free vertices in random order until none remain.

        Each pick is ``rng.randrange(len(free))`` drawn inline as the
        standard library draws it, so picks and rng state match it.
        """
        items = self.free.items
        getrandbits = self.rng.getrandbits
        insert = self.insert
        gained = 0
        while items:
            n = len(items)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            insert(items[r])
            gained += 1
        return gained

    # ------------------------------------------------------------------

    def _commit(self, v: int) -> None:
        """Permanently take ``v`` and delete its closed neighborhood.

        The neighbors leave the graph immediately, so their tightness
        never needs updating.
        """
        g = self.graph
        self.in_solution[v] = True
        self.size += 1
        if self._first_move is not None:
            self._first_move.setdefault(v, 1)
        self.committed[v] = True
        free = self.free
        non_solution = self.non_solution
        free.discard(v)
        non_solution.discard(v)
        alive = g.alive
        for u in g.adjacency[v]:
            if alive[u]:
                # u leaves the graph while outside the solution
                g.remove_vertex(u, update_degrees=False)
                free.discard(u)
                non_solution.discard(u)
        g.remove_vertex(v, update_degrees=False)

    # ------------------------------------------------------------------

    def mark_best(self) -> None:
        """Take the current solution as the best one: start a fresh map."""
        self._first_move = {}

    def materialize_best(self) -> set[int]:
        """Solution as of the last mark_best: the current one, with every
        vertex moved since then put back opposite to its first move."""
        best = self.vertices()
        if self._first_move is not None:
            for v, move in self._first_move.items():
                if move > 0:
                    best.discard(v)
                else:
                    best.add(v)
        return best


def commit_check(g: Graph, v: int) -> bool:
    """True if ``v`` has at most two live neighbors and they are adjacent.

    This is the online search's degree-<=2 clique check. It counts live
    neighbors from the adjacency list, stopping at the third, so it stays
    exact after commits, which remove vertices without the degree update.
    """
    alive = g.alive
    first = second = -1
    for u in g.adjacency[v]:
        if alive[u]:
            if first < 0:
                first = u
            elif second < 0:
                second = u
            else:
                return False
    return second < 0 or g.has_live_edge(first, second)


def greedy_initial(g: Graph, rng: random.Random, online: bool = False) -> Solution:
    """Maximal solution from the min-degree greedy pass, ties random.

    Vertices are drawn from degree buckets keyed by their degree at pass
    start; picks that stopped being free are discarded lazily. In online
    mode every pick runs through the commit check.

    Each pick is ``rng.randrange(len(bucket))`` drawn inline as the
    standard library draws it (:meth:`Solution.maximalize`). The pass
    does the work of :meth:`Solution.insert` inline. Nothing
    leaves the solution during it, so the free set stays empty and is
    exact at the end, every base insert is queued once, and a commit,
    taken only at tightness 0, never deletes a solution member.
    """
    sol = Solution._for_greedy(g, rng, online)
    items = sol.non_solution.items   # every alive vertex, before the pass
    pos = sol.non_solution.pos
    if not items:
        return sol
    alive = g.alive
    adjacency = g.adjacency
    live_degree = g.live_degree
    remove_vertex = g.remove_vertex
    in_solution = sol.in_solution
    tightness = sol.tightness
    ones_bound = sol.ones_bound
    committed = sol.committed
    queued = sol._queued
    enqueue = sol._queue.append
    getrandbits = rng.getrandbits
    top = max(map(live_degree.__getitem__, items))
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v in items:
        buckets[live_degree[v]].append(v)
    size = 0
    for bucket in buckets:
        while bucket:
            n = len(bucket)
            k = n.bit_length()
            i = getrandbits(k)   # rng.randrange(n), inline
            while i >= n:
                i = getrandbits(k)
            v = bucket[i]
            bucket[i] = bucket[-1]
            bucket.pop()
            if tightness[v] or not alive[v]:
                continue
            in_solution[v] = True
            size += 1
            # non_solution.discard(v), inline
            i = pos[v]
            last = items[-1]
            items[i] = last
            pos[last] = i
            items.pop()
            pos[v] = -1
            if online and commit_check(g, v):
                committed[v] = True
                for u in adjacency[v]:
                    if alive[u]:
                        # u is alive and outside the solution, so it is
                        # in non_solution: discard it inline as v above
                        remove_vertex(u, False)
                        i = pos[u]
                        last = items[-1]
                        items[i] = last
                        pos[last] = i
                        items.pop()
                        pos[u] = -1
                remove_vertex(v, False)
            else:
                ones = 0
                for u in adjacency[v]:
                    t = tightness[u] + 1
                    tightness[u] = t
                    if t == 1 and alive[u]:
                        ones += 1
                ones_bound[v] = ones
                queued[v] = True
                enqueue(v)
    sol.size = size
    return sol


def find_one_two_swap(sol: Solution, v: int, pair_cap: int | None = None):
    """A pair of non-adjacent 1-tight neighbors of ``v``, if one exists.

    Examines at most ``pair_cap`` candidate pairs, in random order, and
    returns None when nothing valid turns up within the cap. Without a
    cap the scan is exhaustive, so None proves no swap at ``v``.
    """
    if not sol.in_solution[v]:
        raise ValueError(f"vertex {v} is not in the solution")
    g = sol.graph
    tightness = sol.tightness
    alive = g.alive
    ones = [u for u in g.adjacency[v] if tightness[u] == 1 and alive[u]]
    if len(ones) < 2:
        return None
    # rng.shuffle(ones), inline: the same draws and the same swaps
    getrandbits = sol.rng.getrandbits
    for i in range(len(ones) - 1, 0, -1):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        ones[i], ones[j] = ones[j], ones[i]
    examined = 0
    for i, u in enumerate(ones):
        for w in ones[i + 1:]:
            if pair_cap is not None and examined >= pair_cap:
                return None
            examined += 1
            if not g.has_live_edge(u, w):
                return u, w
    return None


def local_search(sol: Solution, pair_cap: int | None = None) -> int:
    """Apply (1,2)-swaps until the candidate queue drains; returns swaps.

    A popped candidate whose ``ones_bound`` is below 2 is skipped:
    :func:`find_one_two_swap` would return None for it before any draw.
    """
    swaps = 0
    sol.maximalize()
    queue = sol._queue
    popleft = queue.popleft
    queued = sol._queued
    in_solution = sol.in_solution
    alive = sol.graph.alive
    ones_bound = sol.ones_bound
    while queue:
        v = popleft()
        queued[v] = False
        if ones_bound[v] < 2 or not (in_solution[v] and alive[v]):
            continue
        found = find_one_two_swap(sol, v, pair_cap)
        if found is None:
            continue
        u, w = found
        sol.remove(v)
        sol.insert(u)
        sol.insert(w)
        swaps += 1
        sol.maximalize()
    return swaps


def sample_force_count(rng: random.Random, max_force: int = 32) -> int:
    """Perturbation width: 1 with probability 1/2, halving upward.

    P(f = k) = 2**-k for k below the cap; the leftover mass lands on the
    cap so the draw always terminates.
    """
    f = 1
    while f < max_force and rng.random() < 0.5:
        f += 1
    return f


def perturb(sol: Solution, params: PerturbationParams, rng: random.Random) -> None:
    """Force vertices into the solution, favoring the longest-outside ones.

    Each forced vertex evicts its solution neighbors first; the solution
    is re-maximalized at the end. Candidates are drawn as
    ``rng.randrange(len(non_solution))``, inline; the earliest ``last_out``
    wins, ties to the lower id. With nothing outside the solution there
    is nothing to force, and the call returns before any draw.
    """
    items = sol.non_solution.items
    if not items:
        return
    force = sample_force_count(rng)
    adjacency = sol.graph.adjacency
    in_solution = sol.in_solution
    last_out = sol.last_out
    pool = params.candidate_pool
    getrandbits = rng.getrandbits
    remove = sol.remove
    insert = sol.insert
    for _ in range(force):
        n = len(items)
        if n == 0:
            break
        k = n.bit_length()
        pick = -1
        pick_out = 0
        for _ in range(pool):
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            x = items[r]
            out = last_out[x]
            if pick < 0 or out < pick_out or (out == pick_out and x < pick):
                pick = x
                pick_out = out
        for y in adjacency[pick]:
            if in_solution[y]:
                remove(y)
        insert(pick)
    sol.maximalize()


def run_iterated(g: Graph, sol: Solution, budget: Budget, log: ConvergenceLog,
                 rng: random.Random, params: PerturbationParams | None = None,
                 size_offset: int = 0, start_time: float | None = None) -> set[int]:
    """Alternate perturbation and local search until the budget expires.

    Returns the best solution seen as a vertex-id set and appends one
    (elapsed, size) point per strict improvement, with ``size_offset``
    added to reported sizes so callers can log lifted totals. Stops early
    once every live vertex is in the solution: nothing can enter it any
    more, so the result cannot change.
    """
    if sol.graph is not g:
        raise ValueError("solution was built for a different graph")
    if params is None:
        params = PerturbationParams()
    start = time.perf_counter() if start_time is None else start_time

    def now(iteration: int) -> float:
        if budget.deterministic:
            return float(iteration)
        return time.perf_counter() - start

    sol.mark_best()
    best_size = sol.size
    log.append(now(0), best_size + size_offset)
    iteration = 0
    while not budget.expired(iteration, time.perf_counter() - start):
        if budget.target_size is not None and best_size + size_offset >= budget.target_size:
            break
        if len(sol.non_solution) == 0:
            break
        iteration += 1
        perturb(sol, params, rng)
        local_search(sol, params.pair_cap)
        if sol.size > best_size:
            best_size = sol.size
            sol.mark_best()
            log.append(now(iteration), best_size + size_offset)
    return sol.materialize_best()
