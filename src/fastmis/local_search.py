"""Iterated local search over maximal independent sets.

The solution structure supports insertion and removal in time
proportional to vertex degree, tracks per-vertex tightness (number of
solution neighbors), keeps the free vertices ready for re-maximalizing,
and queues candidates so no vertex is re-examined for a (1,2)-swap until
its neighborhood changes. One search iteration is a forced perturbation
followed by swap-based local search.

A (1,2)-swap at ``v`` needs two 1-tight neighbors of ``v``. Each
solution vertex keeps ``ones_bound``, an upper bound on how many
neighbors are 1-tight, and :func:`local_search` skips a candidate whose
bound is below 2 without scanning its neighborhood. The skip happens
exactly where :func:`find_one_two_swap` would return None before any rng
draw, so the screen leaves every trajectory and rng state unchanged.

The search graph has no dead vertex (:meth:`Graph.compact` builds one
from what cutting and reduction leave), and the search deletes none, so
no move checks an ``alive`` flag. Adjacency lists stay sorted, so every
rng draw, set insertion and queue push happens in vertex-id order.

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

    The moves (:meth:`Solution.insert`, :meth:`Solution.remove`) add and
    discard inline on both lists; a discard moves the last item into the
    freed slot.
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


class Solution:
    """Independent set with tightness bookkeeping over a graph.

    Invariant: the search graph has no dead vertex; building a solution
    on a graph with one raises ValueError. Only :func:`greedy_initial`
    reads degrees, to bucket the vertices.

    :meth:`insert` and :meth:`remove` are the one implementation of each
    move. They update the free and non-solution sets and push the
    candidate queue inline, in the order of the adjacency lists.

    ``ones_bound[v]`` bounds from above the number of 1-tight neighbors
    of a solution vertex ``v``. :meth:`insert` sets it to the number of
    neighbors whose tightness rose to 1 and takes 1 off it when one of
    them rises to 2; :meth:`remove` adds 1 at the one solution neighbor
    of each vertex that turned 1-tight. So on a solution built by
    :meth:`insert` alone the bound is exact. :func:`greedy_initial`
    counts as :meth:`insert` does but never lowers a bound, which leaves
    the bounds of its set above the true counts. Outside the solution
    the entry is stale, and no outcome depends on it.

    Best-set tracking keeps, for every vertex moved since the last
    :meth:`mark_best`, its first move since then (+1 in, -1 out): a
    vertex moves in and out by turns, so at the mark it stood opposite
    to its first move. The map holds one entry per vertex at most, and
    stays ``None``, recording nothing, until the first mark.
    """

    # the search commits nothing; perfbench/tracer.py still sums this
    committed = ()

    def __init__(self, graph: Graph, rng: random.Random) -> None:
        self._setup(graph, rng)
        self.free = _IndexedSet(graph.next_id, self.non_solution.items)

    @classmethod
    def _for_greedy(cls, graph: Graph, rng: random.Random) -> Solution:
        """An empty solution whose free set starts empty too.

        :func:`greedy_initial` neither reads nor writes the free set; its
        pass ends with a maximal solution, for which the empty set is
        exact.
        """
        sol = cls.__new__(cls)
        sol._setup(graph, rng)
        sol.free = _IndexedSet(graph.next_id)
        return sol

    def _setup(self, graph: Graph, rng: random.Random) -> None:
        if not all(graph.alive):
            raise ValueError("the search graph has a dead vertex; compact it first")
        capacity = graph.next_id
        self.graph = graph
        self.rng = rng
        self.in_solution = [False] * capacity
        self.tightness = [0] * capacity
        self.ones_bound = [0] * capacity
        self.size = 0
        self.non_solution = _IndexedSet(capacity, range(capacity))
        self.last_out = [0] * capacity
        self.clock = 0
        self._queue: deque[int] = deque()
        self._queued = [False] * capacity
        self._first_move: dict[int, int] | None = None

    # ------------------------------------------------------------------

    def vertices(self) -> set[int]:
        return {v for v in range(len(self.in_solution)) if self.in_solution[v]}

    def insert(self, v: int) -> None:
        """Add a free vertex: ``v`` leaves the free and non-solution
        sets, each neighbor whose tightness rises to 1 leaves the free set
        and counts towards ``ones_bound[v]``, each one whose tightness
        rises to 2 takes 1 off the ``ones_bound`` of its other solution
        neighbor, and ``v`` joins the candidate queue unless it is queued
        already.
        """
        in_solution = self.in_solution
        if in_solution[v]:
            raise ValueError(f"vertex {v} is not insertable")
        tightness = self.tightness
        if tightness[v] != 0:
            raise ValueError(f"vertex {v} has tightness {tightness[v]}")
        in_solution[v] = True
        self.size += 1
        if self._first_move is not None:
            self._first_move.setdefault(v, 1)
        # v is outside the solution, so it is in non_solution
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
        adjacency = self.graph.adjacency
        ones_bound = self.ones_bound
        ones = 0
        for u in adjacency[v]:
            t = tightness[u] + 1
            tightness[u] = t
            if t == 1:
                ones += 1
                i = pos[u]
                if i >= 0:
                    last = items.pop()
                    if last != u:
                        items[i] = last
                        pos[last] = i
                    pos[u] = -1
            elif t == 2:
                # u stops being 1-tight at its other solution neighbor
                for y in adjacency[u]:
                    if in_solution[y] and y != v:
                        ones_bound[y] -= 1
                        break
        ones_bound[v] = ones
        queued = self._queued
        if not queued[v]:
            queued[v] = True
            self._queue.append(v)

    def remove(self, v: int) -> None:
        """Take ``v`` out: it joins the non-solution set, and the free set
        if it has no solution neighbor; each neighbor outside the
        solution whose tightness falls to 0 joins the free set, and one
        whose tightness falls to 1 adds 1 to the ``ones_bound`` of its
        solution neighbor and queues it."""
        in_solution = self.in_solution
        if not in_solution[v]:
            raise ValueError(f"vertex {v} is not in the solution")
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
        tightness = self.tightness
        items = self.free.items
        pos = self.free.pos
        queued = self._queued
        ones_bound = self.ones_bound
        for u in adjacency[v]:
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


def greedy_initial(g: Graph, rng: random.Random) -> Solution:
    """Maximal solution from the min-degree greedy pass, ties random.

    Vertices are drawn from degree buckets keyed by their degree at pass
    start; picks that stopped being free are discarded lazily.

    Each pick is ``rng.randrange(len(bucket))`` drawn inline as the
    standard library draws it (:meth:`Solution.maximalize`). The pass
    does the work of :meth:`Solution.insert` inline, except that it lowers
    no ``ones_bound`` when a neighbor turns 2-tight: on pa100k that scan
    raised the pass's time by about half. Nothing leaves the solution
    during it, so the free set stays empty and is exact at the end, and
    every insert is queued once.
    """
    sol = Solution._for_greedy(g, rng)
    items = sol.non_solution.items   # every vertex, before the pass
    pos = sol.non_solution.pos
    if not items:
        return sol
    adjacency = g.adjacency
    live_degree = g.live_degree
    in_solution = sol.in_solution
    tightness = sol.tightness
    ones_bound = sol.ones_bound
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
            if tightness[v]:
                continue
            in_solution[v] = True
            size += 1
            # discard v from non_solution, inline
            i = pos[v]
            last = items[-1]
            items[i] = last
            pos[last] = i
            items.pop()
            pos[v] = -1
            ones = 0
            for u in adjacency[v]:
                t = tightness[u] + 1
                tightness[u] = t
                if t == 1:
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
    ones = [u for u in g.adjacency[v] if tightness[u] == 1]
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
    ones_bound = sol.ones_bound
    while queue:
        v = popleft()
        queued[v] = False
        if ones_bound[v] < 2 or not in_solution[v]:
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
    once every vertex is in the solution: nothing can enter it any
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
