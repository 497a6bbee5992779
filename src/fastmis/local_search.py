"""Iterated local search over maximal independent sets.

The solution structure supports insertion and removal in time
proportional to vertex degree, tracks per-vertex tightness (number of
solution neighbors), keeps the free vertices ready for re-maximalizing,
and queues candidates so no vertex is re-examined for a (1,2)-swap until
its neighborhood changes. One search iteration is a forced perturbation
followed by swap-based local search.

The search walks ``graph.adjacency`` in place, dead entries included,
and checks the ``alive`` flag only where a dead neighbor could change
the outcome (see :class:`Solution`). Adjacency lists stay sorted, so
every rng draw, set insertion and queue push happens in vertex-id order.

In online mode every insertion first runs the cheap degree-<=2 clique
check: vertices that pass are committed permanently and their
neighborhoods leave the residual graph for good. The check counts live
neighbors instead of reading ``live_degree``, so commits remove vertices
without the degree update (``update_degrees=False``): after the first
commit the graph's live degrees still count the removed vertices.
"""

from __future__ import annotations

import random
import time
from collections import deque
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
    soon as the best reported size reaches it.
    """

    seconds: float | None = None
    iterations: int | None = None
    target_size: int | None = None

    def __post_init__(self) -> None:
        if self.seconds is None and self.iterations is None:
            raise ValueError("budget needs seconds or iterations")

    @property
    def deterministic(self) -> bool:
        return self.seconds is None

    def expired(self, iteration: int, elapsed: float) -> bool:
        if self.iterations is not None and iteration >= self.iterations:
            return True
        return self.seconds is not None and elapsed >= self.seconds


class _IndexedSet:
    """Dense int set with O(1) add/discard and uniform sampling."""

    __slots__ = ("items", "pos")

    def __init__(self, capacity: int) -> None:
        self.items: list[int] = []
        self.pos = [-1] * capacity

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, v: int) -> bool:
        return self.pos[v] >= 0

    def add(self, v: int) -> None:
        if self.pos[v] < 0:
            self.pos[v] = len(self.items)
            self.items.append(v)

    def discard(self, v: int) -> None:
        i = self.pos[v]
        if i < 0:
            return
        last = self.items[-1]
        self.items[i] = last
        self.pos[last] = i
        self.items.pop()
        self.pos[v] = -1

    def sample(self, rng: random.Random) -> int:
        return self.items[rng.randrange(len(self.items))]


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
    :meth:`_base_insert` may raise a dead vertex's tightness, which
    nothing reads, and a solution member next to a live vertex is itself
    alive. Only :func:`greedy_initial` reads live degrees, to bucket the
    vertices before any commit.

    Best-set tracking journals every move since the last
    :meth:`mark_best`. :func:`run_iterated` calls :meth:`bound_journal`
    once per iteration: past ``len(in_solution)`` entries the best set is
    snapshotted instead, and journaling pauses until the next mark, so
    the journal stays within that bound between iterations.
    """

    def __init__(self, graph: Graph, rng: random.Random, online: bool = False) -> None:
        self._setup(graph, rng, online)
        free = self.free
        for v in self.non_solution.items:
            free.add(v)

    @classmethod
    def _for_greedy(cls, graph: Graph, rng: random.Random, online: bool) -> Solution:
        """An empty solution whose free set starts empty too.

        :func:`greedy_initial` never reads the free set, and every alive
        vertex leaves it during the pass, so filling it first would only
        be undone; the set is exact again once the pass ends.
        """
        sol = cls.__new__(cls)
        sol._setup(graph, rng, online)
        return sol

    def _setup(self, graph: Graph, rng: random.Random, online: bool) -> None:
        capacity = graph.next_id
        self.graph = graph
        self.rng = rng
        self.online = online
        self.in_solution = [False] * capacity
        self.tightness = [0] * capacity
        self.size = 0
        self.free = _IndexedSet(capacity)
        self.non_solution = _IndexedSet(capacity)
        self.committed = [False] * capacity
        self.last_out = [0] * capacity
        self.clock = 0
        self._queue: deque[int] = deque()
        self._queued = [False] * capacity
        self._journal: list[tuple[int, int]] | None = None
        self._best: set[int] | None = None
        for v in graph.alive_vertices():
            self.non_solution.add(v)

    # ------------------------------------------------------------------

    def vertices(self) -> set[int]:
        return {v for v in range(len(self.in_solution)) if self.in_solution[v]}

    def insert(self, v: int) -> None:
        """Add a free vertex; in online mode this may commit it instead."""
        if self.in_solution[v] or not self.graph.alive[v]:
            raise ValueError(f"vertex {v} is not insertable")
        if self.tightness[v] != 0:
            raise ValueError(f"vertex {v} has tightness {self.tightness[v]}")
        if self.online and self.graph.is_simplicial(v, max_degree=2):
            self._commit(v)
            return
        self._base_insert(v)
        self._enqueue(v)

    def remove(self, v: int) -> None:
        if not self.in_solution[v]:
            raise ValueError(f"vertex {v} is not in the solution")
        if self.committed[v]:
            raise ValueError(f"vertex {v} is committed and cannot leave")
        in_solution = self.in_solution
        in_solution[v] = False
        self.size -= 1
        if self._journal is not None:
            self._journal.append((-1, v))
        self.clock += 1
        self.last_out[v] = self.clock
        self.non_solution.add(v)
        adjacency = self.graph.adjacency
        alive = self.graph.alive
        tightness = self.tightness
        free = self.free
        for u in adjacency[v]:
            if not alive[u]:
                continue
            t = tightness[u] - 1
            tightness[u] = t
            if not in_solution[u]:
                if t == 0:
                    free.add(u)
                elif t == 1:
                    # u turned 1-tight: its unique solution neighbor may
                    # have gained a swap, so it goes back on the queue
                    for y in adjacency[u]:
                        if in_solution[y]:
                            self._enqueue(y)
                            break
        if tightness[v] == 0:
            free.add(v)

    def maximalize(self) -> int:
        """Insert free vertices in random order until none remain."""
        gained = 0
        while len(self.free):
            v = self.free.sample(self.rng)
            self.insert(v)
            gained += 1
        return gained

    # ------------------------------------------------------------------

    def _base_insert(self, v: int) -> None:
        self.in_solution[v] = True
        self.size += 1
        if self._journal is not None:
            self._journal.append((1, v))
        free = self.free
        free.discard(v)
        self.non_solution.discard(v)
        tightness = self.tightness
        for u in self.graph.adjacency[v]:
            t = tightness[u] + 1
            tightness[u] = t
            if t == 1:
                free.discard(u)

    def _commit(self, v: int) -> None:
        """Permanently take ``v`` and delete its closed neighborhood.

        The neighbors leave the graph immediately, so their tightness
        never needs updating.
        """
        g = self.graph
        self.in_solution[v] = True
        self.size += 1
        if self._journal is not None:
            self._journal.append((1, v))
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

    def seed_candidates(self) -> None:
        for v in self.graph.alive_vertices():
            if self.in_solution[v]:
                self._enqueue(v)

    # ------------------------------------------------------------------

    def start_best_tracking(self) -> None:
        self._journal = []
        self._best = None

    def mark_best(self) -> None:
        if self._journal is not None or self._best is not None:
            self._journal = []
            self._best = None

    def bound_journal(self) -> None:
        """Snapshot the best set once the journal outgrows the graph,
        at one O(n) pass per improvement at most."""
        if self._journal is not None and len(self._journal) > len(self.in_solution):
            self._best = self.materialize_best()
            self._journal = None

    def materialize_best(self) -> set[int]:
        """Solution as of the last mark_best, from the snapshot or
        replayed from the journal."""
        if self._best is not None:
            return set(self._best)
        best = self.vertices()
        if self._journal is not None:
            for op, v in reversed(self._journal):
                if op > 0:
                    best.discard(v)
                else:
                    best.add(v)
        return best


def greedy_initial(g: Graph, rng: random.Random, online: bool = False) -> Solution:
    """Maximal solution from the min-degree greedy pass, ties random.

    Vertices are drawn from degree buckets keyed by their degree at pass
    start; picks that stopped being free are discarded lazily. In online
    mode every pick runs through the commit check.
    """
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
    sol.seed_candidates()
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
    sol.rng.shuffle(ones)
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
    """Apply (1,2)-swaps until the candidate queue drains; returns swaps."""
    swaps = 0
    sol.maximalize()
    while True:
        v = sol._pop_candidate()
        if v is None:
            break
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
    is re-maximalized at the end.
    """
    force = sample_force_count(rng)
    adjacency = sol.graph.adjacency
    in_solution = sol.in_solution
    for _ in range(force):
        if len(sol.non_solution) == 0:
            break
        pick = None
        for _ in range(params.candidate_pool):
            x = sol.non_solution.sample(rng)
            if pick is None or (sol.last_out[x], x) < (sol.last_out[pick], pick):
                pick = x
        for y in adjacency[pick]:
            if in_solution[y]:
                sol.remove(y)
        sol.insert(pick)
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

    sol.start_best_tracking()
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
        sol.bound_journal()
    return sol.materialize_best()
