"""Exact kernelization rules with an undo log.

Each rule shrinks the graph while preserving the optimal independent-set
size, pushing enough bookkeeping onto a :class:`ReductionStack` that any
independent set of the reduced graph can be mapped back to one of the
input graph (:func:`lift_solution`). Every rule has the signature
``(g, stack) -> int``: the stack carries the undo log and the packing
constraints, which are always tracked. :func:`kernelize` runs an enabled
subset of rules to a fixpoint, cheapest rules first.

Rules do not commute, so which vertices a rule takes, and in what order,
decides the kernel. A faster rewrite of a scan may therefore not change
any decision: the same vertices in the same order, the same undo records
and the same lifted solutions. ``test_kernelize_golden`` pins digests of
the undo log, the kernel's alive set and its edge list to enforce that.
The pendant rule and the expensive scans (LP, unconfined, simplicial,
alternative) walk the adjacency lists in place instead of copying live
neighbor lists. Every rule reads live degrees, so :func:`kernelize`
refuses a graph with removals that skipped the degree update.

Rule catalogue
--------------
pendant      degree-1 vertex taken into the solution, neighbor dropped.
isolated     simplicial vertex (closed neighborhood a clique) taken.
fold         degree-2 vertex with non-adjacent neighbors contracted into
             one fresh vertex; adds +1 to the final solution either way.
lp           half-integral relaxation solved through maximum matching on
             the bipartite double cover; integral vertices are fixed.
unconfined   vertices provably avoidable by some optimal solution,
             detected by the expanding-witness loop, get excluded.
twin         two degree-3 vertices sharing a neighborhood; either both
             are taken or a gadget vertex defers the choice.
alternative  funnel and chordless-4-cycle patterns where one of two sets
             is in some optimal solution; cross-edges splice the rest.
packing      constraints accumulated from exclusions; a bound-0
             constraint over an edgeless set forces inclusions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph

RULE_ORDER = (
    "pendant",
    "isolated",
    "fold",
    "lp",
    "unconfined",
    "twin",
    "alternative",
    "packing",
)

ALL_RULES = frozenset(RULE_ORDER)
# the preprocessing pipeline runs the advanced-rule set without the
# simplicial rule; the online pipeline uses only the simplicial rule
KERMIS_RULES = ALL_RULES - {"isolated"}


# ----------------------------------------------------------------------
# undo records


@dataclass(frozen=True)
class IncludeVertex:
    v: int


@dataclass(frozen=True)
class Fold:
    merged: int   # fresh vertex standing in for {left, center, right}
    left: int
    center: int   # the degree-2 vertex
    right: int


@dataclass(frozen=True)
class TwinGadget:
    gadget: int
    u: int
    v: int
    shared: tuple[int, ...]   # the common neighborhood at reduction time


@dataclass(frozen=True)
class Alternative:
    a_side: tuple[int, ...]
    b_side: tuple[int, ...]
    dropped: tuple[int, ...]            # common neighbors removed outright
    cross_edges: tuple[tuple[int, int], ...]
    a_neighbors: tuple[int, ...]        # survivors adjacent to a_side
    b_neighbors: tuple[int, ...]        # survivors adjacent to b_side


class ReductionStack:
    """Ordered undo log mapping reduced-graph solutions back to the input.

    ``offset`` is the guaranteed size bonus of lifting: every lifted
    solution has exactly ``len(kernel_solution) + offset`` vertices.
    ``constraints`` holds the packing constraints the rules maintain.
    """

    def __init__(self, graph: Graph) -> None:
        self.graph = graph
        self.entries: list = []
        self.offset = 0
        self.constraints = ConstraintStore()

    def push_include(self, v: int) -> None:
        self.entries.append(IncludeVertex(v))
        self.offset += 1

    def push_fold(self, merged: int, left: int, center: int, right: int) -> None:
        self.entries.append(Fold(merged, left, center, right))
        self.offset += 1

    def push_twin_gadget(self, gadget: int, u: int, v: int, shared: tuple[int, ...]) -> None:
        self.entries.append(TwinGadget(gadget, u, v, shared))
        self.offset += 2

    def push_alternative(self, record: Alternative) -> None:
        self.entries.append(record)
        self.offset += len(record.a_side)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass
class KernelResult:
    stack: ReductionStack
    per_rule_counts: dict[str, int]
    reduced_n: int
    reduced_m: int


# ----------------------------------------------------------------------
# packing constraints


@dataclass
class PackingConstraint:
    """At most ``bound`` of ``members`` may stay out of the solution."""

    members: set[int]
    bound: int
    retired: bool = False


class ConstraintStore:
    """Constraints created by exclusions, maintained as the graph shrinks.

    A vertex excluded because the optimum is preserved without it forces
    some live neighbor into every optimal solution of the residual graph;
    that fact is recorded as a constraint over the neighborhood. Rules
    that may later re-insert a removed vertex (fold, twin, alternative)
    make referencing constraints unusable, so those are retired.
    """

    def __init__(self) -> None:
        self.constraints: list[PackingConstraint] = []
        self._by_member: dict[int, list[PackingConstraint]] = {}

    def add_neighbor_constraint(self, neighbors: list[int]) -> None:
        if not neighbors:
            return
        c = PackingConstraint(set(neighbors), len(neighbors) - 1)
        self._settle(c)
        if c.retired:
            return
        self.constraints.append(c)
        for v in c.members:
            self._by_member.setdefault(v, []).append(c)

    def note_include(self, v: int) -> None:
        for c in self._by_member.pop(v, ()):  # solution member: term drops out
            if not c.retired:
                c.members.discard(v)
                self._settle(c)

    def note_exclude(self, v: int) -> None:
        for c in self._by_member.pop(v, ()):  # definite non-member: bound shrinks
            if not c.retired:
                c.members.discard(v)
                c.bound -= 1
                self._settle(c)

    def note_opaque(self, vertices) -> None:
        for v in vertices:
            for c in self._by_member.pop(v, ()):
                c.retired = True

    def fireable(self) -> list[PackingConstraint]:
        return [
            c for c in self.constraints
            if not c.retired and c.bound == 0 and c.members
        ]

    def _settle(self, c: PackingConstraint) -> None:
        # len(members) <= bound means the constraint can never bite;
        # bound < 0 cannot occur for a consistent reduction sequence and
        # is dropped defensively rather than acted upon
        if c.bound < 0 or len(c.members) <= c.bound:
            c.retired = True


# ----------------------------------------------------------------------
# shared removal helpers


def _include_vertex(g: Graph, stack: ReductionStack, v: int) -> None:
    """Commit ``v`` to the solution and drop its closed neighborhood."""
    store = stack.constraints
    stack.push_include(v)
    store.note_include(v)
    nbrs = g.neighbors_live(v)
    g.remove_vertex(v)
    for u in nbrs:
        store.note_exclude(u)
        g.remove_vertex(u)


# ----------------------------------------------------------------------
# rules


def reduce_pendant(g: Graph, stack: ReductionStack) -> int:
    """Take every degree-1 vertex into the solution, to a fixpoint.

    Each fire walks the adjacency list of the dropped neighbor ``u`` once,
    in place: it lowers the live degrees there and queues every vertex
    whose degree falls to 1. The lists are sorted, so the queue gets the
    same vertices in the same order as a scan of u's live list after the
    removal would give it.
    """
    adjacency = g.adjacency
    alive = g.alive
    live_degree = g.live_degree
    store = stack.constraints
    queue = [v for v in g.alive_vertices() if live_degree[v] == 1]
    count = 0
    while queue:
        v = queue.pop()
        if not alive[v] or live_degree[v] != 1:
            continue
        for u in adjacency[v]:
            if alive[u]:
                break
        stack.push_include(v)
        store.note_include(v)
        store.note_exclude(u)
        alive[v] = False
        alive[u] = False
        live_degree[u] -= 1   # v was its live neighbor
        for x in adjacency[u]:
            if alive[x]:
                live_degree[x] -= 1
                if live_degree[x] == 1:
                    queue.append(x)
        count += 1
    return count


def reduce_isolated(g: Graph, stack: ReductionStack) -> int:
    """Take simplicial vertices (closed neighborhood a clique)."""
    queue = g.alive_vertices()
    count = 0
    while queue:
        v = queue.pop()
        if not g.alive[v] or not g.is_simplicial(v):
            continue
        ring = set()
        for u in g.neighbors_live(v):
            ring.update(g.neighbors_live(u))
        _include_vertex(g, stack, v)
        count += 1
        for x in ring:
            if g.alive[x]:
                queue.append(x)
    return count


def reduce_fold(g: Graph, stack: ReductionStack) -> int:
    """Contract degree-2 vertices with non-adjacent neighbors."""
    queue = [v for v in g.alive_vertices() if g.live_degree[v] == 2]
    count = 0
    while queue:
        v = queue.pop()
        if not g.alive[v] or g.live_degree[v] != 2:
            continue
        u, w = g.neighbors_live(v)
        if g.has_live_edge(u, w):
            continue
        affected = set(g.neighbors_live(u)) | set(g.neighbors_live(w))
        merged = g.contract_fold(v, u, w)
        stack.push_fold(merged, u, v, w)
        stack.constraints.note_opaque((u, v, w))
        count += 1
        if g.live_degree[merged] == 2:
            queue.append(merged)
        for x in affected:
            if g.alive[x] and g.live_degree[x] == 2:
                queue.append(x)
    return count


def reduce_unconfined(g: Graph, stack: ReductionStack) -> int:
    """Exclude every vertex the confinement loop proves avoidable."""
    count = 0
    for v in g.alive_vertices():
        if not g.alive[v]:
            continue
        if _is_unconfined(g, v):
            stack.constraints.add_neighbor_constraint(g.neighbors_live(v))
            stack.constraints.note_exclude(v)
            g.remove_vertex(v)
            count += 1
    return count


def _is_unconfined(g: Graph, v: int) -> bool:
    """Grow a witness set S from {v}; ``v`` is unconfined once some
    boundary vertex with exactly one neighbor in S has no neighbor
    outside N[S].

    While no such vertex exists, S grows by the single outside neighbor
    of the lowest-id boundary vertex that has exactly one neighbor in S
    and one outside N[S]; without one, ``v`` is confined. Each boundary
    vertex costs one walk of its adjacency list, cut short once it has
    two neighbors in S or two outside N[S].
    """
    adjacency = g.adjacency
    alive = g.alive
    witness = {v}
    closed = {u for u in adjacency[v] if alive[u]}   # N[S]
    closed.add(v)
    while True:
        grow_from = -1   # lowest boundary vertex with one outside neighbor
        for u in closed:
            if u in witness:
                continue
            inside = outside = 0
            for x in adjacency[u]:
                if not alive[x]:
                    continue
                if x in witness:
                    inside += 1
                    if inside > 1:
                        break
                elif x not in closed:
                    outside += 1
                    if outside > 1:
                        break
                    out = x
            else:
                # u has exactly one neighbor in S, as a boundary vertex
                if outside == 0:
                    return True
                if grow_from < 0 or u < grow_from:
                    grow_from = u
                    grow = out
        if grow_from < 0:
            return False
        witness.add(grow)
        closed.add(grow)
        closed.update(u for u in adjacency[grow] if alive[u])


def reduce_twin(g: Graph, stack: ReductionStack) -> int:
    """Resolve pairs of degree-3 vertices with identical neighborhoods."""
    count = 0
    groups: dict[tuple[int, ...], list[int]] = {}
    for v in g.alive_vertices():
        if g.live_degree[v] == 3:
            groups.setdefault(tuple(g.neighbors_live(v)), []).append(v)
    for signature, members in groups.items():
        for i, u in enumerate(members):
            if not g.alive[u]:
                continue
            if g.live_degree[u] != 3 or tuple(g.neighbors_live(u)) != signature:
                continue
            for v in members[i + 1:]:
                if not g.alive[v]:
                    continue
                if g.live_degree[v] != 3 or tuple(g.neighbors_live(v)) != signature:
                    continue
                _apply_twin(g, stack, u, v, signature)
                count += 1
                break
    return count


def _apply_twin(g: Graph, stack: ReductionStack, u: int, v: int,
                shared: tuple[int, ...]) -> None:
    has_inner_edge = any(
        g.has_live_edge(a, b)
        for i, a in enumerate(shared)
        for b in shared[i + 1:]
    )
    if has_inner_edge:
        # at most one shared neighbor fits in any solution, so the pair
        # beats every alternative: take both twins
        _include_vertex(g, stack, u)
        _include_vertex(g, stack, v)
        return
    # independent shared neighborhood: the gadget stands for "all three
    # shared neighbors go in"; its neighbors are their outside contacts
    two_ring: set[int] = set()
    for c in shared:
        two_ring.update(g.neighbors_live(c))
    two_ring.discard(u)
    two_ring.discard(v)
    two_ring.difference_update(shared)
    stack.constraints.note_opaque((u, v, *shared))
    g.remove_vertex(u)
    g.remove_vertex(v)
    for x in shared:
        g.remove_vertex(x)
    gadget = g.add_gadget(sorted(two_ring))
    stack.push_twin_gadget(gadget, u, v, shared)


def reduce_alternative(g: Graph, stack: ReductionStack) -> int:
    """Apply funnel and chordless-4-cycle replacements."""
    return _apply_funnels(g, stack) + _apply_four_cycles(g, stack)


def _apply_funnels(g: Graph, stack: ReductionStack) -> int:
    count = 0
    alive = g.alive
    live_degree = g.live_degree
    for v in g.alive_vertices():
        if not alive[v] or live_degree[v] == 0:
            continue
        u = _funnel_partner(g, v)
        if u is None:
            continue
        common = sorted(set(g.neighbors_live(u)) & set(g.neighbors_live(v)))
        a_out = [x for x in g.neighbors_live(u) if x != v and x not in common]
        b_out = [x for x in g.neighbors_live(v) if x != u and x not in common]
        stack.constraints.note_opaque((u, v))
        g.remove_vertex(u)
        g.remove_vertex(v)
        for x in common:
            stack.constraints.note_exclude(x)
            g.remove_vertex(x)
        crosses = []
        for a in a_out:
            for b in b_out:
                if g.add_edge(a, b):
                    crosses.append((a, b))
        stack.push_alternative(Alternative(
            (u,), (v,), tuple(common), tuple(crosses), tuple(a_out), tuple(b_out),
        ))
        count += 1
    return count


def _funnel_partner(g: Graph, v: int) -> int | None:
    """Neighbor ``u`` such that N(v) minus ``u`` induces a clique, if any.

    Every non-adjacent pair inside N(v) must involve the same vertex, so
    only the two ends of the first such pair are candidates; a degree
    prefilter keeps this cheap on hub vertices.
    """
    adjacency = g.adjacency
    alive = g.alive
    live_degree = g.live_degree
    nbrs = [x for x in adjacency[v] if alive[x]]
    deg = len(nbrs)
    if deg == 1:
        return nbrs[0]
    low = deg - 2
    short = 0
    for x in nbrs:
        if live_degree[x] < low:
            short += 1
            if short == 2:
                return None   # second-smallest degree cannot support the clique
    first_pair = g.first_non_edge(nbrs)
    if first_pair is None:
        return nbrs[0]   # whole neighborhood is a clique; any split works
    for u in first_pair:
        if g.first_non_edge([x for x in nbrs if x != u]) is None:
            return u
    return None


def _apply_four_cycles(g: Graph, stack: ReductionStack) -> int:
    # both cycle pairs must keep at most 2 outside neighbors, so every
    # participant has degree 3 or 4
    count = 0
    alive = g.alive
    live_degree = g.live_degree
    for a1 in g.alive_vertices():
        if not alive[a1] or live_degree[a1] not in (3, 4):
            continue
        count += _four_cycle_at(g, stack, a1)
    return count


def _four_cycle_at(g: Graph, stack: ReductionStack, a1: int) -> int:
    # nothing changes before a firing returns, so the lists read here
    # stay exact; a live x is in a list with dead entries iff adjacent
    adjacency = g.adjacency
    alive = g.alive
    live_degree = g.live_degree
    a1_nbrs = [x for x in adjacency[a1] if alive[x]]
    seen_partners: set[int] = set()
    for b in a1_nbrs:
        if live_degree[b] < 3:
            continue
        for a2 in adjacency[b]:
            if a2 <= a1 or not alive[a2] or a2 in seen_partners:
                continue
            if live_degree[a2] not in (3, 4) or a2 in a1_nbrs:
                continue
            seen_partners.add(a2)
            adj_a2 = adjacency[a2]
            common = [x for x in a1_nbrs if x in adj_a2 and live_degree[x] >= 3]
            for i, b1 in enumerate(common):
                for b2 in common[i + 1:]:
                    if g.has_live_edge(b1, b2):
                        continue
                    if _fire_four_cycle(g, stack, a1, a2, b1, b2):
                        return 1
    return 0


def _fire_four_cycle(g, stack, a1, a2, b1, b2) -> bool:
    a_set = (a1, a2)
    b_set = (b1, b2)
    a_out = sorted(
        {x for a in a_set for x in g.neighbors_live(a)} - set(b_set) - set(a_set)
    )
    b_out = sorted(
        {x for b in b_set for x in g.neighbors_live(b)} - set(a_set) - set(b_set)
    )
    if len(a_out) > 2 or len(b_out) > 2:
        return False
    if set(a_out) & set(b_out):
        return False   # shared outside neighborhood disqualifies the pattern
    stack.constraints.note_opaque(a_set + b_set)
    for x in a_set + b_set:
        g.remove_vertex(x)
    crosses = []
    for a in a_out:
        for b in b_out:
            if g.add_edge(a, b):
                crosses.append((a, b))
    stack.push_alternative(Alternative(
        a_set, b_set, (), tuple(crosses), tuple(a_out), tuple(b_out),
    ))
    return True


def reduce_lp(g: Graph, stack: ReductionStack) -> int:
    """Fix every vertex the half-integral relaxation decides integrally.

    Value-1 vertices go into the solution (their neighbors are all value
    0 and drop out); value-0 vertices are excluded. Returns the number
    of vertices removed.
    """
    values = lp_relaxation_values(g)
    ones = sorted(v for v, x in values.items() if x == 1.0)
    count = 0
    for v in ones:
        if g.alive[v]:
            count += 1 + g.live_degree[v]
            _include_vertex(g, stack, v)
    # optimality forces every value-0 vertex next to a value-1 vertex,
    # so nothing with value 0 survives the loop above
    return count


def lp_relaxation_values(g: Graph) -> dict[int, float]:
    """Half-integral optimum of the relaxation, per alive vertex.

    Solved as maximum bipartite matching on the standard double cover
    (each vertex split into a left and a right copy, each edge doubled).
    The residual orientation is then decomposed into strongly connected
    components and mirror-paired components are split across the cut,
    which minimizes the half-valued part.
    """
    vertices = g.alive_vertices()
    k = len(vertices)
    if k == 0:
        return {}
    index = [-1] * g.next_id
    for i, v in enumerate(vertices):
        index[v] = i
    adjacency = g.adjacency
    alive = g.alive
    adj = [[index[u] for u in adjacency[v] if alive[u]] for v in vertices]
    match_l, match_r = _hopcroft_karp(adj)

    # residual arcs: Li -> Rj for every edge, Rj -> Li on matched pairs.
    # nodes 0..k-1 are left copies, k..2k-1 right copies.
    in_source = [False] * (2 * k)   # reachable from an unmatched left copy
    queue = [i for i in range(k) if match_l[i] == -1]
    for i in queue:
        in_source[i] = True
    while queue:
        x = queue.pop()
        if x < k:
            for j in adj[x]:
                if not in_source[k + j]:
                    in_source[k + j] = True
                    queue.append(k + j)
        else:
            i = match_r[x - k]
            if i != -1 and not in_source[i]:
                in_source[i] = True
                queue.append(i)
    in_sink = [False] * (2 * k)     # can reach an unmatched right copy
    queue = [k + j for j in range(k) if match_r[j] == -1]
    for x in queue:
        in_sink[x] = True
    while queue:
        x = queue.pop()
        if x >= k:
            for i in adj[x - k]:    # predecessors Li of Rj mirror adj by symmetry
                if not in_sink[i]:
                    in_sink[i] = True
                    queue.append(i)
        else:
            j = match_l[x]
            if j != -1 and not in_sink[k + j]:
                in_sink[k + j] = True
                queue.append(k + j)

    side = [0] * (2 * k)   # +1 source side, -1 sink side
    for x in range(2 * k):
        if in_source[x]:
            side[x] = 1
        elif in_sink[x]:
            side[x] = -1

    _round_middle(adj, match_r, side, k)

    values: dict[int, float] = {}
    for i, v in enumerate(vertices):
        left, right = side[i], side[k + i]
        if left > 0 and right <= 0:
            values[v] = 1.0
        elif left <= 0 and right > 0:
            values[v] = 0.0
        else:
            values[v] = 0.5
    return values


def _round_middle(adj, match_r, side, k) -> None:
    """Assign undecided residual components, splitting mirror pairs.

    Components are processed successors-first; a component joins the
    source side when its successors allow it and its mirror has not,
    which yields integral values for every mirror-split vertex. Each
    choice is written to ``side`` at once: a successor outside the
    component is decided already, and a later component reads as 0.
    """
    middle = [x for x in range(2 * k) if side[x] == 0]
    if not middle:
        return
    # residual arcs inside the middle: Li -> Rj per edge, Rj -> Li matched;
    # lists only for the middle, which can be a small part of 2k nodes
    succ: list[list[int] | None] = [None] * (2 * k)
    for x in middle:
        if x < k:
            succ[x] = [k + j for j in adj[x] if side[k + j] == 0]
        else:
            i = match_r[x - k]
            succ[x] = [i] if i != -1 and side[i] == 0 else []

    for members in _tarjan_scc(middle, succ, 2 * k):
        # members read 0 until decided, so a -1 or +1 is always outside
        can_source = True
        mirror_on_source = False
        for x in members:
            if can_source:
                if x < k:
                    for j in adj[x]:
                        if side[k + j] == -1:
                            can_source = False
                            break
                else:
                    i = match_r[x - k]
                    if i != -1 and side[i] == -1:
                        can_source = False
            if side[x + k if x < k else x - k] == 1:
                mirror_on_source = True
        choice = 1 if (can_source and not mirror_on_source) else -1
        for x in members:
            side[x] = choice


def _tarjan_scc(nodes, succ, limit):
    """Iterative Tarjan over ``nodes``, whose successor lists ``succ``
    stay inside the set; components are emitted successors-first.

    Each node keeps a pointer into its successor list, so resuming a
    node after a child returns costs no iterator or list copy.
    """
    order = [0] * limit   # 0: not visited yet
    low = [0] * limit
    ptr = [0] * limit
    on_stack = [False] * limit
    counter = 1
    stack: list[int] = []
    components: list[list[int]] = []
    for root in nodes:
        if order[root]:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [root]
        while work:
            x = work[-1]
            sx = succ[x]
            end = len(sx)
            i = ptr[x]
            while i < end:
                y = sx[i]
                i += 1
                if not order[y]:
                    ptr[x] = i
                    order[y] = low[y] = counter
                    counter += 1
                    stack.append(y)
                    on_stack[y] = True
                    work.append(y)
                    break
                if on_stack[y] and order[y] < low[x]:
                    low[x] = order[y]
            else:
                work.pop()
                if work:
                    px = work[-1]
                    if low[x] < low[px]:
                        low[px] = low[x]
                if low[x] == order[x]:
                    members = []
                    while True:
                        y = stack.pop()
                        on_stack[y] = False
                        members.append(y)
                        if y == x:
                            break
                    components.append(members)
    return components


def _hopcroft_karp(adj: list[list[int]]) -> tuple[list[int], list[int]]:
    """Maximum matching on the double cover; returns (match_l, match_r)."""
    k = len(adj)
    match_l = [-1] * k
    match_r = [-1] * k
    dist = [-1] * k   # BFS layer of a left copy; -1 outside the layering
    # the first phase, with every left copy free at layer 0, can only
    # match each left copy in turn to its first free right copy
    for i in range(k):
        for j in adj[i]:
            if match_r[j] == -1:
                match_l[i] = j
                match_r[j] = i
                break
    while True:
        queue = []
        for i in range(k):
            if match_l[i] == -1:
                dist[i] = 0
                queue.append(i)
            else:
                dist[i] = -1
        found = False
        for i in queue:   # grows while it is walked
            d = dist[i] + 1
            for j in adj[i]:
                nxt = match_r[j]
                if nxt == -1:
                    found = True
                elif dist[nxt] < 0:
                    dist[nxt] = d
                    queue.append(nxt)
        if not found:
            break
        for start in range(k):
            if match_l[start] != -1:
                continue
            # iterative alternating DFS along the BFS layering
            path: list[tuple[int, int]] = []
            frame = [(start, 0)]
            while frame:
                i, ptr = frame.pop()
                adj_i = adj[i]
                end = len(adj_i)
                want = dist[i] + 1
                while ptr < end:
                    j = adj_i[ptr]
                    ptr += 1
                    nxt = match_r[j]
                    if nxt == -1:
                        path.append((i, j))
                        for a, b in path:
                            match_l[a] = b
                            match_r[b] = a
                        dist[i] = -1
                        frame = []
                        break
                    if dist[nxt] == want:
                        frame.append((i, ptr))
                        path.append((i, j))
                        frame.append((nxt, 0))
                        break
                else:
                    dist[i] = -1
                    if path:
                        path.pop()
    return match_l, match_r


def reduce_packing_k0(g: Graph, stack: ReductionStack) -> int:
    """Fire bound-0 constraints: every member joins the solution."""
    count = 0
    progress = True
    while progress:
        progress = False
        for c in stack.constraints.fireable():
            members = sorted(c.members)
            if not all(g.alive[v] for v in members):
                c.retired = True
                continue
            has_edge = any(
                g.has_live_edge(a, b)
                for i, a in enumerate(members)
                for b in members[i + 1:]
            )
            c.retired = True
            if has_edge:
                continue   # cannot arise from sound exclusions; drop defensively
            for v in members:
                if g.alive[v]:
                    _include_vertex(g, stack, v)
            count += 1
            progress = True
    return count


# ----------------------------------------------------------------------
# driver


def kernelize(g: Graph, rules=ALL_RULES) -> KernelResult:
    """Run enabled rules to a fixpoint, cheapest first, restarting from the
    top after any application. Mutates ``g`` in place.
    """
    enabled = frozenset(rules)
    unknown = enabled - ALL_RULES
    if unknown:
        raise ValueError(f"unknown rules: {sorted(unknown)}")
    if not g.degrees_exact:
        raise ValueError("kernelize needs exact live degrees; the graph has "
                         "removals made with update_degrees=False")
    # looked up at call time, so a rebound module global takes effect
    by_name = {
        "pendant": reduce_pendant,
        "isolated": reduce_isolated,
        "fold": reduce_fold,
        "lp": reduce_lp,
        "unconfined": reduce_unconfined,
        "twin": reduce_twin,
        "alternative": reduce_alternative,
        "packing": reduce_packing_k0,
    }
    active = [(name, by_name[name]) for name in RULE_ORDER if name in enabled]
    stack = ReductionStack(g)
    counts = {name: 0 for name, _ in active}
    applied = True
    while applied:
        applied = False
        for name, rule in active:
            fired = rule(g, stack)
            counts[name] += fired
            if fired:
                applied = True
                break
    return KernelResult(
        stack=stack,
        per_rule_counts=counts,
        reduced_n=g.alive_count(),
        reduced_m=g.live_edge_count(),
    )


def lift_solution(stack: ReductionStack, kernel_solution) -> set[int]:
    """Map a kernel independent set back to one of the input graph.

    Replays the undo log newest-first: committed vertices rejoin, folded
    and gadget vertices resolve to the branch their membership selects.
    The output never contains synthetic vertex ids.
    """
    g = stack.graph
    solution = set(kernel_solution)
    for v in solution:
        if not 0 <= v < g.next_id or not g.alive[v]:
            raise ValueError(f"solution vertex {v} is not alive in the reduced graph")
    for v in solution:
        for u in g.neighbors_live(v):
            if u in solution:
                raise ValueError(f"solution is not independent: edge ({v}, {u})")
    for entry in reversed(stack.entries):
        if isinstance(entry, IncludeVertex):
            solution.add(entry.v)
        elif isinstance(entry, Fold):
            if entry.merged in solution:
                solution.discard(entry.merged)
                solution.add(entry.left)
                solution.add(entry.right)
            else:
                solution.add(entry.center)
        elif isinstance(entry, TwinGadget):
            if entry.gadget in solution:
                solution.discard(entry.gadget)
                solution.update(entry.shared)
            else:
                solution.add(entry.u)
                solution.add(entry.v)
        else:   # Alternative
            if any(x in solution for x in entry.a_neighbors):
                solution.update(entry.b_side)
            else:
                solution.update(entry.a_side)
    return solution
