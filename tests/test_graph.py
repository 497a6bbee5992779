import random

import pytest
from hypothesis import given, strategies as st

from fastmis.graph import GraphFormatError, load

from util import cycle_graph, er_graph, path_graph, star_graph


def test_load_dedupes_and_drops_self_loops():
    g = load([(0, 1), (1, 0), (1, 1), (1, 2)], 3)
    assert g.edges() == [(0, 1), (1, 2)]
    assert g.live_edge_count() == 2
    g.validate()


def test_load_empty_edge_set():
    g = load([], 2)
    assert g.alive_count() == 2
    assert g.live_degree == [0, 0]


def test_load_cycle_degrees():
    g = cycle_graph(5)
    assert all(g.live_degree[v] == 2 for v in range(5))
    g.validate()


def test_load_rejects_out_of_range_endpoints():
    with pytest.raises(GraphFormatError):
        load([(0, 3)], 3)
    with pytest.raises(GraphFormatError):
        load([(-1, 0)], 3)


def test_load_rejects_negative_vertex_count():
    with pytest.raises(GraphFormatError, match="nonnegative"):
        load([], -1)


def load_reference(edges, n):
    """Set-based build of the sorted lists, or the message of the first
    edge with an endpoint out of range."""
    per_vertex = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}"
        if u != v:
            per_vertex[u].add(v)
            per_vertex[v].add(u)
    return [sorted(a) for a in per_vertex]


@st.composite
def messy_edge_lists(draw):
    """Edge lists with self-loops, duplicates, reversed pairs and now and
    then an endpoint out of range."""
    n = draw(st.integers(1, 12))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=40))
    if edges:
        edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=10))]
        edges = draw(st.permutations(edges))
    wild = st.integers(-2, n + 1)
    for e in draw(st.lists(st.tuples(wild, wild), max_size=2)):
        edges.insert(draw(st.integers(0, len(edges))), e)
    return n, edges


@given(messy_edge_lists())
def test_load_matches_set_reference(case):
    n, edges = case
    want = load_reference(edges, n)
    if isinstance(want, str):
        with pytest.raises(GraphFormatError) as info:
            load(edges, n)
        assert str(info.value) == want
    else:
        g = load(edges, n)
        assert g.adjacency == want
        assert g.live_degree == list(map(len, want))
        g.validate()


def test_load_idempotent_on_own_edges():
    rng = random.Random(5)
    g = er_graph(rng, 12, 0.3)
    again = load(g.edges(), 12)
    assert again.edges() == g.edges()


def test_remove_star_center():
    g = star_graph(3)
    g.remove_vertex(0)
    assert not g.alive[0]
    assert g.alive_count() == 3
    assert all(g.live_degree[v] == 0 for v in (1, 2, 3))


def test_remove_path_endpoint():
    g = path_graph(2)
    g.remove_vertex(0)
    assert g.live_degree[1] == 0


def test_remove_twice_rejected():
    g = path_graph(2)
    g.remove_vertex(0)
    with pytest.raises(ValueError):
        g.remove_vertex(0)


def test_neighbors_live_filters_dead():
    g = load([(0, 1), (0, 2), (1, 2)], 3)
    assert g.neighbors_live(0) == [1, 2]
    g.remove_vertex(2)
    assert g.neighbors_live(0) == [1]
    lonely = load([], 1)
    assert lonely.neighbors_live(0) == []


def test_neighbors_live_rejects_dead_vertex():
    g = path_graph(2)
    g.remove_vertex(0)
    with pytest.raises(ValueError):
        g.neighbors_live(0)


def test_contract_fold_path():
    g = path_graph(3)
    merged = g.contract_fold(1, 0, 2)
    assert merged == 3
    assert g.alive_count() == 1
    assert g.neighbors_live(merged) == []
    g.validate()


def test_contract_fold_p5_interior():
    g = path_graph(5)
    merged = g.contract_fold(1, 0, 2)
    assert g.neighbors_live(merged) == [3]
    g.validate()


def test_contract_fold_rejects_adjacent_neighbors():
    g = load([(0, 1), (1, 2), (0, 2)], 3)
    with pytest.raises(ValueError):
        g.contract_fold(1, 0, 2)


def test_contract_fold_rejects_wrong_degree():
    g = star_graph(3)
    with pytest.raises(ValueError):
        g.contract_fold(0, 1, 2)


def test_add_gadget_isolated():
    g = load([], 2)
    w = g.add_gadget([])
    assert w == 2
    assert g.neighbors_live(w) == []


def test_add_gadget_links_neighbors():
    g = load([], 2)
    w = g.add_gadget([0, 1])
    assert g.neighbors_live(w) == [0, 1]
    assert g.live_degree[0] == g.live_degree[1] == 1
    g.validate()


def test_gadget_ids_strictly_increase():
    g = load([], 1)
    first = g.add_gadget([0])
    second = g.add_gadget([0])
    assert second > first > 0


def test_add_gadget_rejects_dead_neighbor():
    g = load([], 2)
    g.remove_vertex(1)
    with pytest.raises(ValueError):
        g.add_gadget([1])


def test_add_edge_symmetric_and_dedup():
    g = load([], 3)
    assert g.add_edge(0, 2)
    assert not g.add_edge(2, 0)
    assert g.edges() == [(0, 2)]
    g.validate()


def test_copy_is_independent():
    g = path_graph(4)
    h = g.copy()
    h.remove_vertex(0)
    assert g.alive[0]
    assert not h.alive[0]


def test_copy_shares_lists_until_first_write():
    g = path_graph(5)
    h = g.copy()
    assert h.adjacency is not g.adjacency
    assert all(a is b for a, b in zip(h.adjacency, g.adjacency))
    h.remove_vertex(4)            # removals write no list
    assert not h.add_edge(1, 0)   # nor does an edge that is present
    assert all(a is b for a, b in zip(h.adjacency, g.adjacency))
    outer = h.adjacency
    assert h.add_edge(0, 2)
    assert h.adjacency is outer
    assert not any(a is b for a, b in zip(h.adjacency, g.adjacency))
    owned = h.adjacency[0]
    assert h.add_edge(0, 3)       # only the first write copies
    assert h.adjacency[0] is owned
    assert g.adjacency == [[1], [0, 2], [1, 3], [2, 4], [3]]


COPY_WRITES = {
    "add_edge": lambda g: g.add_edge(0, 4),
    "add_gadget": lambda g: g.add_gadget([0, 2, 4]),
    "contract_fold": lambda g: g.contract_fold(1, 0, 2),
}


@pytest.mark.parametrize("writer", ["source", "copy", "copy_of_copy"])
@pytest.mark.parametrize("write", sorted(COPY_WRITES))
def test_write_after_copy_leaves_other_graphs_alone(write, writer):
    source = path_graph(5)
    copy = source.copy()
    graphs = {"source": source, "copy": copy, "copy_of_copy": copy.copy()}
    before = [list(a) for a in source.adjacency]
    target = graphs[writer]
    outer = target.adjacency
    COPY_WRITES[write](target)
    assert target.adjacency is outer
    assert target.adjacency != before
    for name, g in graphs.items():
        g.validate()
        if name != writer:
            assert g.adjacency == before, name
    # the other two still share their lists, and a write there is safe
    others = [g for name, g in graphs.items() if name != writer]
    assert all(a is b for a, b in zip(others[0].adjacency, others[1].adjacency))
    COPY_WRITES[write](others[0])
    assert others[1].adjacency == before
    for g in graphs.values():
        g.validate()


def test_random_operation_sequences_keep_invariants():
    rng = random.Random(11)
    for _ in range(30):
        g = er_graph(rng, rng.randrange(2, 14), rng.uniform(0.1, 0.6))
        for _ in range(rng.randrange(1, 10)):
            alive = g.alive_vertices()
            if not alive:
                break
            move = rng.randrange(3)
            if move == 0:
                g.remove_vertex(rng.choice(alive))
            elif move == 1:
                g.add_gadget(rng.sample(alive, min(len(alive), rng.randrange(3))))
            else:
                candidates = [
                    v for v in alive
                    if g.alive[v] and g.live_degree[v] == 2
                ]
                rng.shuffle(candidates)
                for v in candidates:
                    u, w = g.neighbors_live(v)
                    if not g.has_live_edge(u, w):
                        g.contract_fold(v, u, w)
                        break
            g.validate()
        total = sum(g.live_degree[v] for v in g.alive_vertices())
        assert total % 2 == 0


def test_compact_renumbers_live_part_in_id_order():
    rng = random.Random(12)
    synthetic = 0
    for _ in range(40):
        g = er_graph(rng, rng.randrange(2, 16), rng.uniform(0.1, 0.6))
        for _ in range(rng.randrange(1, 10)):
            alive = g.alive_vertices()
            move = rng.randrange(3)
            if move == 0 and alive:
                g.remove_vertex(rng.choice(alive))
            elif move == 1:
                g.add_gadget(rng.sample(alive, min(len(alive), rng.randrange(3))))
            else:
                for v in alive:
                    if g.live_degree[v] == 2:
                        u, w = g.neighbors_live(v)
                        if not g.has_live_edge(u, w):
                            g.contract_fold(v, u, w)
                            break
        synthetic += any(g.alive[v] for v in range(g.n, g.next_id))
        compact, ids = g.compact()
        compact.validate()
        assert ids == g.alive_vertices()
        assert compact.n == compact.next_id == len(ids) == compact.alive_count()
        assert compact.live_degree == [g.live_degree[v] for v in ids]
        assert sorted((ids[a], ids[b]) for a, b in compact.edges()) == g.edges()
    assert synthetic > 5
