import random

import pytest

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


def test_removal_without_degree_update_keeps_checks_exact():
    rng = random.Random(12)
    for _ in range(40):
        g = er_graph(rng, rng.randrange(2, 16), rng.uniform(0.1, 0.7))
        eager = g.copy()
        for _ in range(rng.randrange(1, 8)):
            alive = g.alive_vertices()
            if not alive:
                break
            v = rng.choice(alive)
            g.remove_vertex(v, update_degrees=rng.random() < 0.7)
            eager.remove_vertex(v)
            g.validate()
            g.copy().validate()
            for u in g.alive_vertices():
                # the bounded clique check reads no live degree
                assert g.is_simplicial(u, max_degree=2) == eager.is_simplicial(u, max_degree=2)
                assert g.neighbors_live(u) == eager.neighbors_live(u)


def test_is_simplicial_needs_exact_degrees_without_bound():
    g = path_graph(4)
    g.remove_vertex(1, update_degrees=False)
    with pytest.raises(ValueError, match="exact live degrees"):
        g.is_simplicial(2)
    assert g.is_simplicial(2, max_degree=2)   # counts live neighbours itself


def test_validate_counts_removals_without_degree_update():
    g = star_graph(3)
    g.remove_vertex(1, update_degrees=False)
    assert g.live_degree[0] == 3
    g.validate()
    g._counted_dead.clear()   # lose the record: the centre's degree is now wrong
    with pytest.raises(AssertionError):
        g.validate()
