import random

import pytest

from fastmis.local_search import greedy_initial
from fastmis.oracle import GraphTooLargeError, enumerate_swaps, exact_mis

from util import (
    brute_mis_size,
    complete_graph,
    cycle_graph,
    empty_graph,
    er_graph,
    is_independent,
    path_graph,
    petersen_graph,
    star_graph,
)


def test_cycle5_optimum():
    size, witness = exact_mis(cycle_graph(5))
    assert size == 2 == brute_mis_size(cycle_graph(5))
    assert len(witness) == 2
    assert is_independent(cycle_graph(5), witness)


def test_petersen_optimum():
    g = petersen_graph()
    size, witness = exact_mis(g)
    assert size == 4 == brute_mis_size(g)
    assert is_independent(g, witness) and len(witness) == 4


def test_empty_graph_optimum():
    size, witness = exact_mis(empty_graph(7))
    assert size == 7
    assert witness == set(range(7))


def test_node_limit_refusal():
    with pytest.raises(GraphTooLargeError):
        exact_mis(empty_graph(50))


def test_oracle_agrees_with_enumeration():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randrange(0, 13)
        g = er_graph(rng, n, rng.uniform(0.05, 0.85))
        size, witness = exact_mis(g)
        assert size == brute_mis_size(g)
        assert len(witness) == size
        assert is_independent(g, witness)


def test_oracle_respects_dead_vertices():
    g = path_graph(5)
    g.remove_vertex(2)  # leaves two disjoint edges
    size, witness = exact_mis(g)
    assert size == 2
    assert all(g.alive[v] for v in witness)


def test_enumerate_swaps_p5_frozen_truths():
    # I = {v1, v4}: removing v4 frees its 1-tight neighbors v3 and v5
    g = path_graph(5)
    assert enumerate_swaps(g, {0, 3}) == [(3, 2, 4)]
    # I = {v2, v4}: v3 is 2-tight, so no swap exists anywhere
    assert enumerate_swaps(g, {1, 3}) == []


def test_enumerate_swaps_clique_empty():
    g = complete_graph(4)
    assert enumerate_swaps(g, {0}) == []


def test_enumerate_swaps_star_center():
    g = star_graph(4)
    swaps = enumerate_swaps(g, {0})
    assert len(swaps) == 6  # all leaf pairs
    assert all(v == 0 for v, _, _ in swaps)


def test_enumerate_swaps_accepts_solution_objects():
    rng = random.Random(9)
    g = star_graph(3)
    sol = greedy_initial(g, rng)
    swaps_obj = enumerate_swaps(g, sol)
    swaps_set = enumerate_swaps(g, sol.vertices())
    assert swaps_obj == swaps_set
