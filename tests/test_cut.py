import math
import random

import pytest

from fastmis.cut import cut_relative, cut_snapshot_top
from fastmis.graph import load

from util import er_graph, star_graph


def grid_graph(rows, cols):
    def vid(r, c):
        return r * cols + c
    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return load(edges, rows * cols)


def two_stars():
    # disjoint K1,5 stars on 12 vertices, centers 0 and 6
    edges = [(0, i) for i in range(1, 6)] + [(6, i) for i in range(7, 12)]
    return load(edges, 12)


def test_relative_mesh_count():
    g = grid_graph(10, 20)
    removed = cut_relative(g, 0.01, random.Random(4))
    assert len(removed) == 2
    assert g.alive_count() == 198


def test_relative_two_stars_takes_both_centers():
    for seed in range(8):
        g = two_stars()
        removed = cut_relative(g, 2 / 12, random.Random(seed))
        assert sorted(removed) == [0, 6]


def test_relative_zero_fraction():
    g = star_graph(4)
    assert cut_relative(g, 0.0, random.Random(0)) == []
    assert g.alive_count() == 5


def test_relative_full_fraction_clears_graph():
    g = star_graph(4)
    removed = cut_relative(g, 1.0, random.Random(1))
    assert len(removed) == 5
    assert g.alive_count() == 0


def test_relative_rejects_bad_fraction():
    with pytest.raises(ValueError):
        cut_relative(star_graph(2), 1.5, random.Random(0))


def test_relative_exact_count_and_max_degree_replay():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randrange(1, 40)
        g = er_graph(rng, n, rng.uniform(0.05, 0.5))
        fraction = rng.choice([0.0, 0.1, 0.33, 0.5, 1.0])
        replay = g.copy()
        removed = cut_relative(g, fraction, random.Random(rng.randrange(10**6)))
        assert len(removed) == math.ceil(fraction * n)
        for v in removed:
            top = max(replay.live_degree[u] for u in replay.alive_vertices())
            assert replay.live_degree[v] == top
            replay.remove_vertex(v)


def test_snapshot_top_star():
    g = star_graph(99)
    removed = cut_snapshot_top(g, 0.01, random.Random(3))
    assert removed == [0]


def test_snapshot_top_counts_and_ranking():
    rng = random.Random(88)
    for _ in range(20):
        n = rng.randrange(1, 30)
        g = er_graph(rng, n, 0.3)
        degrees = list(g.live_degree)
        k = math.ceil(0.2 * n)
        removed = cut_snapshot_top(g, 0.2, random.Random(rng.randrange(10**6)))
        assert len(removed) == k
        cutoff = sorted(degrees, reverse=True)[k - 1]
        assert all(degrees[v] >= cutoff for v in removed)
