import hashlib
import random
import time

import pytest

from fastmis import pipelines
from fastmis.cut import cut_snapshot_top
from fastmis.local_search import Budget, perturb
from fastmis.metrics import ConvergenceLog
from fastmis.oracle import exact_mis
from fastmis.pipelines import ker_mis, online_mis, plain_arw
from fastmis.reductions import ONLINE_RULES, kernelize

from util import (
    ba_graph,
    complete_graph,
    empty_graph,
    er_graph,
    gnm_graph,
    is_independent,
    mesh_graph,
    path_graph,
    random_tree,
    star_graph,
)


def test_online_tree_inputs_reach_oracle():
    rng = random.Random(3)
    for _ in range(25):
        g = random_tree(rng, rng.randrange(2, 21))
        opt = exact_mis(g.copy())[0]
        seed = rng.randrange(10**6)
        best = online_mis(g, 0.0, Budget(iterations=3000, target_size=opt),
                          random.Random(seed))
        assert len(best) == opt
        assert is_independent(g, best)


def test_online_star_cuts_center():
    g = star_graph(99)
    best = online_mis(g, 0.01, Budget(iterations=50), random.Random(5))
    assert best == set(range(1, 100))


def test_online_empty_graph_all_committed_in_single_pass():
    g = empty_graph(7)
    log = ConvergenceLog()
    best = online_mis(g, 0.0, Budget(iterations=0), random.Random(1), log)
    assert best == set(range(7))
    assert log.points[0][1] == 7


def test_online_never_returns_cut_vertices():
    rng = random.Random(9)
    for _ in range(20):
        g = er_graph(rng, 40, 0.15)
        seed = rng.randrange(10**6)
        shadow = g.copy()
        cut = set(cut_snapshot_top(shadow, 0.1, random.Random(seed)))
        best = online_mis(g, 0.1, Budget(iterations=100), random.Random(seed))
        assert not (best & cut)
        assert is_independent(g, best)


def _online_start_graphs(rng):
    """Random trees, BA graphs with one or two links per vertex, BA
    graphs with hubs, and G(n, p) graphs."""
    graphs = []
    for _ in range(6):
        graphs.append(random_tree(rng, rng.randrange(2, 80)))
        graphs.append(ba_graph(rng, rng.randrange(3, 200), attach=(1, 2)))
        graphs.append(ba_graph(rng, rng.randrange(3, 200), attach=(1, 2, 4, 8)))
        graphs.append(er_graph(rng, rng.randrange(2, 60), rng.uniform(0.02, 0.2)))
    return graphs


@pytest.mark.parametrize("fraction", [0.0, 0.1])
def test_online_start_leaves_nothing_to_commit(fraction):
    # after the cut and the online rules no alive vertex passes the
    # paper's online check (a clique closed neighborhood of degree at
    # most 2), so a search that ran it would never commit
    rng = random.Random(31 + int(fraction * 10))
    for g in _online_start_graphs(rng):
        cut_snapshot_top(g, fraction, random.Random(rng.randrange(10**6)))
        kernelize(g, rules=ONLINE_RULES)
        for v in g.alive_vertices():
            assert not (g.live_degree[v] <= 2 and g.is_simplicial(v)), (v, g.edges())


def test_online_result_size_is_the_logged_best():
    rng = random.Random(37)
    emptied = searched = 0
    for g in _online_start_graphs(rng):
        seed = rng.randrange(10**6)
        shadow = g.copy()
        cut_snapshot_top(shadow, 0.01, random.Random(seed))
        offset = kernelize(shadow, rules=ONLINE_RULES).stack.offset
        log = ConvergenceLog()
        best = online_mis(g, 0.01, Budget(iterations=200), random.Random(seed), log)
        assert is_independent(g, best)
        assert len(best) == log.best_size()
        if shadow.alive_count() == 0:
            emptied += 1
            assert len(best) == offset
            assert len(log.points) == 1
        else:
            searched += 1
            assert len(best) >= offset
    assert emptied and searched


@pytest.mark.parametrize("fraction", [2.0, -1, float("nan")])
@pytest.mark.parametrize("algo", [online_mis, ker_mis])
def test_pipelines_reject_bad_fraction_before_kernelizing(monkeypatch, algo, fraction):
    calls = []

    def recording_kernelize(*args, **kwargs):
        calls.append(args)
        return kernelize(*args, **kwargs)

    monkeypatch.setattr(pipelines, "kernelize", recording_kernelize)
    g = path_graph(5)
    with pytest.raises(ValueError, match=r"fraction must be within \[0, 1\]"):
        algo(g, fraction, Budget(iterations=5), random.Random(1))
    assert calls == []
    algo(g, 0.0, Budget(iterations=5), random.Random(1))
    assert len(calls) == 1


def test_kermis_tree_empty_kernel_identical_across_seeds():
    rng = random.Random(11)
    for _ in range(15):
        g = random_tree(rng, rng.randrange(2, 18))
        opt = exact_mis(g.copy())[0]
        logs = []
        results = []
        for seed in (1, 2, 3):
            log = ConvergenceLog()
            results.append(ker_mis(g, 0.01, Budget(iterations=50),
                                   random.Random(seed), log))
            logs.append(log.points)
        assert results[0] == results[1] == results[2]
        assert logs[0] == logs[1] == logs[2]
        assert len(results[0]) == opt


def test_kermis_logs_lifted_sizes():
    # a graph the rules cannot finish: two disjoint 5-cycles plus a pendant
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(0, 10)]
    from fastmis.graph import load

    g = load(edges, 11)
    opt = exact_mis(g.copy())[0]
    log = ConvergenceLog()
    best = ker_mis(g, 0.0, Budget(iterations=500), random.Random(4), log)
    assert is_independent(g, best)
    assert log.points[-1][1] == len(best)
    assert len(best) == opt


def test_kermis_randoms_fraction_zero_reach_oracle():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 16)
        g = er_graph(rng, n, rng.uniform(0.05, 0.6))
        opt = exact_mis(g.copy())[0]
        best = ker_mis(g, 0.0, Budget(iterations=4000, target_size=opt),
                       random.Random(rng.randrange(10**6)))
        assert len(best) == opt
        assert is_independent(g, best)


def test_plain_arw_small_cases():
    assert len(plain_arw(path_graph(5), Budget(iterations=400),
                         random.Random(1))) == 3
    assert len(plain_arw(complete_graph(4), Budget(iterations=50),
                         random.Random(2))) == 1
    assert plain_arw(empty_graph(5), Budget(iterations=10),
                     random.Random(3)) == set(range(5))


def test_pipelines_output_independent_with_cutting():
    rng = random.Random(17)
    for _ in range(15):
        g = er_graph(rng, 30, 0.2)
        seed = rng.randrange(10**6)
        budget = Budget(iterations=60)
        for algo in (online_mis, ker_mis):
            best = algo(g, 0.1, budget, random.Random(seed))
            assert is_independent(g, best)
            assert all(v < g.n for v in best)
        best = plain_arw(g, budget, random.Random(seed))
        assert is_independent(g, best)


def test_pipelines_do_not_mutate_input():
    g = er_graph(random.Random(19), 20, 0.2)
    edges_before = g.edges()
    online_mis(g, 0.05, Budget(iterations=20), random.Random(1))
    ker_mis(g, 0.05, Budget(iterations=20), random.Random(1))
    plain_arw(g, Budget(iterations=20), random.Random(1))
    assert g.edges() == edges_before
    assert g.alive_count() == 20


def test_search_stops_once_nothing_can_enter(monkeypatch):
    # with every live vertex in the solution no perturbation can change
    # the result, so the loop must not spin through the rest of its budget
    calls = []

    def counting_perturb(*args):
        calls.append(1)
        return perturb(*args)

    monkeypatch.setattr("fastmis.local_search.perturb", counting_perturb)
    started = time.perf_counter()
    best = plain_arw(empty_graph(50), Budget(seconds=2), random.Random(1))
    assert best == set(range(50))
    assert calls == []
    assert time.perf_counter() - started < 1.0

    tree = random_tree(random.Random(4), 200)
    best = online_mis(tree, 0.0, Budget(iterations=5000), random.Random(4))
    assert is_independent(tree, best)
    assert calls == []


# Trajectories recorded before the search walked adjacency lists in
# place: (graph, pipeline, seed, size, log points, hash of the sorted
# solution and the log). Any change to the order of rng draws, set
# insertions or queue pushes shows up here first. The gnm300 onlinemis
# rows were re-recorded when the online start began to reduce to a
# fixpoint before the search; mesh30 has no pendant or simplicial vertex
# left after the cut, so its rows kept their values.
GOLDEN_TRAJECTORIES = [
    ("mesh30", "onlinemis", 1, 320, 10, "b38ef3e549bd5563"),
    ("mesh30", "onlinemis", 2, 320, 9, "85b94e860d0132c6"),
    ("mesh30", "kermis", 1, 324, 8, "38377f02aa1584a2"),
    ("mesh30", "kermis", 2, 323, 9, "c9f2c640947fe4d5"),
    ("mesh30", "arw", 1, 317, 11, "7508d83affc9a3bd"),
    ("mesh30", "arw", 2, 323, 15, "d93299ce02b07d61"),
    ("gnm300", "onlinemis", 1, 142, 6, "5128e39394b145ee"),
    ("gnm300", "onlinemis", 2, 142, 8, "7c0bc1de300884ba"),
    ("gnm300", "kermis", 1, 142, 5, "5a6b38b8ac2da2ae"),
    ("gnm300", "kermis", 2, 142, 3, "de16a96e31ebd726"),
    ("gnm300", "arw", 1, 140, 4, "a3808447cb416897"),
    ("gnm300", "arw", 2, 142, 5, "099f201d0fd7f902"),
]


@pytest.mark.parametrize("graph,algo,seed,size,points,digest", GOLDEN_TRAJECTORIES)
def test_search_trajectory_golden(graph, algo, seed, size, points, digest):
    if graph == "mesh30":
        g = mesh_graph(random.Random(100), 30)
    else:
        g = gnm_graph(random.Random(300), 300, 600)
    log = ConvergenceLog()
    rng = random.Random(seed)
    budget = Budget(iterations=300)
    if algo == "onlinemis":
        best = online_mis(g, 0.01, budget, rng, log)
    elif algo == "kermis":
        best = ker_mis(g, 0.01, budget, rng, log)
    else:
        best = plain_arw(g, budget, rng, log)
    assert is_independent(g, best)
    assert (len(best), len(log.points)) == (size, points)
    got = hashlib.sha256(repr((sorted(best), log.points)).encode()).hexdigest()[:16]
    assert got == digest
