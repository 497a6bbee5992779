import importlib
import random
import time

from fastmis.cut import cut_snapshot_top
from fastmis.local_search import Budget
from fastmis.metrics import ConvergenceLog
from fastmis.oracle import exact_mis
from fastmis.pipelines import ker_mis, online_mis, plain_arw

from util import (
    complete_graph,
    empty_graph,
    er_graph,
    is_independent,
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
    # the package re-exports the local_search function under the module's name
    module = importlib.import_module("fastmis.local_search")
    calls = []
    real_perturb = module.perturb

    def counting_perturb(*args):
        calls.append(1)
        return real_perturb(*args)

    monkeypatch.setattr(module, "perturb", counting_perturb)
    started = time.perf_counter()
    best = plain_arw(empty_graph(50), Budget(seconds=2), random.Random(1))
    assert best == set(range(50))
    assert calls == []
    assert time.perf_counter() - started < 1.0

    tree = random_tree(random.Random(4), 200)
    best = online_mis(tree, 0.0, Budget(iterations=5000), random.Random(4))
    assert is_independent(tree, best)
    assert calls == []
