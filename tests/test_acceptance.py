"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The trend check at the
end drives two solvers for 60 wall-clock seconds per seed and dominates
the total runtime; it is marked ``slow``, so ``-m "not slow"`` skips it.
"""

import itertools
import math
import random
import time

import pytest

from fastmis.cut import cut_relative
from fastmis.local_search import (
    Budget,
    PerturbationParams,
    greedy_initial,
    local_search,
    perturb,
    sample_force_count,
)
from fastmis.metrics import ConvergenceLog, max_speedup, time_to_size
from fastmis.oracle import enumerate_swaps, exact_mis
from fastmis.pipelines import ker_mis, online_mis, plain_arw
from fastmis.reductions import RULE_ORDER, kernelize, lift_solution
from fastmis.cli import main, write_metis

from util import ba_graph, check_solution_state, er_graph, is_independent


def report(number, ok, detail):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_kernelization_oracle_equivalence():
    rng = random.Random(20260101)
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(RULE_ORDER, k) for k in range(len(RULE_ORDER) + 1)
    ))
    per_subset = max(1, math.ceil(10_000 / len(subsets)))
    started = time.perf_counter()
    trials = 0
    for subset in subsets:
        rules = frozenset(subset)
        for _ in range(per_subset):
            n = rng.randrange(0, 17)
            g = er_graph(rng, n, rng.uniform(0.05, 0.9))
            opt = exact_mis(g.copy())[0]
            work = g.copy()
            result = kernelize(work, rules=rules) if rules else None
            if result is None:
                stack_len = 0
                _, witness = exact_mis(work)
                lifted = witness
            else:
                stack_len = len(result.stack)
                _, witness = exact_mis(work)
                lifted = lift_solution(result.stack, witness)
                assert len(lifted) == len(witness) + result.stack.offset
            assert is_independent(g, lifted), (subset, g.edges())
            assert len(lifted) == opt, (subset, g.edges(), len(lifted), opt, stack_len)
            trials += 1
    elapsed = time.perf_counter() - started
    report(1, trials >= 10_000 and elapsed < 300,
           f"{trials} (graph, rule-subset) trials, all lifted optima exact, "
           f"{elapsed:.1f}s")


def test_criterion_2_pipelines_reach_oracle():
    rng = random.Random(20260202)
    instances = 1000
    budget_iterations = 10_000
    hits = {"kermis": 0, "arw": 0, "onlinemis": 0}
    for i in range(instances):
        n = rng.randrange(1, 17)
        g = er_graph(rng, n, rng.uniform(0.05, 0.7))
        opt = exact_mis(g.copy())[0]
        seed = rng.randrange(10**9)
        budget = Budget(iterations=budget_iterations, target_size=opt)
        if len(ker_mis(g, 0.0, budget, random.Random(seed))) == opt:
            hits["kermis"] += 1
        if len(plain_arw(g, budget, random.Random(seed))) == opt:
            hits["arw"] += 1
        if len(online_mis(g, 0.0, budget, random.Random(seed))) == opt:
            hits["onlinemis"] += 1
    rates = {k: v / instances for k, v in hits.items()}
    ok = all(rate >= 0.95 for rate in rates.values())
    report(2, ok, f"oracle-hit rates over {instances} instances: " +
           ", ".join(f"{k}={v:.3f}" for k, v in rates.items()))


def test_criterion_3_local_optimum_soundness():
    rng = random.Random(20260303)
    instances = 400
    for _ in range(instances):
        n = rng.randrange(1, 13)
        g = er_graph(rng, n, rng.uniform(0.05, 0.8))
        sol = greedy_initial(g, random.Random(rng.randrange(10**9)))
        local_search(sol, pair_cap=None)
        leftover = enumerate_swaps(g, sol)
        assert leftover == [], (g.edges(), sol.vertices(), leftover)
    report(3, True, f"zero (1,2)-swaps after uncapped local search on "
           f"{instances} instances")


def test_criterion_4_invariant_suite():
    rng = random.Random(20260404)
    steps_done = 0
    params = PerturbationParams(candidate_pool=3, pair_cap=20)
    while steps_done < 100_000:
        n = rng.randrange(2, 26)
        g = er_graph(rng, n, rng.uniform(0.05, 0.5))
        run_rng = random.Random(rng.randrange(10**9))
        rng.random()   # a draw kept so the instance stream stays the same
        sol = greedy_initial(g, run_rng)
        log = ConvergenceLog()
        log.append(0.0, sol.size)
        for _ in range(rng.randrange(5, 60)):
            move = rng.randrange(3)
            if move == 0:
                perturb(sol, params, run_rng)
            elif move == 1:
                local_search(sol, params.pair_cap)
            else:
                members = [v for v in sol.vertices() if g.alive[v]]
                if members:
                    sol.remove(run_rng.choice(members))
                    sol.maximalize()
            g.validate()
            check_solution_state(sol)
            if sol.size > log.points[-1][1]:
                log.append(float(steps_done), sol.size)
            steps_done += 1
    report(4, True, f"{steps_done} randomized steps, all rescans clean")


def test_criterion_5_perturbation_distribution():
    rng = random.Random(20260505)
    draws = 1_000_000
    counts: dict[int, int] = {}
    for _ in range(draws):
        f = sample_force_count(rng)
        counts[f] = counts.get(f, 0) + 1
    worst = 0.0
    checked = []
    for k in range(1, 8):
        expected = 2.0 ** -k
        got = counts.get(k, 0) / draws
        worst = max(worst, abs(got - expected))
        checked.append(f"P({k})={got:.4f}~{expected:.4f}")
    report(5, worst <= 0.01, f"{draws} draws, max bucket error {worst:.4f} "
           f"({'; '.join(checked[:3])})")


def test_criterion_6_cutting_counts():
    rng = random.Random(20260606)
    checks = 0
    for _ in range(60):
        n = rng.randrange(1, 60)
        g = er_graph(rng, n, rng.uniform(0.05, 0.4))
        fraction = rng.choice([0.0, 0.01, 0.1, 0.25, 0.5, 1.0])
        replay = g.copy()
        removed = cut_relative(g, fraction, random.Random(rng.randrange(10**9)))
        assert len(removed) == math.ceil(fraction * n)
        for v in removed:
            top = max(replay.live_degree[u] for u in replay.alive_vertices())
            assert replay.live_degree[v] == top, (v, replay.live_degree[v], top)
            replay.remove_vertex(v)
        checks += 1
    report(6, True, f"{checks} relative cuts: exact counts, max-degree replay clean")


def test_criterion_7_metrics_worked_examples():
    base = ConvergenceLog(instance="g")
    base.append(1.0, 10)
    other = ConvergenceLog(instance="g")
    other.append(5.0, 10)
    assert max_speedup(base, other) == 5.0
    never = ConvergenceLog(instance="g")
    never.append(2.0, 9)
    assert math.isinf(max_speedup(base, never))
    assert max_speedup(base, base) == 1.0

    log = ConvergenceLog()
    log.append(1.0, 5)
    log.append(3.0, 9)
    assert time_to_size(log, 9) == 3.0
    assert time_to_size(log, 10) is None
    assert time_to_size(log, 0) == 1.0

    rng = random.Random(20260707)
    for _ in range(100):
        points = []
        t, s = 0.0, 0
        for _ in range(rng.randrange(1, 9)):
            t += rng.uniform(0.01, 2.0)
            s += rng.randrange(1, 6)
            points.append((t, s))
        log = ConvergenceLog(instance="r")
        for t_, s_ in points:
            log.append(t_, s_)
        assert max_speedup(log, log) == 1.0
    report(7, True, "worked examples exact; self-speedup = 1 on 100 random logs")


def test_criterion_8_determinism(tmp_path):
    rng = random.Random(20260808)
    algos = ("onlinemis", "kermis", "arw")
    for case in range(20):
        g = er_graph(rng, rng.randrange(5, 30), rng.uniform(0.1, 0.4))
        graph_path = tmp_path / f"det{case}.metis"
        write_metis(g, graph_path)
        algo = algos[case % len(algos)]
        outputs = []
        for run in range(2):
            sol_path = tmp_path / f"det{case}_{run}.sol"
            log_path = tmp_path / f"det{case}_{run}.csv"
            code = main([
                "solve", "--algo", algo, "--graph", str(graph_path),
                "--seed", str(1000 + case), "--iterations", "60",
                "--solution", str(sol_path), "--log", str(log_path),
            ])
            assert code == 0
            outputs.append((sol_path.read_bytes(), log_path.read_bytes()))
        assert outputs[0] == outputs[1], f"instance {case} ({algo}) diverged"
    report(8, True, "20 instances re-run byte-identical (solution and log files)")


@pytest.mark.slow
def test_criterion_9_desk_scale_trend():
    seeds = (1, 2, 3, 4, 5)
    budget_seconds = 60.0
    wins = 0
    details = []
    gen = random.Random(20260909)
    graph = ba_graph(gen, 100_000, attach=(1, 2, 4, 8))
    for seed in seeds:
        log_online = ConvergenceLog(instance="pa100k", algorithm="onlinemis", seed=seed)
        online_mis(graph, 0.01, Budget(seconds=budget_seconds),
                   random.Random(seed), log_online)
        log_arw = ConvergenceLog(instance="pa100k", algorithm="arw", seed=seed)
        plain_arw(graph, Budget(seconds=budget_seconds),
                  random.Random(seed), log_arw)
        best = max(log_online.best_size(), log_arw.best_size())
        target = 0.995 * best
        t_online = time_to_size(log_online, target)
        t_arw = time_to_size(log_arw, target)
        t_online_v = math.inf if t_online is None else t_online
        t_arw_v = math.inf if t_arw is None else t_arw
        if t_online_v < t_arw_v:
            wins += 1
        details.append(f"seed {seed}: online {t_online_v:.2f}s vs arw {t_arw_v:.2f}s")
    report(9, wins >= 3, f"online faster to 99.5% on {wins}/5 seeds ({'; '.join(details)})")
