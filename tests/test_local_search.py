import math
import random

import pytest

from fastmis.graph import load
from fastmis.local_search import (
    Budget,
    PerturbationParams,
    Solution,
    find_one_two_swap,
    greedy_initial,
    local_search,
    perturb,
    run_iterated,
    sample_force_count,
)
from fastmis.metrics import ConvergenceLog
from fastmis.oracle import enumerate_swaps, exact_mis

from util import (
    ReferenceSolution,
    ba_graph,
    check_solution_state,
    complete_graph,
    cycle_graph,
    empty_graph,
    er_graph,
    gnm_graph,
    greedy_reference,
    is_independent,
    mesh_graph,
    path_graph,
    star_graph,
)


def build_solution(g, members, rng=None):
    sol = Solution(g, rng or random.Random(0))
    for v in sorted(members):
        sol.insert(v)
    return sol


# ----------------------------------------------------------------------
# greedy construction


def test_greedy_p3_picks_endpoints():
    for seed in range(6):
        sol = greedy_initial(path_graph(3), random.Random(seed))
        assert sol.vertices() == {0, 2}


def test_greedy_clique_size_one():
    sol = greedy_initial(complete_graph(4), random.Random(1))
    assert sol.size == 1


def test_greedy_empty_graph_takes_all():
    sol = greedy_initial(empty_graph(5), random.Random(2))
    assert sol.size == 5


def test_greedy_always_maximal_and_consistent():
    # the pass starts from an empty free set and must leave it exact
    rng = random.Random(10)
    for i in range(60):
        g = er_graph(rng, rng.randrange(1, 16), rng.uniform(0.05, 0.7))
        sol = greedy_initial(g, random.Random(rng.randrange(10**6)), online=i % 2 == 1)
        check_solution_state(sol)
        assert len(sol.free) == 0
        assert is_independent(g, sol.vertices())


def full_state(sol):
    """Everything the greedy pass writes, in the solution, the graph and
    the rng."""
    g = sol.graph
    return {
        "in_solution": sol.in_solution,
        "tightness": sol.tightness,
        "committed": sol.committed,
        "size": sol.size,
        "non_solution.items": sol.non_solution.items,
        "non_solution.pos": sol.non_solution.pos,
        "free.items": sol.free.items,
        "free.pos": sol.free.pos,
        "queue": list(sol._queue),
        "queued": sol._queued,
        "alive": g.alive,
        "live_degree": g.live_degree,
        "counted_dead": g._counted_dead,
        "rng": sol.rng.getstate(),
    }


@pytest.mark.parametrize("online", [False, True])
def test_greedy_matches_method_by_method_reference(online):
    # the inlined pass must leave the state the method-call pass leaves
    rng = random.Random(40 + online)
    commits = 0
    for trial in range(60):
        n = rng.randrange(1, 60)
        if trial % 2:
            g = ba_graph(rng, max(n, 2), attach=(1, 2, 3))
        else:
            g = er_graph(rng, n, rng.uniform(0.02, 0.3))
        for v in rng.sample(range(g.n), rng.randrange(g.n // 4 + 1)):
            g.remove_vertex(v)   # as a cut before the pass does
        seed = rng.randrange(10**9)
        got = greedy_initial(g.copy(), random.Random(seed), online=online)
        want = greedy_reference(g.copy(), random.Random(seed), online=online)
        assert full_state(got) == full_state(want), (trial, seed)
        commits += sum(got.committed)
    assert (commits > 0) == online


# ----------------------------------------------------------------------
# insert / remove


def test_insert_isolated_vertex():
    g = empty_graph(3)
    sol = Solution(g, random.Random(0))
    sol.insert(1)
    assert sol.size == 1
    assert all(t == 0 for t in sol.tightness)
    check_solution_state(sol)


def test_remove_updates_neighbor_tightness():
    g = star_graph(3)
    sol = build_solution(g, {0})
    assert [sol.tightness[v] for v in (1, 2, 3)] == [1, 1, 1]
    sol.remove(0)
    assert [sol.tightness[v] for v in (1, 2, 3)] == [0, 0, 0]
    check_solution_state(sol)


def test_insert_then_remove_round_trips():
    g = path_graph(4)
    sol = Solution(g, random.Random(0))
    before = (list(sol.tightness), sol.size, sol.vertices())
    sol.insert(1)
    sol.remove(1)
    assert (list(sol.tightness), sol.size, sol.vertices()) == before
    assert 1 in sol.free


def test_insert_preconditions():
    g = path_graph(2)
    sol = build_solution(g, {0})
    with pytest.raises(ValueError):
        sol.insert(0)  # already in
    with pytest.raises(ValueError):
        sol.insert(1)  # tight
    with pytest.raises(ValueError):
        sol.remove(1)  # not a member


def test_remove_committed_is_rejected():
    g = path_graph(2)
    sol = Solution(g, random.Random(0), online=True)
    sol.insert(0)  # degree-1: committed, neighborhood deleted
    assert sol.committed[0]
    assert not g.alive[0] and not g.alive[1]
    with pytest.raises(ValueError):
        sol.remove(0)


def test_online_commit_degree_two_triangle():
    g = complete_graph(3)
    sol = Solution(g, random.Random(0), online=True)
    sol.insert(0)
    assert sol.committed[0]
    assert g.alive_count() == 0
    assert sol.size == 1


def test_online_no_commit_for_open_pair():
    g = path_graph(3)
    sol = Solution(g, random.Random(0), online=True)
    sol.insert(1)  # neighbors 0 and 2 are not adjacent
    assert not sol.committed[1]
    assert g.alive_count() == 3


# ----------------------------------------------------------------------
# swaps


def test_swap_found_on_p5():
    g = path_graph(5)
    sol = build_solution(g, {0, 3})
    pair = find_one_two_swap(sol, 3)
    assert pair is not None and sorted(pair) == [2, 4]


def test_no_swap_at_two_tight_neighbors():
    # {v2, v4} on the 5-path: the middle vertex is 2-tight, nothing moves
    g = path_graph(5)
    sol = build_solution(g, {1, 3})
    assert find_one_two_swap(sol, 1) is None
    assert find_one_two_swap(sol, 3) is None
    assert enumerate_swaps(g, sol) == []


def test_no_swap_on_triangle():
    g = complete_graph(3)
    sol = build_solution(g, {0})
    assert find_one_two_swap(sol, 0) is None


def test_swap_on_star_center():
    g = star_graph(4)
    sol = build_solution(g, {0})
    pair = find_one_two_swap(sol, 0)
    assert pair is not None
    u, w = pair
    assert u != w and u in (1, 2, 3, 4) and w in (1, 2, 3, 4)


def test_swap_requires_membership():
    g = path_graph(3)
    sol = build_solution(g, {0})
    with pytest.raises(ValueError):
        find_one_two_swap(sol, 1)


def test_pair_cap_limits_examination():
    # neighbors 1..4 of the center: 1-2 adjacent, others free pairs
    g = star_graph(4)
    g.add_edge(1, 2)
    sol = build_solution(g, {0}, random.Random(0))
    exhaustive = find_one_two_swap(sol, 0, pair_cap=None)
    assert exhaustive is not None
    capped = find_one_two_swap(sol, 0, pair_cap=1)
    assert capped is None or not g.has_live_edge(*capped)


def test_local_search_p5_reaches_optimum():
    g = path_graph(5)
    sol = build_solution(g, {0, 3})
    swaps = local_search(sol, pair_cap=None)
    assert swaps == 1
    assert sol.size == 3
    assert sol.vertices() == {0, 2, 4}


def test_local_search_stalls_at_two_tight_local_optimum():
    g = path_graph(5)
    sol = build_solution(g, {1, 3})
    assert local_search(sol, pair_cap=None) == 0
    assert sol.size == 2


def test_local_search_clique_no_improvement():
    g = complete_graph(5)
    sol = build_solution(g, {2})
    assert local_search(sol, pair_cap=None) == 0


def test_local_search_never_decreases_and_clears_swaps():
    rng = random.Random(20)
    for _ in range(80):
        g = er_graph(rng, rng.randrange(1, 13), rng.uniform(0.05, 0.7))
        sol = greedy_initial(g, random.Random(rng.randrange(10**6)))
        before = sol.size
        local_search(sol, pair_cap=None)
        assert sol.size >= before
        check_solution_state(sol)
        assert enumerate_swaps(g, sol) == []


# ----------------------------------------------------------------------
# perturbation


def test_sample_force_count_at_least_one():
    rng = random.Random(5)
    assert all(sample_force_count(rng) >= 1 for _ in range(1000))


def test_sample_force_count_distribution_smoke():
    rng = random.Random(6)
    draws = [sample_force_count(rng) for _ in range(200_000)]
    freq1 = draws.count(1) / len(draws)
    freq2 = draws.count(2) / len(draws)
    assert abs(freq1 - 0.5) < 0.01
    assert abs(freq2 - 0.25) < 0.01


def test_perturb_force_isolated_gains():
    g = empty_graph(4)
    sol = build_solution(g, {0})
    perturb(sol, PerturbationParams(), random.Random(0))
    assert sol.size == 4  # maximalize soaks up the rest


def test_perturb_eviction_accounting():
    g = star_graph(3)
    sol = build_solution(g, {1, 2, 3})
    for y in [u for u in g.neighbors_live(0) if sol.in_solution[u]]:
        sol.remove(y)
    sol.insert(0)
    assert sol.size == 1  # 1 - 3 eviction delta before re-maximalize


def test_perturb_keeps_invariants():
    rng = random.Random(30)
    for _ in range(60):
        g = er_graph(rng, rng.randrange(2, 14), rng.uniform(0.05, 0.7))
        sol = greedy_initial(g, random.Random(rng.randrange(10**6)))
        for _ in range(20):
            perturb(sol, PerturbationParams(), rng)
        check_solution_state(sol)
        assert is_independent(g, sol.vertices())


def test_search_keeps_invariants_with_dead_vertices_and_commits():
    # vertices deleted before the solution is built, as cutting and
    # kernelization leave them, and online commits that delete more in
    # the middle of the search: dead entries stay in every adjacency list
    rng = random.Random(31)
    commits_during_search = 0
    for trial in range(80):
        g = er_graph(rng, rng.randrange(2, 16), rng.uniform(0.1, 0.6))
        original = g.copy()
        if trial % 4 != 3:
            for v in g.alive_vertices():
                if rng.random() < 0.25:
                    g.remove_vertex(v)
        online = trial % 2 == 1
        sol = greedy_initial(g, random.Random(rng.randrange(10**6)), online=online)
        check_solution_state(sol)
        for _ in range(20):
            committed = sum(sol.committed)
            perturb(sol, PerturbationParams(), rng)
            local_search(sol, pair_cap=None)
            commits_during_search += sum(sol.committed) - committed
            check_solution_state(sol)
            assert len(sol.free) == 0
            assert is_independent(original, sol.vertices())
    assert commits_during_search > 0


def search_state(sol):
    """Everything a search iteration writes: the greedy pass's fields,
    plus the eviction clock and the first-move map in insertion order."""
    state = full_state(sol)
    state["last_out"] = sol.last_out
    state["clock"] = sol.clock
    first_move = sol._first_move
    state["first_move"] = None if first_move is None else list(first_move.items())
    return state


@pytest.mark.parametrize("pair_cap", [None, 1])
@pytest.mark.parametrize("online", [False, True])
def test_search_matches_method_by_method_reference(online, pair_cap):
    # the inlined draws, set updates and queue pushes must leave, after
    # every iteration, the state the method-call search leaves
    rng = random.Random(50 + 2 * online + (pair_cap is None))
    commits = swaps = 0
    for trial in range(36):
        kind = trial % 3
        if kind == 0:
            g = er_graph(rng, rng.randrange(2, 60), rng.uniform(0.03, 0.3))
        elif kind == 1:
            g = ba_graph(rng, rng.randrange(2, 90), attach=(1, 2, 3))
        else:
            g = mesh_graph(rng, rng.randrange(2, 10))
        if trial % 4:
            for v in rng.sample(range(g.n), rng.randrange(g.n // 4 + 1)):
                g.remove_vertex(v)   # as a cut or a kernel leaves the graph
        params = PerturbationParams(candidate_pool=1 + trial % 4, pair_cap=pair_cap)
        sol = greedy_initial(g, random.Random(rng.randrange(10**9)), online=online)
        ref = ReferenceSolution.adopt(sol)
        assert search_state(sol) == search_state(ref)
        committed = sum(sol.committed)
        best = sol.size
        sol.mark_best()
        ref.mark_best()
        for iteration in range(30):
            if len(sol.non_solution) == 0:
                break
            perturb(sol, params, sol.rng)
            ref.perturb(params, ref.rng)
            got = local_search(sol, pair_cap)
            assert got == ref.local_search(pair_cap), (trial, iteration)
            swaps += got
            if sol.size > best:
                best = sol.size
                sol.mark_best()
                ref.mark_best()
            assert search_state(sol) == search_state(ref), (trial, iteration)
        assert sol.materialize_best() == ref.materialize_best()
        commits += sum(sol.committed) - committed
    assert swaps > 0
    assert (commits > 0) == online


def test_draws_wait_for_a_non_empty_range():
    # an inline draw over zero items would spin: perturb with nothing
    # outside the solution and maximalize with nothing free return
    # without touching the rng
    for online in (False, True):
        sol = greedy_initial(empty_graph(4), random.Random(3), online=online)
        assert len(sol.non_solution) == 0
        state = sol.rng.getstate()
        perturb(sol, PerturbationParams(), sol.rng)
        assert sol.maximalize() == 0
        assert sol.rng.getstate() == state
        assert sol.size == 4
    sol = greedy_initial(gnm_graph(random.Random(8), 30, 60), random.Random(8))
    assert len(sol.free) == 0 and len(sol.non_solution) > 0
    state = sol.rng.getstate()
    assert sol.maximalize() == 0
    assert sol.rng.getstate() == state


# ----------------------------------------------------------------------
# iterated runs


def test_budget_requires_a_limit():
    with pytest.raises(ValueError):
        Budget()


@pytest.mark.parametrize("limits", [
    {"seconds": math.nan},
    {"seconds": -3.0},
    {"iterations": -3},
    {"seconds": math.nan, "iterations": 5},
    {"seconds": 1.0, "iterations": -1},
])
def test_budget_rejects_nan_and_negative_limits(limits):
    # a NaN time limit never expires; negative limits stop before the
    # first iteration, which only hides the mistake
    with pytest.raises(ValueError, match="budget"):
        Budget(**limits)


def test_budget_accepts_infinite_seconds_and_zero_limits():
    assert Budget(seconds=math.inf, iterations=10).expired(10, 0.0)
    assert Budget(seconds=0.0).expired(0, 0.0)
    assert Budget(iterations=0).expired(0, 0.0)


def test_run_zero_budget_returns_input():
    g = path_graph(5)
    sol = build_solution(g, {1, 3})
    log = ConvergenceLog()
    rng = random.Random(0)
    best = run_iterated(g, sol, Budget(iterations=0), log, rng)
    assert best == {1, 3}
    assert log.points == [(0.0, 2)]


def test_run_p5_reaches_oracle():
    g = path_graph(5)
    rng = random.Random(1)
    sol = greedy_initial(g, rng)
    log = ConvergenceLog()
    best = run_iterated(g, sol, Budget(iterations=300), log, rng)
    assert len(best) == 3 == exact_mis(path_graph(5))[0]
    assert is_independent(path_graph(5), best)


def test_run_logs_strictly_increase():
    g = cycle_graph(9)
    rng = random.Random(2)
    sol = greedy_initial(g, rng)
    log = ConvergenceLog()
    best = run_iterated(g, sol, Budget(iterations=200), log, rng)
    sizes = [s for _, s in log.points]
    assert sizes == sorted(set(sizes))
    assert sizes[-1] == len(best)


def test_run_deterministic_under_iteration_budget():
    def once(seed):
        g = er_graph(random.Random(99), 14, 0.3)
        rng = random.Random(seed)
        sol = greedy_initial(g, rng)
        log = ConvergenceLog()
        best = run_iterated(g, sol, Budget(iterations=150), log, rng)
        return best, log.points

    assert once(7) == once(7)


def test_run_respects_target_size():
    g = empty_graph(6)
    rng = random.Random(3)
    sol = greedy_initial(g, rng)
    log = ConvergenceLog()
    best = run_iterated(g, sol, Budget(iterations=10**6, target_size=6), log, rng)
    assert len(best) == 6


def test_run_best_recovered_after_decline():
    rng = random.Random(47)
    for _ in range(30):
        g = er_graph(rng, 12, 0.35)
        run_rng = random.Random(rng.randrange(10**6))
        sol = greedy_initial(g, run_rng)
        log = ConvergenceLog()
        best = run_iterated(g, sol, Budget(iterations=120), log, run_rng)
        assert len(best) == log.points[-1][1]
        assert is_independent(g, best)


def run_watching_marks(g, seed, iterations, online=False):
    """run_iterated with mark_best wrapped: returns the result, the log,
    and the solution and its commit count at the last mark."""
    rng = random.Random(seed)
    sol = greedy_initial(g, rng, online=online)
    marks = [(sol.vertices(), sum(sol.committed))]
    real_mark_best = sol.mark_best

    def mark_best():
        real_mark_best()
        marks.append((sol.vertices(), sum(sol.committed)))

    sol.mark_best = mark_best
    log = ConvergenceLog()
    best = run_iterated(g, sol, Budget(iterations=iterations), log, rng)
    return sol, best, log, marks[-1]


def test_best_journal_stays_bounded():
    # the search stops improving early on a small mesh, so many moves
    # follow the last improvement; the result is still the set it marked
    g = mesh_graph(random.Random(100), 10)
    original = g.copy()
    _, best, log, (marked, _) = run_watching_marks(g, 5, 2000)
    assert log.points[-1][0] < 1000
    assert best == marked
    assert len(best) == log.points[-1][1]
    assert is_independent(original, best)
    # online: commits after the last improvement are undone too
    g = mesh_graph(random.Random(0), 10)
    original = g.copy()
    sol, best, log, (marked, commits) = run_watching_marks(g, 0, 500, online=True)
    assert sum(sol.committed) > commits
    assert best == marked
    assert len(best) == log.points[-1][1]
    assert is_independent(original, best)


def test_best_set_undoes_first_moves_since_mark():
    g = load([(0, 1)], 4)   # 2 and 3 are isolated
    sol = Solution(g, random.Random(0))
    sol.insert(1)
    sol.mark_best()
    sol.insert(2)        # in, out, in again: first move was in
    sol.remove(2)
    sol.insert(2)
    sol.remove(1)        # out, in, out: first move was out
    sol.insert(1)
    sol.remove(1)
    assert sol.vertices() == {2}
    assert sol.materialize_best() == {1}
    # a commit after the mark is undone like any insertion
    sol = Solution(g, random.Random(0), online=True)
    sol.insert(2)
    assert sol.committed[2]
    sol.mark_best()
    sol.insert(0)        # degree 1: committed, 1 leaves the graph
    assert sol.committed[0]
    assert sol.materialize_best() == {2}
    sol.mark_best()
    assert sol.materialize_best() == {0, 2}
