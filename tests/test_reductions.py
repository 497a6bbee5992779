import gc
import hashlib
import random

import pytest

from fastmis.graph import gc_paused, load
from fastmis.oracle import exact_mis
from fastmis import reductions
from fastmis.reductions import (
    ALL_RULES,
    FIXPOINT_RULES,
    KERMIS_RULES,
    RULE_ORDER,
    ConstraintStore,
    Fold,
    ReductionStack,
    TwinGadget,
    _apply_four_cycles,
    _include_vertex,
    _is_unconfined,
    kernelize,
    lift_solution,
    lp_relaxation_values,
    reduce_alternative,
    reduce_fold,
    reduce_isolated,
    reduce_lp,
    reduce_packing_k0,
    reduce_pendant,
    reduce_twin,
    reduce_unconfined,
)

from util import (
    ba_graph,
    brute_lp_optima,
    brute_mis_size,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    double_cover_matching_size,
    empty_graph,
    entry_repr,
    er_graph,
    gnm_graph,
    is_independent,
    isolated_reference,
    mesh_graph,
    path_graph,
    pendant_reference,
    petersen_graph,
    random_tree,
    star_graph,
    store_state,
    taken_in_log,
    unconfined_reference,
)


def lifted_optimum(g, rules):
    """Kernelize a copy, solve the kernel exactly, lift, return the set."""
    original = g.copy()
    work = g.copy()
    result = kernelize(work, rules=rules)
    _, witness = exact_mis(work)
    lifted = lift_solution(result.stack, witness)
    assert is_independent(original, lifted)
    assert max(lifted, default=-1) < original.n
    return lifted


# ----------------------------------------------------------------------
# pendant


def test_pendant_single_edge():
    g = path_graph(2)
    stack = ReductionStack(g)
    assert reduce_pendant(g, stack) == 1
    assert g.alive_count() == 0
    lifted = lift_solution(stack, set())
    assert len(lifted) == 1 and lifted <= {0, 1}


def test_pendant_cascade_p4():
    g = path_graph(4)
    stack = ReductionStack(g)
    reduce_pendant(g, stack)
    assert g.alive_count() == 0
    assert len(lift_solution(stack, set())) == 2 == brute_mis_size(path_graph(4))


def test_pendant_no_op_on_cycle():
    g = cycle_graph(4)
    stack = ReductionStack(g)
    assert reduce_pendant(g, stack) == 0
    assert g.alive_count() == 4


def reference_graphs(seed):
    """Trees and hub graphs cascade; small G(n, p) graphs hold cliques of
    three and four; the partly folded G(n, m) carries dead ids and fresh
    fold ids in the adjacency lists a rule walks."""
    rng = random.Random(seed)
    graphs = [random_tree(rng, rng.randrange(2, 300)) for _ in range(8)]
    graphs += [ba_graph(random.Random(seed + i), 600, attach=(1, 2, 4, 8))
               for i in (1, 2, 3)]
    graphs += [er_graph(rng, 60, 0.1) for _ in range(3)]
    for i in (4, 5):
        g = gnm_graph(random.Random(seed + i), 300, 600)
        kernelize(g, rules={"fold"})
        assert g.next_id > g.n and g.alive_count() < g.n
        graphs.append(g)
    return graphs


def assert_rule_matches_reference(rule, reference, graphs):
    """Run ``rule`` and ``reference`` on equal copies of each graph and
    stack, and compare the counts, undo logs, offsets, flags and live
    degrees. Returns the fires."""
    fired = 0
    for g in graphs:
        ref = g.copy()
        stack, ref_stack = ReductionStack(g), ReductionStack(ref)
        count = rule(g, stack)
        assert count == reference(ref, ref_stack)
        assert repr(stack.entries) == repr(ref_stack.entries)
        assert stack.offset == ref_stack.offset
        assert g.alive == ref.alive
        assert g.live_degree == ref.live_degree
        g.validate()
        fired += count
    return fired


def test_pendant_matches_copying_reference():
    fired = assert_rule_matches_reference(reduce_pendant, pendant_reference,
                                          reference_graphs(71))
    assert fired > 500


# ----------------------------------------------------------------------
# isolated / simplicial


def test_isolated_clique_of_five():
    # one K5: any member is simplicial; one inclusion clears the clique
    g = complete_graph(5)
    stack = ReductionStack(g)
    assert reduce_isolated(g, stack) == 1
    assert g.alive_count() == 0
    assert len(lift_solution(stack, set())) == 1 == brute_mis_size(complete_graph(5))


def test_isolated_takes_degree_zero():
    g = empty_graph(1)
    stack = ReductionStack(g)
    assert reduce_isolated(g, stack) == 1
    assert lift_solution(stack, set()) == {0}


def test_isolated_skips_open_degree_two_center():
    # C4: every vertex has two non-adjacent neighbors, nothing fires
    g = cycle_graph(4)
    stack = ReductionStack(g)
    assert reduce_isolated(g, stack) == 0


def test_isolated_p3_center_not_simplicial():
    g = path_graph(3)
    assert not g.is_simplicial(1)
    assert g.is_simplicial(0)


def test_isolated_matches_copying_reference():
    fired = assert_rule_matches_reference(reduce_isolated, isolated_reference,
                                          reference_graphs(91))
    assert fired > 1000


def test_include_fires_allocate_no_tracked_object():
    # an include is logged as the bare id, which the cyclic collector
    # does not track; a record object per fire would add one each
    g = ba_graph(random.Random(3000), 3000, attach=(1, 2))
    stack = ReductionStack(g)

    @gc_paused
    def fire():
        before = len(gc.get_objects())
        fired = reduce_pendant(g, stack) + reduce_isolated(g, stack)
        return fired, len(gc.get_objects()) - before

    fired, rise = fire()
    assert fired > 1000
    assert rise < 20, (rise, fired)


def test_isolated_respects_degree_bound():
    # the paper's online check takes simplicial vertices of degree at
    # most 2; the kernelization rule takes them at any degree
    g = complete_graph(4)  # simplicial at degree 3
    assert not (g.live_degree[0] <= 2 and g.is_simplicial(0))
    stack = ReductionStack(g)
    assert reduce_isolated(g, stack) == 1
    assert g.alive_count() == 0


# ----------------------------------------------------------------------
# fold


def test_fold_p3_lifts_both_endpoints():
    g = path_graph(3)
    stack = ReductionStack(g)
    assert reduce_fold(g, stack) == 1
    [merged] = g.alive_vertices()
    lifted = lift_solution(stack, {merged})
    assert lifted == {0, 2}
    assert lift_solution(stack, set()) == {1}


def test_fold_chain_c5():
    g = cycle_graph(5)
    lifted = lifted_optimum(g, {"fold", "pendant", "isolated"})
    assert len(lifted) == 2 == brute_mis_size(cycle_graph(5))


def test_fold_c4_collapses_parallel_edges():
    g = cycle_graph(4)
    lifted = lifted_optimum(g, {"fold", "pendant", "isolated"})
    assert len(lifted) == 2


# ----------------------------------------------------------------------
# linear relaxation


def test_lp_single_edge_fixed_by_rounding():
    g = path_graph(2)
    values = sorted(lp_relaxation_values(g).values())
    assert values == [0.0, 1.0]
    stack = ReductionStack(g)
    assert reduce_lp(g, stack) == 2
    assert g.alive_count() == 0
    assert len(lift_solution(stack, set())) == 1


def test_lp_star_fixes_everything():
    g = star_graph(3)
    stack = ReductionStack(g)
    assert reduce_lp(g, stack) == 4   # three leaves, and the center with the first
    assert g.alive_count() == 0
    assert all(type(e) is int for e in stack.entries)
    assert sorted(stack.entries) == [1, 2, 3]
    assert lift_solution(stack, set()) == {1, 2, 3}


def test_lp_empty_graph_includes_all():
    g = empty_graph(4)
    stack = ReductionStack(g)
    reduce_lp(g, stack)
    assert lift_solution(stack, set()) == {0, 1, 2, 3}


def test_lp_odd_cycle_unmoved_even_with_rounding():
    g = cycle_graph(5)
    values = lp_relaxation_values(g)
    assert set(values.values()) == {0.5}


def test_lp_values_match_enumerated_optimum():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randrange(1, 9)
        g = er_graph(rng, n, rng.uniform(0.1, 0.8))
        best_value, optima = brute_lp_optima(g)
        min_half = min(sum(1 for x in sol.values() if x == 0.5) for sol in optima)
        values = lp_relaxation_values(g)
        assert abs(sum(values.values()) - best_value) < 1e-9
        for u, v in g.edges():
            assert values[u] + values[v] <= 1.0 + 1e-9
        assert sum(1 for x in values.values() if x == 0.5) == min_half


@pytest.mark.parametrize("build", [
    lambda: gnm_graph(random.Random(2000), 2000, 6000),
    lambda: mesh_graph(random.Random(40), 40),
], ids=["gnm2000", "mesh40"])
def test_lp_values_certified_by_matching_at_scale(build):
    # LP duality on the double cover: the relaxation's optimum is
    # k - nu/2 for k vertices and a maximum matching of size nu
    g = build()
    values = lp_relaxation_values(g)
    nu = double_cover_matching_size(g)
    assert sum(values.values()) == g.alive_count() - nu / 2
    for v, x in values.items():
        if x == 1.0:
            assert all(values[u] == 0.0 for u in g.neighbors_live(v)), v


def test_lp_leaves_only_halves():
    # Nemhauser-Trotter: once the integral part of the optimum with the
    # fewest halves is removed, the rest has the all-1/2 point as its only
    # optimum, which is why kernelize never reruns a settled LP rule
    rng = random.Random(19)
    graphs = [gnm_graph(rng, n, rng.randrange(n, 3 * n))
              for n in (20, 50, 120, 300, 600)]
    graphs += [ba_graph(random.Random(seed), 400, attach=(1, 2, 4))
               for seed in (20, 21)]
    graphs += [mesh_graph(random.Random(22), 20)]
    for seed in (23, 24):   # partly reduced: fold vertices, dead ids
        g = gnm_graph(random.Random(seed), 300, 700)
        kernelize(g, rules={"pendant", "fold"})
        graphs.append(g)
    fired = 0
    for g in graphs:
        fired += reduce_lp(g, ReductionStack(g))
        assert set(lp_relaxation_values(g).values()) <= {0.5}
    assert fired > 100


def test_one_component_check_matches_tarjan(monkeypatch):
    # the one-component shortcut and Tarjan must round the middle alike
    taken = {True: 0, False: 0}
    check = reductions._one_component

    def recorded(*args):
        result = check(*args)
        taken[result] += 1
        return result

    rng = random.Random(29)
    graphs = [er_graph(rng, rng.randrange(2, 60), rng.uniform(0.02, 0.3))
              for _ in range(150)]
    graphs += [gnm_graph(rng, 400, 900), mesh_graph(rng, 15),
               ba_graph(rng, 300, attach=(1, 2, 4))]
    for g in graphs:
        monkeypatch.setattr(reductions, "_one_component", recorded)
        values = lp_relaxation_values(g)
        monkeypatch.setattr(reductions, "_one_component", lambda *args: False)
        assert lp_relaxation_values(g) == values
    assert taken[True] > 20 and taken[False] > 20


# ----------------------------------------------------------------------
# unconfined


def test_unconfined_single_edge():
    g = path_graph(2)
    stack = ReductionStack(g)
    assert reduce_unconfined(g, stack) == 1
    assert not g.alive[0] and g.alive[1]


def test_unconfined_isolated_vertex_stays():
    g = empty_graph(1)
    stack = ReductionStack(g)
    assert reduce_unconfined(g, stack) == 0
    assert g.alive[0]


def test_unconfined_triangle_with_pendant():
    # triangle 0-1-2 plus pendant 3 on 0
    g = load([(0, 1), (1, 2), (0, 2), (0, 3)], 4)
    stack = ReductionStack(g)
    count = reduce_unconfined(g, stack)
    assert count >= 1
    survivors = g.alive_vertices()
    opt = brute_mis_size(load([(0, 1), (1, 2), (0, 2), (0, 3)], 4))
    _, witness = exact_mis(g)
    assert len(lift_solution(stack, witness)) == opt == 2
    assert survivors  # never empties the graph by exclusions alone


def test_unconfined_never_lowers_optimum():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randrange(1, 9)
        g = er_graph(rng, n, rng.uniform(0.1, 0.8))
        opt = brute_mis_size(g)
        stack = ReductionStack(g)
        reduce_unconfined(g, stack)
        _, witness = exact_mis(g)
        assert len(lift_solution(stack, witness)) == opt


def with_twin_patterns(g, anchors):
    """``g`` plus, per anchor triple (p, q, r), degree-3 twins u, v over
    an independent {x, y, z} whose outside contacts are p, q, r; the
    twin rule replaces the five by a gadget adjacent to p, q, r."""
    edges = g.edges()
    n = g.n
    for p, q, r in anchors:
        u, v, x, y, z = range(n, n + 5)
        edges += [(u, x), (u, y), (u, z), (v, x), (v, y), (v, z),
                  (x, p), (y, q), (z, r)]
        n += 5
    return load(edges, n)


def test_unconfined_scan_matches_set_based_reference():
    # graphs that already carry dead vertices, folded vertices and twin
    # gadgets, so the scan meets dead entries and late ids in every list
    mesh = mesh_graph(random.Random(100), 30)
    rows = range(5, 30, 4)
    mesh = with_twin_patterns(mesh, [(30 * i + 5, 30 * i + 15, 30 * i + 25) for i in rows])
    gnm = gnm_graph(random.Random(300), 300, 600)
    gadgets = folded = 0
    for g in (mesh, gnm):
        n = g.n
        result = kernelize(g, rules={"pendant", "fold", "twin"})
        assert g.alive_count() < n
        folded += sum(1 for e in result.stack.entries
                      if isinstance(e, Fold) and g.alive[e.merged])
        gadgets += sum(1 for e in result.stack.entries
                       if isinstance(e, TwinGadget) and g.alive[e.gadget])
        for v in g.alive_vertices():
            assert _is_unconfined(g, v) == unconfined_reference(g, v), v
    assert folded > 0 and gadgets > 0


# ----------------------------------------------------------------------
# twin


def test_twin_gadget_case_k33():
    g = complete_bipartite(3, 3)
    stack = ReductionStack(g)
    assert reduce_twin(g, stack) == 1
    _, witness = exact_mis(g)
    lifted = lift_solution(stack, witness)
    assert len(lifted) == 3 == brute_mis_size(complete_bipartite(3, 3))
    assert is_independent(complete_bipartite(3, 3), lifted)


def test_twin_with_inner_edge_takes_both():
    edges = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)]
    g = load(edges, 5)
    stack = ReductionStack(g)
    assert reduce_twin(g, stack) == 1
    assert g.alive_count() == 0
    assert lift_solution(stack, set()) == {0, 1}
    assert brute_mis_size(load(edges, 5)) == 2


def test_twin_absent():
    g = cycle_graph(6)
    stack = ReductionStack(g)
    assert reduce_twin(g, stack) == 0


# ----------------------------------------------------------------------
# alternative (funnel + four-cycle)


def test_funnel_witness_graph():
    # v=1 with neighbors {0, 2, 3}, edge 2-3, plus an outside contact 4 of 0
    edges = [(1, 0), (1, 2), (1, 3), (2, 3), (0, 4)]
    g = load(edges, 5)
    stack = ReductionStack(g)
    assert reduce_alternative(g, stack) >= 1
    _, witness = exact_mis(g)
    lifted = lift_solution(stack, witness)
    assert len(lifted) == brute_mis_size(load(edges, 5)) == 2
    assert is_independent(load(edges, 5), lifted)


def test_four_cycle_rule_needs_degree_three():
    g = cycle_graph(4)
    stack = ReductionStack(g)
    assert _apply_four_cycles(g, stack) == 0
    assert g.alive_count() == 4


def test_alternative_preserves_optimum_on_randoms():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randrange(1, 9)
        g = er_graph(rng, n, rng.uniform(0.1, 0.8))
        opt = brute_mis_size(g)
        stack = ReductionStack(g)
        reduce_alternative(g, stack)
        _, witness = exact_mis(g)
        assert len(lift_solution(stack, witness)) == opt


# ----------------------------------------------------------------------
# packing


def test_packing_zero_bound_fires():
    # an exclusion leaves {0} of {0, 1}, so none may stay out: 0 joins,
    # and its neighbor 2 drops
    g = load([(0, 2), (1, 2), (1, 3)], 4)
    stack = ReductionStack(g)
    store = stack.constraints
    store.add_neighbor_constraint([0, 1])
    g.remove_vertex(1)
    assert reduce_packing_k0(g, stack) == 1
    assert g.alive_vertices() == [3]
    assert lift_solution(stack, {3}) == {0, 3}
    assert store.constraints == [set()]


def test_packing_positive_bound_no_action():
    # two members left: one may stay out
    g = load([(0, 2), (1, 2)], 3)
    stack = ReductionStack(g)
    stack.constraints.add_neighbor_constraint([0, 1])
    assert reduce_packing_k0(g, stack) == 0
    assert g.alive_count() == 3


def test_packing_counts_only_real_fires():
    # on K3 the unconfined rule excludes 0, then 1; settled, both sets
    # are {2}, and the first fire takes 2, so the second takes nothing
    g = complete_graph(3)
    stack = ReductionStack(g)
    assert reduce_unconfined(g, stack) == 2
    assert stack.constraints.constraints == [{1, 2}, {2}]
    assert reduce_packing_k0(g, stack) == 1
    assert stack.offset == 1 and g.alive_count() == 0
    assert stack.constraints.constraints == [set(), set()]


def test_packing_maintenance_via_exclusions():
    # an exclusion leaves no log entry: the settle drops the dead members
    store = ConstraintStore()
    store.add_neighbor_constraint([0, 1, 2])
    store.settle([], [False, False, True])
    assert store.constraints == [{2}]


def test_packing_include_empties_a_constraint():
    # P4: taking 0 satisfies {0, 2}; dropping its neighbor 1 shrinks
    # {1, 3}; the store learns both at the settle, not before
    g = path_graph(4)
    stack = ReductionStack(g)
    store = stack.constraints
    store.add_neighbor_constraint([0, 2])
    store.add_neighbor_constraint([1, 3])
    _include_vertex(g, stack, 0)
    assert store.constraints == [{0, 2}, {1, 3}]
    store.settle(stack.entries, g.alive)
    assert store.constraints == [set(), {3}]
    assert store.cursor == 1


def test_packing_opaque_retires():
    # folding P3 takes all three vertices; the undo may put 0 back or not
    g = path_graph(3)
    stack = ReductionStack(g)
    store = stack.constraints
    store.add_neighbor_constraint([0, 2])
    assert reduce_fold(g, stack) == 1
    store.settle(stack.entries, g.alive)
    assert store.constraints == [set()]


@pytest.mark.parametrize("rule,edges,n,left", [
    # two funnels take 1 and 0, then 3 and 2; the second drops 4
    (reduce_alternative, [(1, 0), (1, 2), (1, 3), (2, 3), (0, 4)], 5,
     [[], [], [], [], [5]]),
    # the twins 0 and 1 over the independent {3, 4, 5} become a gadget
    (reduce_twin, complete_bipartite(3, 3).edges(), 6,
     [[], [], [2, 6], [], [], []]),
], ids=["alternative", "twin"])
def test_settle_empties_the_sets_of_taken_vertices(rule, edges, n, left):
    # the set {x, n} per vertex x < n, where n stays isolated and alive
    g = load(edges, n + 1)
    stack = ReductionStack(g)
    store = stack.constraints
    for x in range(n):
        store.add_neighbor_constraint([x, n])
    assert rule(g, stack) > 0
    store.settle(stack.entries, g.alive)
    assert store_state(store) == left


def test_packing_enabled_sweep_preserves_optimum():
    rng = random.Random(41)
    for _ in range(200):
        n = rng.randrange(1, 9)
        g = er_graph(rng, n, rng.uniform(0.1, 0.8))
        opt = brute_mis_size(g)
        lifted = lifted_optimum(g, ALL_RULES)
        assert len(lifted) == opt


# ----------------------------------------------------------------------
# kernelize + lift


def test_kernelize_tree_empties():
    rng = random.Random(7)
    for _ in range(25):
        g = random_tree(rng, rng.randrange(2, 21))
        opt = exact_mis(g.copy())[0]
        work = g.copy()
        result = kernelize(work, rules=ALL_RULES)
        assert result.reduced_n == 0
        lifted = lift_solution(result.stack, set())
        assert len(lifted) == opt
        assert is_independent(g, lifted)


def test_kernelize_c5_both_rule_sets():
    for rules in (ALL_RULES, KERMIS_RULES):
        g = cycle_graph(5)
        result = kernelize(g, rules=rules)
        assert result.reduced_n == 0
        assert len(lift_solution(result.stack, set())) == 2


def test_kernelize_k4_isolated_enabled():
    g = complete_graph(4)
    result = kernelize(g, rules=ALL_RULES)
    assert result.per_rule_counts["isolated"] >= 1
    assert result.reduced_n == 0
    assert len(lift_solution(result.stack, set())) == 1


def test_kernelize_fixpoint():
    rng = random.Random(53)
    for _ in range(40):
        g = er_graph(rng, rng.randrange(1, 14), rng.uniform(0.1, 0.6))
        kernelize(g, rules=ALL_RULES)
        again = kernelize(g, rules=ALL_RULES)
        assert sum(again.per_rule_counts.values()) == 0


RULE_FUNCTIONS = {
    "pendant": reduce_pendant,
    "isolated": reduce_isolated,
    "fold": reduce_fold,
    "lp": reduce_lp,
    "unconfined": reduce_unconfined,
    "twin": reduce_twin,
    "alternative": reduce_alternative,
    "packing": reduce_packing_k0,
}


def test_fixpoint_rules_find_nothing_when_rerun():
    # kernelize skips a settled rule on the promise that an immediate
    # rerun returns 0 and changes nothing; random rule sequences reach
    # states with folded vertices and live packing constraints
    rng = random.Random(31)
    graphs = [er_graph(rng, rng.randrange(2, 40), rng.uniform(0.05, 0.4))
              for _ in range(300)]
    graphs += [ba_graph(random.Random(seed), 300, attach=(1, 2, 4))
               for seed in (32, 33)]
    graphs += [mesh_graph(random.Random(seed), 12) for seed in (34, 35)]
    fired = {name: 0 for name in RULE_ORDER}
    constraints = 0
    for g in graphs:
        stack = ReductionStack(g)
        for _ in range(12):
            name = rng.choice(RULE_ORDER)
            fired[name] += RULE_FUNCTIONS[name](g, stack)
            if name in FIXPOINT_RULES:
                entries, alive = len(stack.entries), g.alive[:]
                assert RULE_FUNCTIONS[name](g, stack) == 0, name
                assert (len(stack.entries), g.alive) == (entries, alive)
        constraints += len(stack.constraints.constraints)
    assert all(fired[name] > 0 for name in FIXPOINT_RULES), fired
    assert constraints > 100


# Recorded before packing constraints became plain member sets. The
# golden kernels never see packing fire; random rule sequences on small
# G(n, p) graphs do, after unconfined exclusions. The digest hashes the
# offset after every step and the final undo log, in the form it was
# recorded in (``entry_repr``), and alive flags, but not the counts the
# rules return.
GOLDEN_PACKING_DIGEST = "3dc54a805ac0577d"


def test_packing_sequences_golden():
    rng = random.Random(1)
    h = hashlib.sha256()
    packing_fires = 0
    for _ in range(3000):
        g = er_graph(rng, rng.randrange(2, 30), rng.uniform(0.05, 0.5))
        stack = ReductionStack(g)
        for _ in range(8):
            name = rng.choice(RULE_ORDER)
            before = len(stack.entries)
            RULE_FUNCTIONS[name](g, stack)
            if name == "packing":
                packing_fires += len(stack.entries) > before
            h.update(f"{name} {stack.offset}\n".encode())
        h.update(f"[{', '.join(map(entry_repr, stack.entries))}]".encode())
        h.update(repr(g.alive).encode())
    assert packing_fires > 100
    assert h.hexdigest()[:16] == GOLDEN_PACKING_DIGEST


def test_settle_matches_a_recount_of_the_whole_log():
    # after every packing call, a set is empty if the log took any of
    # the members it was made with, and otherwise holds those still
    # alive; sets are copied as the unconfined rule makes them
    rng = random.Random(7)
    graphs = [er_graph(rng, rng.randrange(2, 30), rng.uniform(0.05, 0.5))
              for _ in range(600)]
    graphs += [mesh_graph(random.Random(seed), 12) for seed in (8, 9, 10)]
    graphs += [ba_graph(random.Random(seed), 300, attach=(1, 2, 4))
               for seed in (11, 12, 13)]
    emptied = shrunk = 0
    for g in graphs:
        stack = ReductionStack(g)
        store = stack.constraints
        made: list[set[int]] = []
        for _ in range(10):
            name = rng.choice(RULE_ORDER)
            RULE_FUNCTIONS[name](g, stack)
            made += [set(c) for c in store.constraints[len(made):]]
            if name != "packing":
                continue
            taken = taken_in_log(stack.entries)
            expected = [[] if members & taken else sorted(v for v in members if g.alive[v])
                        for members in made]
            assert store_state(store) == expected
            emptied += sum(1 for members in made if members & taken)
            shrunk += sum(1 for members, now in zip(made, expected)
                          if now and len(now) < len(members))
    assert emptied > 200 and shrunk > 50, (emptied, shrunk)


def test_kernelize_runs_settled_lp_once(monkeypatch):
    # K(3,5) leaves to LP alone, which takes its larger side; the Petersen
    # graph is reduced by no KERMIS rule, so nothing fires after LP
    edges = [(a, b) for a in range(3) for b in range(3, 8)]
    edges += [(8 + u, 8 + v) for u, v in petersen_graph().edges()]
    g = load(edges, 18)
    calls = []

    def counted(g, stack):
        calls.append(g.alive_count())
        return reduce_lp(g, stack)

    monkeypatch.setattr(reductions, "reduce_lp", counted)
    result = kernelize(g, rules=KERMIS_RULES)
    assert result.per_rule_counts == {name: 8 if name == "lp" else 0
                                      for name in KERMIS_RULES}
    assert calls == [18]
    assert result.reduced_n == 10


@pytest.mark.parametrize("rules", [ALL_RULES, KERMIS_RULES], ids=["all", "kermis"])
def test_kernelize_stops_once_the_graph_is_empty(monkeypatch, rules):
    # kernelize looks the rule functions up at call time, so wrappers see
    # every call it makes
    calls = []
    for name, rule in RULE_FUNCTIONS.items():
        def recorded(g, stack, name=name, rule=rule):
            calls.append((name, g.alive_count()))
            return rule(g, stack)
        monkeypatch.setattr(reductions, rule.__name__, recorded)
    rng = random.Random(121)
    graphs = [random_tree(rng, rng.randrange(1, 200)) for _ in range(6)]
    graphs += [ba_graph(random.Random(seed), n, attach=(1, 2, 4, 8))
               for n in (40, 80, 150) for seed in (1, 2, 3, 4)]
    with_constraints = 0
    for g in graphs:
        calls.clear()
        result = kernelize(g, rules=rules)
        assert result.reduced_n == 0
        assert calls and all(alive for _, alive in calls), calls
        # each rule finds nothing on the emptied graph and leaves the
        # undo log, the offset and the alive flags as they are
        stack = result.stack
        state = (repr(stack.entries), stack.offset, g.alive[:])
        for name, rule in RULE_FUNCTIONS.items():
            assert rule(g, stack) == 0, name
            assert (repr(stack.entries), stack.offset, g.alive) == state, name
        # no member is alive, so a settle empties every set
        stack.constraints.settle(stack.entries, g.alive)
        assert not any(stack.constraints.constraints)
        with_constraints += bool(stack.constraints.constraints)
    assert with_constraints >= 2   # unconfined fired, so the packing check has constraints


def test_kernelize_rejects_unknown_rule():
    with pytest.raises(ValueError):
        kernelize(empty_graph(1), rules={"pendant", "mystery"})


def test_kernelize_deterministic():
    rng = random.Random(59)
    for _ in range(20):
        g = er_graph(rng, 12, 0.3)
        r1 = kernelize(g.copy(), rules=ALL_RULES)
        r2 = kernelize(g.copy(), rules=ALL_RULES)
        assert r1.per_rule_counts == r2.per_rule_counts
        assert r1.stack.entries == r2.stack.entries
        assert lift_solution(r1.stack, set()) == lift_solution(r2.stack, set())


def test_lift_include_only_stack_unions():
    g = empty_graph(3)
    stack = ReductionStack(g)
    stack.push_include(0)
    g.remove_vertex(0)
    assert lift_solution(stack, {2}) == {0, 2}


def test_lift_mixed_log_resolves_an_include_of_a_merged_vertex():
    # the fold leaves its merged vertex isolated, and the simplicial rule
    # then takes it: replayed newest-first, the bare-id include puts the
    # merged vertex in, and the older Fold record trades it for both ends
    g = path_graph(3)
    stack = ReductionStack(g)
    assert reduce_fold(g, stack) == 1
    [merged] = g.alive_vertices()
    assert reduce_isolated(g, stack) == 1
    assert stack.entries == [Fold(merged, 0, 1, 2), merged]
    assert stack.offset == 2
    assert lift_solution(stack, set()) == {0, 2}


def test_lift_rejects_dependent_solution():
    g = path_graph(3)
    stack = ReductionStack(g)
    with pytest.raises(ValueError, match=r"^solution is not independent: edge \(0, 1\)$"):
        lift_solution(stack, {0, 1})
    # members are walked in ascending order here; 1's list opens with the
    # dead vertex 0, and 2 is its first neighbor in the solution
    g = path_graph(4)
    stack = ReductionStack(g)
    g.remove_vertex(0)
    with pytest.raises(ValueError, match=r"^solution is not independent: edge \(1, 2\)$"):
        lift_solution(stack, {1, 2, 3})


def test_lift_rejects_dead_vertices():
    g = path_graph(3)
    stack = ReductionStack(g)
    g.remove_vertex(0)
    with pytest.raises(ValueError,
                       match=r"^solution vertex 0 is not alive in the reduced graph$"):
        lift_solution(stack, {0})
    # negative ids would otherwise index alive[] from the end
    with pytest.raises(ValueError):
        lift_solution(ReductionStack(path_graph(3)), {-1})
    with pytest.raises(ValueError):
        lift_solution(ReductionStack(path_graph(4)), {-4, 2})


def test_lift_size_matches_offset_plus_kernel():
    rng = random.Random(61)
    for _ in range(150):
        n = rng.randrange(1, 15)
        g = er_graph(rng, n, rng.uniform(0.1, 0.7))
        work = g.copy()
        result = kernelize(work, rules=ALL_RULES)
        _, witness = exact_mis(work)
        lifted = lift_solution(result.stack, witness)
        assert len(lifted) == len(witness) + result.stack.offset


def test_kernelize_full_rule_set_exact_on_randoms():
    rng = random.Random(67)
    for _ in range(150):
        n = rng.randrange(0, 15)
        g = er_graph(rng, n, rng.uniform(0.05, 0.8))
        opt = brute_mis_size(g)
        lifted = lifted_optimum(g, ALL_RULES)
        assert len(lifted) == opt
        lifted = lifted_optimum(g, KERMIS_RULES)
        assert len(lifted) == opt


# Kernels recorded before the rules shared one state and one commit
# path; any change to a rule's behaviour shows up here first. The
# digests hash the undo log, the kernel's alive set and its edge list
# (recorded before the rule scans were rewritten; the ba2000 cases before
# the pendant rule walked adjacency lists in place; each entry in the
# form it was recorded in, ``entry_repr``), so a rule that takes other
# vertices, even as many of them, fails here too.
GOLDEN_KERNELS = [
    ("mesh30", "all", {"pendant": 1, "isolated": 5, "fold": 40, "lp": 0,
                       "unconfined": 51, "twin": 0, "alternative": 22,
                       "packing": 0}, 717, 1739, 68),
    ("mesh30", "kermis", {"pendant": 1, "fold": 40, "lp": 5, "unconfined": 51,
                          "twin": 0, "alternative": 22, "packing": 0},
     717, 1739, 68),
    ("gnm300", "all", {"pendant": 23, "isolated": 10, "fold": 58, "lp": 0,
                       "unconfined": 6, "twin": 0, "alternative": 11,
                       "packing": 0}, 89, 193, 102),
    ("gnm300", "kermis", {"pendant": 23, "fold": 60, "lp": 8, "unconfined": 15,
                          "twin": 0, "alternative": 11, "packing": 0},
     89, 193, 102),
    # a hub graph on which the pendant rule fires hundreds of times
    ("ba2000", "all", {"pendant": 816, "isolated": 196, "fold": 68, "lp": 0,
                       "unconfined": 0, "twin": 0, "alternative": 0,
                       "packing": 0}, 0, 0, 1080),
    ("ba2000", "kermis", {"pendant": 816, "fold": 87, "lp": 184, "unconfined": 10,
                          "twin": 0, "alternative": 0, "packing": 0},
     0, 0, 1080),
]
GOLDEN_DIGESTS = {
    ("mesh30", "all"): "4acabd38eec32fe8",
    ("mesh30", "kermis"): "4021a8f82ae619c7",
    ("gnm300", "all"): "c707ec75708d60c1",
    ("gnm300", "kermis"): "c01fcae9229472d5",
    ("ba2000", "all"): "0b625583ea2e362f",
    ("ba2000", "kermis"): "33e9e00fe304f955",
}


def kernel_digest(g, result) -> str:
    h = hashlib.sha256()
    for entry in result.stack.entries:
        h.update(entry_repr(entry).encode())
        h.update(b"\n")
    h.update(repr(g.alive_vertices()).encode())
    h.update(repr(g.edges()).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("graph,rules,counts,n,m,offset", GOLDEN_KERNELS)
def test_kernelize_golden(graph, rules, counts, n, m, offset):
    if graph == "mesh30":
        g = mesh_graph(random.Random(100), 30)
    elif graph == "gnm300":
        g = gnm_graph(random.Random(300), 300, 600)
    else:
        g = ba_graph(random.Random(500), 2000, attach=(1, 2, 4, 8))
    result = kernelize(g, rules=ALL_RULES if rules == "all" else KERMIS_RULES)
    assert result.per_rule_counts == counts
    assert (result.reduced_n, result.reduced_m, result.stack.offset) == (n, m, offset)
    assert kernel_digest(g, result) == GOLDEN_DIGESTS[graph, rules]
