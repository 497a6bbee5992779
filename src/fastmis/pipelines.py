"""The composite solvers: online reduction, kernel-first, and plain search.

The two reducing pipelines run their rules and cut on a copy of the
input graph. All three pipelines end in :func:`_search_residual`, which
searches the residual graph (the input itself for ``plain_arw``: the
search never writes it) and lifts the best set to original vertex ids.

Where ``onlinemis`` departs from the paper: the paper commits a vertex
whose degree-<=2 closed neighborhood is a clique whenever the greedy
pass or the search meets one, while :func:`online_mis` runs the pendant
and simplicial rules to a fixpoint before the search starts, and its
simplicial rule has no degree bound.
"""

from __future__ import annotations

import random
import time

from .cut import check_fraction, cut_relative, cut_snapshot_top
from .graph import Graph
from .local_search import Budget, PerturbationParams, greedy_initial, run_iterated
from .metrics import ConvergenceLog
from .reductions import KERMIS_RULES, ONLINE_RULES, ReductionStack, kernelize, lift_solution


def online_mis(g: Graph, cut_fraction: float, budget: Budget, rng: random.Random,
               log: ConvergenceLog | None = None,
               params: PerturbationParams | None = None) -> set[int]:
    """Cut the top snapshot-degree slice, reduce to a fixpoint, search.

    After the cut, the pendant and simplicial rules run to a fixpoint
    (:data:`~fastmis.reductions.ONLINE_RULES`), and the search works on
    what is left; the module docstring says where this departs
    from the paper. Logged sizes include the vertices the rules took,
    and an empty residual graph skips the search.
    """
    start = time.perf_counter()
    check_fraction(cut_fraction)
    work = g.copy()
    cut_snapshot_top(work, cut_fraction, rng)
    stack = kernelize(work, rules=ONLINE_RULES).stack
    return _search_residual(work, stack, budget, rng, log, params, start)


def ker_mis(g: Graph, cut_fraction: float, budget: Budget, rng: random.Random,
            log: ConvergenceLog | None = None,
            params: PerturbationParams | None = None) -> set[int]:
    """Kernelize with the advanced rule set, cut, search, lift.

    The degree-restricted clique rule stays out of the rule set here;
    relative cutting then removes the requested fraction of the kernel
    before search. Logged sizes already include the lifted share, so the
    log tracks input-graph solution sizes. An empty kernel skips search
    entirely and the lifted solution is exact.
    """
    start = time.perf_counter()
    check_fraction(cut_fraction)
    work = g.copy()
    stack = kernelize(work, rules=KERMIS_RULES).stack
    cut_relative(work, cut_fraction, rng)
    return _search_residual(work, stack, budget, rng, log, params, start)


def _search_residual(work: Graph, stack: ReductionStack, budget: Budget,
                     rng: random.Random, log: ConvergenceLog | None,
                     params: PerturbationParams | None, start: float) -> set[int]:
    """Search the residual graph ``work`` and lift the best set through
    ``stack``; an empty residual graph skips the search. One with a dead
    vertex is searched as :meth:`Graph.compact` renumbers it, which
    changes no step of the search, and the best set is mapped back."""
    if log is None:
        log = ConvergenceLog()
    live = work.alive_count()
    if live == 0:
        lifted = lift_solution(stack, set())
        elapsed = 0.0 if budget.deterministic else time.perf_counter() - start
        log.append(elapsed, len(lifted))
        return lifted
    search, ids = work.compact() if live < work.next_id else (work, None)
    sol = greedy_initial(search, rng)
    best = run_iterated(search, sol, budget, log, rng, params,
                        size_offset=stack.offset, start_time=start)
    return lift_solution(stack, best if ids is None else {ids[v] for v in best})


def plain_arw(g: Graph, budget: Budget, rng: random.Random,
              log: ConvergenceLog | None = None,
              params: PerturbationParams | None = None) -> set[int]:
    """Baseline: greedy start plus iterated local search, untouched graph."""
    start = time.perf_counter()
    return _search_residual(g, ReductionStack(g), budget, rng, log, params, start)
