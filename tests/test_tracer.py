"""The benchmark's tracer (perfbench/tracer.py) against the pipelines.

The tracer wraps the search and reduction functions by name and reads
their positional arguments and the solution, so a change to those can
break a traced benchmark run; these tests run the three pipelines under
it.
"""

import random
import sys
from pathlib import Path

import pytest

from fastmis.local_search import Budget
from fastmis.pipelines import ker_mis, online_mis, plain_arw
from fastmis.reductions import KERMIS_RULES, ONLINE_RULES

from util import gnm_graph, is_independent

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracer  # noqa: E402

PIPELINES = {
    "onlinemis": lambda g, budget, rng: online_mis(g, 0.01, budget, rng),
    "kermis": lambda g, budget, rng: ker_mis(g, 0.01, budget, rng),
    "arw": plain_arw,
}


@pytest.mark.parametrize("algo", sorted(PIPELINES))
def test_traced_pipeline_matches_untraced(algo):
    g = gnm_graph(random.Random(21), 300, 900)
    run = PIPELINES[algo]
    budget = Budget(iterations=200)
    untraced = run(g, budget, random.Random(5))
    with tracer.instrument(tracer.Tracer()) as rec:
        rec.scope = algo
        traced = run(g, budget, random.Random(5))
    assert is_independent(g, traced)
    assert traced == untraced
    counts = rec.counts
    assert counts[f"{algo}.local_search.run_iterated.calls"] == 1
    assert counts[f"{algo}.local_search.perturb.calls"] == 200
    assert counts[f"{algo}.local_search.residual_alive"] > 0
    rules = {"onlinemis": ONLINE_RULES, "kermis": KERMIS_RULES}.get(algo, ())
    for rule in rules:
        assert counts[f"{algo}.reductions.{rule}.calls"] >= 1, rule
