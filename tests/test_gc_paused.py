"""The cyclic garbage collector and the bulk builds.

``read_metis`` switches the collector off while it runs
(``graph.gc_paused``). These tests check that it hands back the collector
state its caller had, and that the parse, kernelization and the pipelines
leave no reference cycle behind: reference counting alone frees their
garbage, so their memory stays bounded even with the collector off.
"""

import gc
import random

import pytest

from fastmis.cli import ParseError, read_metis, write_metis
from fastmis.local_search import Budget
from fastmis.metrics import ConvergenceLog
from fastmis.pipelines import ker_mis, online_mis, plain_arw
from fastmis.reductions import ALL_RULES, KERMIS_RULES, kernelize

from util import ba_graph, gnm_graph, mesh_graph


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def collector(request):
    """Start the test with the collector on or off; restore it after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_read_metis_restores_the_collector_state(tmp_path, collector):
    metis = tmp_path / "p3.metis"
    metis.write_text("3 2\n2\n1 3\n2\n", encoding="utf-8")
    bad_metis = tmp_path / "bad.metis"
    bad_metis.write_text("3 2\n2\n1 x\n2\n", encoding="utf-8")
    calls = [
        (lambda: read_metis(metis), None),
        (lambda: read_metis(bad_metis), ParseError),
        (lambda: read_metis(tmp_path / "missing.metis"), FileNotFoundError),
    ]
    for call, error in calls:
        if error is None:
            call()
        else:
            with pytest.raises(error):
                call()
        assert gc.isenabled() is collector


def test_parse_kernelize_and_pipelines_make_no_garbage_cycles(tmp_path):
    """With the collector off, each phase leaves nothing for it to find:
    the parse, both kernelizations on graphs that fold, add gadgets and
    take alternatives, and each pipeline under an iteration budget."""
    rng = random.Random(15)
    path = tmp_path / "ba.metis"
    write_metis(ba_graph(rng, 3000), path)
    graphs = {"mesh": mesh_graph(rng, 40), "gnm": gnm_graph(rng, 3000, 9000)}
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        graphs["ba"] = read_metis(path)
        assert gc.collect() == 0, "read_metis"
        for name, g in graphs.items():
            for rules in (ALL_RULES, KERMIS_RULES):
                kernelize(g.copy(), rules=rules)
                assert gc.collect() == 0, (name, sorted(rules))
            for pipeline in (online_mis, ker_mis):
                pipeline(g, 0.01, Budget(iterations=300), random.Random(1), ConvergenceLog())
                assert gc.collect() == 0, (name, pipeline.__name__)
            plain_arw(g, Budget(iterations=300), random.Random(1), ConvergenceLog())
            assert gc.collect() == 0, (name, "plain_arw")
    finally:
        if was:
            gc.enable()
