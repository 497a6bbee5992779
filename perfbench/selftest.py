"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these out of the repository's default test run;
they take about half a minute.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "tests"))

import calibrate  # noqa: E402
import certify  # noqa: E402
import instances  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

fastmis = run.import_fastmis()


@pytest.mark.parametrize("name", sorted(instances.GENERATORS))
def test_generators_are_seed_deterministic(name):
    generator = instances.GENERATORS[name]
    n, edges = generator()
    assert generator() == (n, edges)
    keys = {(min(u, v), max(u, v)) for u, v in edges}
    assert len(keys) == len(edges)
    assert all(0 <= u < n and 0 <= v < n and u != v for u, v in edges)
    if name != "pa100k":   # pa100k's size is fixed; its seed changes only the wiring
        assert generator(seed=7) != (n, edges)


def test_generator_sizes():
    assert len(instances.pa_edges()[1]) == 374_091
    n, edges = instances.er_edges()
    assert (n, len(edges)) == (20_000, 60_000)
    n, edges = instances.mesh_edges()
    assert n == 10_000
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert max(degree) <= 6


def test_pa100k_is_the_criterion_9_graph():
    from util import ba_graph
    graph = ba_graph(random.Random(20260909), 100_000, attach=(1, 2, 4, 8))
    n, edges = instances.pa_edges()
    assert graph.n == n
    assert sorted(graph.edges()) == sorted((min(u, v), max(u, v)) for u, v in edges)


def test_lp_bound_on_small_graphs():
    def bound(n, edges):
        return certify.lp_upper_bound(certify.EdgeArrays(n, edges))

    assert bound(3, [(0, 1), (1, 2), (0, 2)]) == 1.5          # triangle
    assert bound(3, [(0, 1), (1, 2)]) == 2                     # path
    assert bound(5, [(i, (i + 1) % 5) for i in range(5)]) == 2.5   # 5-cycle
    assert bound(4, [(0, 1), (0, 2), (0, 3)]) == 3             # star


def test_checker_rejects_a_planted_dependent_set():
    n, edges = instances.mesh_edges()
    arrays = certify.EdgeArrays(n, edges)
    u, v = edges[123]
    assert certify.independence_errors(arrays, set(range(0, n, 2 * 100 + 3))) == []
    assert certify.independence_errors(arrays, {u, v})
    assert certify.independence_errors(arrays, {n})
    assert certify.independence_errors(arrays, {-1})


@pytest.fixture(scope="module")
def mesh_bench():
    # a short budget, and a target it reaches
    workload = dataclasses.replace(run.WORKLOADS["mesh100"], iterations=300, fraction=0.9)
    bench = run.Bench("mesh100", workload, fastmis)
    bench.parse()
    return bench


def test_checker_rejects_a_size_above_the_bound(mesh_bench):
    assert mesh_bench.bound == 5000
    above = set(range(5001))
    assert any("exceeds the LP bound" in e for e in mesh_bench.solution_errors(above))
    failed = mesh_bench.failed
    mesh_bench.check("planted", mesh_bench.solution_errors(above))
    assert mesh_bench.failed == failed + 1
    mesh_bench.failed = failed


def test_sizes_repeat_for_a_repeated_seed(mesh_bench):
    for algo in run.PIPELINES:
        first = mesh_bench.pipeline(algo, 5)[1]
        assert mesh_bench.pipeline(algo, 5)[1] == first
    assert mesh_bench.failed == 0


def test_reference_speed_is_the_ratio_of_sums():
    assert calibrate.seconds() > 0   # raises if the checksum changes
    ref = calibrate.REFERENCE_S
    assert run.at_reference_speed([(2.0, 0.5), (4.0, 1.0)]) == pytest.approx(4 * ref)
    # a burst that slows one repeat and its calibrations alike cancels
    assert run.at_reference_speed([(1.0, 0.5), (3.0, 1.5)]) == pytest.approx(2 * ref)


def test_tracer_restores_every_function():
    modules = [importlib.import_module(f"fastmis.{m}")
               for m in ("cli", "cut", "graph", "local_search", "reductions", "pipelines")]
    before = [dict(vars(m)) for m in modules] + [dict(vars(fastmis.Graph))]
    with tracer.instrument(tracer.Tracer()):
        assert fastmis.Graph.copy is not before[-1]["copy"]
    after = [dict(vars(m)) for m in modules] + [dict(vars(fastmis.Graph))]
    assert all(a == b for a, b in zip(after, before))


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
