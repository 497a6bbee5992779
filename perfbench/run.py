"""Time-to-quality benchmark for fastmis, with independent certificates.

    python3 perfbench/run.py --workload pa100k --seed 1 --seconds 50 --trace 0

Builds the workload's graph from its generator, writes it as a METIS file
under ``perfbench/out/``, and times the program on it: the CLI's parser,
the kernel-only job of ``fastmis solve --algo kernel`` and the three
pipelines, each pipeline on a fixed panel of search seeds under an
iteration budget.  Rounds of these operations repeat while they fit in
``--seconds`` (two rounds at least); ``--seed`` shuffles the order of the
operations inside each round.  Times are reported at a reference host
speed, gauged by a fixed calibration workload run between operations
(``calibrate.py``).  Every output is checked against the
benchmark's own edge list and an LP upper bound computed with scipy
(``certify.py``); a check that fails marks its operation failed.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced pass (``tracer.py``), the tracing overhead against an
untraced pass of the same operations, and the spans go to
``perfbench/out/trace-<workload>-<seed>.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import certify  # noqa: E402
import instances  # noqa: E402
import tracer  # noqa: E402


def import_fastmis():
    """Import fastmis from this checkout's sources and nowhere else."""
    src = ROOT / "src"
    if not (src / "fastmis" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no fastmis sources under {src}")
    sys.path.insert(0, str(src))
    import fastmis
    importlib.import_module("fastmis.cli")
    if Path(fastmis.__file__).resolve().parent != (src / "fastmis").resolve():
        raise SystemExit(f"run.py: imported fastmis from {fastmis.__file__}, not {src}")
    return fastmis


@dataclass(frozen=True)
class Workload:
    reference: int        # reference size; see README.md and reference.py
    fraction: float       # the time-to-target target is fraction * reference
    iterations: int       # search iterations per pipeline run
    seeds: tuple          # the panel of search seeds every round runs
    setup_reads: int      # parses at set-up; setup_s is the median of these
                          # and of the parse that starts each round
    kernel_runs: int      # kernel-only jobs per round
    optimum: bool = False  # reference is the certified optimum

    @property
    def target(self) -> int:
        return math.ceil(self.fraction * self.reference)


WORKLOADS = {
    "pa100k": Workload(reference=56_241, fraction=0.995, iterations=20_000,
                       seeds=(1, 2), setup_reads=3, kernel_runs=4,
                       optimum=True),
    "er20k": Workload(reference=8_115, fraction=0.995, iterations=22_000,
                      seeds=(1,), setup_reads=10, kernel_runs=1),
    # Runs by hand, not in BENCHMARK.json: its kernel job and kermis take
    # 6-13 s each, too few repeats per run to be steady (see README.md).
    "mesh100": Workload(reference=3_595, fraction=0.96, iterations=4_000,
                        seeds=(1,), setup_reads=60, kernel_runs=1),
}

PIPELINES = ("onlinemis", "kermis", "arw")
END_TO_END_UNITS = {
    "setup_s": "s",
    "kernel_s": "s",
    "kernel_offset": "vertices",
    **{f"{p}.tt_s": "s" for p in PIPELINES},
    **{f"{p}.size": "vertices" for p in PIPELINES},
}
CUT_FRACTION = 0.01   # the CLI's default
NEVER = math.inf      # wall-clock side of the budget: iterations stop every run


class Bench:
    """One workload's graph, certificates, operations and their checks."""

    def __init__(self, name: str, workload: Workload, fastmis) -> None:
        self.name = name
        self.workload = workload
        self.fm = fastmis
        self.attempted = 0
        self.failed = 0
        n, edges = instances.GENERATORS[name]()
        self.n = n
        self.adjacency = instances.adjacency(n, edges)
        self.path = OUT / f"{name}.metis"
        instances.write_metis(self.path, self.adjacency)
        self.arrays = certify.EdgeArrays(n, edges)
        self.bound = certify.lp_upper_bound(self.arrays)
        self.graph = None
        if workload.optimum:
            self.check("certificate", [] if math.floor(self.bound) == workload.reference
                       else [f"floor of LP bound {self.bound} is not the recorded "
                             f"optimum {workload.reference}"])

    # ------------------------------------------------------------------

    def check(self, op: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors:
                print(f"FAIL {self.name} {op}: {e}", file=sys.stderr)

    def solution_errors(self, solution) -> list[str]:
        errors = certify.independence_errors(self.arrays, solution)
        if len(solution) > self.bound:
            errors.append(f"size {len(solution)} exceeds the LP bound {self.bound}")
        return errors

    # ------------------------------------------------------------------
    # operations

    def parse(self) -> float:
        start = time.perf_counter()
        graph = self.fm.cli.read_metis(self.path)
        elapsed = time.perf_counter() - start
        self.check("parse", [] if graph.n == self.n and graph.adjacency == self.adjacency
                   else ["parsed graph differs from the generated edge list"])
        self.graph = graph
        return elapsed

    def kernel(self) -> tuple[float, int]:
        """The body of ``fastmis solve --algo kernel``."""
        red = self.fm.reductions
        start = time.perf_counter()
        work = self.graph.copy()
        result = red.kernelize(work, rules=red.ALL_RULES)
        solution = red.lift_solution(result.stack, set())
        elapsed = time.perf_counter() - start
        errors = self.solution_errors(solution)
        if self.workload.optimum and len(solution) != self.workload.reference:
            errors.append(f"kernel job proved {len(solution)}, not the optimum "
                          f"{self.workload.reference}")
        self.check("kernel", errors)
        return elapsed, len(solution)

    def pipeline(self, algo: str, seed: int,
                 stop_at_target: bool = False) -> tuple[float, int, float]:
        """One pipeline run; returns (time to target, size, time to the
        first logged point), both times measured here, from the call.

        ``stop_at_target`` ends the run at the target instead of the
        iteration budget; the trajectory up to the target is the same.
        """
        fm = self.fm
        stamps: list[tuple[float, int]] = []

        class StampedLog(fm.ConvergenceLog):
            def append(self, elapsed, size):
                super().append(elapsed, size)
                stamps.append((time.perf_counter(), size))

        log = StampedLog(algorithm=algo, instance=self.name, seed=seed)
        budget = fm.Budget(seconds=NEVER, iterations=self.workload.iterations,
                           target_size=self.workload.target if stop_at_target else None)
        rng = random.Random(seed)
        start = time.perf_counter()
        if algo == "onlinemis":
            solution = fm.online_mis(self.graph, CUT_FRACTION, budget, rng, log)
        elif algo == "kermis":
            solution = fm.ker_mis(self.graph, CUT_FRACTION, budget, rng, log)
        else:
            solution = fm.plain_arw(self.graph, budget, rng, log)
        wall = fm.ConvergenceLog(points=[(t - start, s) for t, s in stamps])
        reached = fm.time_to_size(wall, self.workload.target)
        errors = self.solution_errors(solution)
        if reached is None:
            errors.append(f"seed {seed}: never reached the target {self.workload.target} "
                          f"(best {log.best_size()})")
        if log.best_size() != len(solution):
            errors.append(f"seed {seed}: returned {len(solution)} vertices, "
                          f"logged best {log.best_size()}")
        if algo == "kermis" and self.workload.optimum and len(solution) != self.workload.reference:
            errors.append(f"seed {seed}: {len(solution)}, not the optimum "
                          f"{self.workload.reference}")
        self.check(f"{algo} seed {seed}", errors)
        first = stamps[0][0] - start if stamps else math.nan
        return (math.nan if reached is None else reached), len(solution), first

    def operations(self, kernel_runs: int = 1) -> list[tuple[str, int]]:
        return ([("kernel", 0)] * kernel_runs
                + [(algo, seed) for algo in PIPELINES for seed in self.workload.seeds])


# ----------------------------------------------------------------------


class HostGauge:
    """Times the calibration workload (``calibrate.py``) between timed
    operations, so that each operation's time can be read at the reference
    host speed, and collects garbage between operations, so that every
    repeat starts with the same collector state."""

    def __init__(self) -> None:
        self.last = calibrate.seconds()
        gc.collect()

    def after(self) -> float:
        """Call when an operation ends: the mean of the calibration times
        right before and right after it."""
        now = calibrate.seconds()
        around = (self.last + now) / 2
        self.last = now
        gc.collect()
        return around


def at_reference_speed(samples: list[tuple[float, float]]) -> float:
    """Seconds at the reference host speed from (operation, calibration
    around it) pairs: the reference time of the calibration times the
    ratio of their sums.  Summing first weighs each repeat by its length,
    and a burst that slows an operation and its calibrations alike cancels."""
    return calibrate.REFERENCE_S * sum(op for op, _ in samples) / sum(c for _, c in samples)


def end_to_end(bench: Bench, seconds: float, order: random.Random) -> dict:
    """The first round runs every pipeline to its iteration budget, for the
    sizes; later rounds stop each run at the target, so that the time to
    target is measured more often in the same time."""
    workload = bench.workload
    gauge = HostGauge()
    setup: list[float] = []   # each parse at the reference speed
    for _ in range(workload.setup_reads):
        elapsed = bench.parse()
        setup.append(at_reference_speed([(elapsed, gauge.after())]))
    kernel_times: list[tuple[float, float]] = []
    offsets: set[int] = set()
    tt: dict[tuple[str, int], list[tuple[float, float]]] = {}
    sizes: dict[tuple[str, bool, int], set[int]] = {}
    started = time.perf_counter()
    budget_round = True
    while True:
        round_start = time.perf_counter()
        elapsed = bench.parse()
        setup.append(at_reference_speed([(elapsed, gauge.after())]))
        ops = bench.operations(workload.kernel_runs)
        order.shuffle(ops)
        for algo, seed in ops:
            if algo == "kernel":
                elapsed, offset = bench.kernel()
                kernel_times.append((elapsed, gauge.after()))
                offsets.add(offset)
            else:
                reached, size, _ = bench.pipeline(algo, seed, stop_at_target=not budget_round)
                tt.setdefault((algo, seed), []).append((reached, gauge.after()))
                sizes.setdefault((algo, budget_round, seed), set()).add(size)
        # one target round at least; then stop where another round of the
        # same length would run past the window
        now = time.perf_counter()
        if not budget_round and now - started + (now - round_start) > seconds:
            break
        budget_round = False
    # a seed fixes the trajectory, so repeated runs must end at equal sizes
    bench.check("repeatability", [
        f"{key} gave sizes {sorted(v)}"
        for key, v in list(sizes.items()) + [(("kernel",), offsets)] if len(v) > 1
    ])
    values = {"setup_s": median(setup), "kernel_s": at_reference_speed(kernel_times),
              "kernel_offset": min(offsets)}
    for algo in PIPELINES:
        values[f"{algo}.tt_s"] = median(at_reference_speed(tt[(algo, s)])
                                        for s in workload.seeds)
        values[f"{algo}.size"] = median(min(sizes[(algo, True, s)]) for s in workload.seeds)
    return {key: (values[key], unit) for key, unit in END_TO_END_UNITS.items()}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"cli.read_metis_s": "s"}
    for p in ("kernel",) + PIPELINES:
        units[f"{p}.graph.copy_s"] = "s"
        units[f"{p}.graph.neighbors_live.calls"] = "count"
        units[f"{p}.graph.neighbors_live.yield"] = "ratio"
        units[f"{p}.graph.remove_vertex.calls"] = "count"
    units.update({"onlinemis.cut.snapshot_s": "s", "onlinemis.cut.removed": "vertices",
                  "kermis.cut.relative_s": "s", "kermis.cut.removed": "vertices"})
    for p in ("kernel", "kermis"):
        units[f"{p}.reductions.kernelize_s"] = "s"
        units[f"{p}.reductions.kernel_n"] = "vertices"
        units[f"{p}.reductions.lift_s"] = "s"
        for rule in tracer.RULE_FUNCTIONS:
            if p == "kermis" and rule == "isolated":   # KERMIS_RULES leave it out
                continue
            units[f"{p}.reductions.{rule}.calls"] = "count"
            units[f"{p}.reductions.{rule}.fired"] = "vertices"
            units[f"{p}.reductions.{rule}.s"] = "s"
            units[f"{p}.reductions.{rule}.yield"] = "ratio"
    for p in PIPELINES:
        units.update({
            f"{p}.local_search.greedy_s": "s",
            f"{p}.local_search.greedy_size": "vertices",
            f"{p}.local_search.iterations": "count",
            f"{p}.local_search.iters_per_s": "1/s",
            f"{p}.local_search.perturb_s": "s",
            f"{p}.local_search.local_search_s": "s",
            f"{p}.local_search.swaps": "count",
            f"{p}.local_search.residual_alive": "vertices",
            f"{p}.local_search.idle_iters": "count",
        })
    units["onlinemis.local_search.commits"] = "vertices"
    for p in PIPELINES:
        units[f"{p}.pipelines.first_point_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


def layer_values(counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the tracer's counts
    (``trace.overhead`` aside)."""
    def c(key):
        return counts.get(key, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for key in per_layer_units():
        base = key.rpartition(".")[0]
        if key.endswith(".iters_per_s"):
            out[key] = ratio(c(f"{base}.perturb.calls"), c(f"{base}.run_iterated.s"))
        elif key.endswith("_s"):
            out[key] = c(key[:-2] + ".s")
        elif key.endswith(".neighbors_live.yield"):
            out[key] = ratio(c(f"{base}.returned"), c(f"{base}.scanned"))
        elif key.endswith(".yield"):
            out[key] = ratio(c(f"{base}.hits"), c(f"{base}.calls"))
        elif key.endswith(".local_search.iterations"):
            out[key] = c(f"{base}.perturb.calls")
        else:
            out[key] = c(key)
    return out


def traced(bench: Bench, seconds: float, order: random.Random, seed: int) -> dict:
    """Alternate untraced and traced passes over the operations of a
    budget round; per-layer values are totals over one pass."""
    for _ in range(bench.workload.setup_reads):
        bench.parse()
    passes: list[dict[str, float]] = []
    pass_times: dict[bool, list[float]] = {False: [], True: []}
    sizes: dict[tuple[str, int], set[int]] = {}
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        ops = bench.operations()
        order.shuffle(ops)
        for tracing in (False, True):
            gc.collect()
            rec = tracer.Tracer()
            pass_start = time.perf_counter()
            with tracer.instrument(rec) if tracing else contextlib.nullcontext():
                rec.scope = ""
                bench.parse()
                for algo, search_seed in ops:
                    rec.scope = algo
                    if algo == "kernel":
                        _, size = bench.kernel()
                    else:
                        _, size, first = bench.pipeline(algo, search_seed)
                        rec.counts[f"{algo}.pipelines.first_point.s"] += first
                    sizes.setdefault((algo, search_seed), set()).add(size)
            pass_times[tracing].append(time.perf_counter() - pass_start)
            if tracing:
                passes.append(layer_values(rec.counts))
                last = rec
        now = time.perf_counter()
        if now - started + (now - round_start) > seconds:
            break
    bench.check("tracing leaves results unchanged", [
        f"{key} gave sizes {sorted(v)}" for key, v in sizes.items() if len(v) > 1
    ])
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"trace-{bench.name}-{seed}.json").write_text(json.dumps({
        "workload": bench.name,
        "spans": [list(span) for span in last.spans],
        "self_s": last.self_times(),
        "counts": dict(last.counts),
    }), encoding="utf-8")
    metrics = {key: (median(p[key] for p in passes), unit)
               for key, unit in per_layer_units().items() if key != "trace.overhead"}
    metrics["trace.overhead"] = (median(pass_times[True]) / median(pass_times[False]), "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    fastmis = import_fastmis()
    bench = Bench(args.workload, WORKLOADS[args.workload], fastmis)
    # the benchmark's own edge lists and arrays stay out of the collections
    # the program's work causes (see README.md)
    gc.collect()
    gc.freeze()
    order = random.Random(args.seed)
    if args.trace:
        metrics = traced(bench, args.seconds, order, args.seed)
    else:
        metrics = end_to_end(bench, args.seconds, order)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
