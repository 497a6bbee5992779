"""Spans and counts around fastmis' public functions, from outside the program.

:class:`Tracer` replaces functions and methods of the ``fastmis`` modules
with recording wrappers for the length of a ``with`` block and puts the
originals back when it ends.  A function that another module imported by
name (``pipelines`` imports ``kernelize``, for instance) is replaced
wherever it is bound, so calls through either module are seen.

Three kinds of wrapper, by how often the call happens:

span     one record (name, start, end, parent) per call, for calls made a
         handful of times per pipeline run: copy, cut, kernelize, each
         rule pass, lift, greedy start, the search loop.
timer    call count and summed seconds only, for the per-iteration calls
         ``perturb`` and ``local_search``.
counter  call count only (plus entries returned and scanned for
         ``neighbors_live``), for the hot graph methods.

Every record is filed under the scope the benchmark sets before each
operation (``kernel``, ``onlinemis``, ...), so one tracer serves a whole
round of operations.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.scope = ""
        self.spans: list[tuple[str, str, float, float, int]] = []   # scope, name, start, end, parent
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # what gets recorded

    def _key(self, name: str) -> str:
        return f"{self.scope}.{name}" if self.scope else name

    def span(self, name: str, fn, after=None):
        """Wrap ``fn``; ``after(tracer, args, result)`` may add counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append((tracer.scope, name, time.perf_counter(), 0.0, parent))
            tracer._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._open.pop()
                scope, _, start, _, parent = tracer.spans[index]
                end = time.perf_counter()
                tracer.spans[index] = (scope, name, start, end, parent)
                tracer.counts[tracer._key(f"{name}.calls")] += 1
                tracer.counts[tracer._key(f"{name}.s")] += end - start
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def timer(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` with a call count and summed wall time;
        ``before(tracer, args)`` runs ahead of the call and
        ``after(tracer, args, result)`` behind it."""
        tracer = self
        counts = self.counts
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                counts[tracer._key(f"{name}.s")] += perf() - start
                counts[tracer._key(f"{name}.calls")] += 1
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[tracer._key(f"{name}.calls")] += 1
            return fn(*args, **kwargs)

        return wrapper

    def neighbor_counter(self, fn):
        """``Graph.neighbors_live``: calls, entries returned and entries
        scanned (the full adjacency list the filter walks)."""
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(graph, v):
            result = fn(graph, v)
            key = tracer._key
            counts[key("graph.neighbors_live.calls")] += 1
            counts[key("graph.neighbors_live.returned")] += len(result)
            counts[key("graph.neighbors_live.scanned")] += len(graph.adjacency[v])
            return result

        return wrapper

    # ------------------------------------------------------------------
    # installing and removing wrappers

    def patch_function(self, module, attr: str, wrapper) -> None:
        """Bind ``wrapper`` wherever ``module.attr`` is bound in fastmis."""
        original = getattr(module, attr)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "fastmis" or name.startswith("fastmis.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def close(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per (scope.name): summed span duration minus the time its
        child spans cover."""
        child = [0.0] * len(self.spans)
        for scope, name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for i, (scope, name, start, end, parent) in enumerate(self.spans):
            out[f"{scope}.{name}"] += end - start - child[i]
        return dict(out)


RULE_FUNCTIONS = {
    "pendant": "reduce_pendant",
    "isolated": "reduce_isolated",
    "fold": "reduce_fold",
    "lp": "reduce_lp",
    "unconfined": "reduce_unconfined",
    "twin": "reduce_twin",
    "alternative": "reduce_alternative",
    "packing": "reduce_packing_k0",
}


def instrument(tracer: Tracer) -> Tracer:
    """Wrap the public entry points of every measured fastmis layer."""
    cli = importlib.import_module("fastmis.cli")
    cut = importlib.import_module("fastmis.cut")
    graph = importlib.import_module("fastmis.graph")
    local_search = importlib.import_module("fastmis.local_search")
    reductions = importlib.import_module("fastmis.reductions")
    counts = tracer.counts

    def add(name, value):
        counts[tracer._key(name)] += value

    tracer.patch_function(cli, "read_metis", tracer.span("cli.read_metis", cli.read_metis))

    g = graph.Graph
    tracer.patch_method(g, "copy", tracer.span("graph.copy", g.copy))
    tracer.patch_method(g, "neighbors_live", tracer.neighbor_counter(g.neighbors_live))
    tracer.patch_method(g, "remove_vertex", tracer.counter("graph.remove_vertex", g.remove_vertex))

    def removed(t, args, result):
        add("cut.removed", len(result))

    tracer.patch_function(cut, "cut_snapshot_top",
                          tracer.span("cut.snapshot", cut.cut_snapshot_top, removed))
    tracer.patch_function(cut, "cut_relative",
                          tracer.span("cut.relative", cut.cut_relative, removed))

    def kernel_size(t, args, result):
        add("reductions.kernel_n", result.reduced_n)

    tracer.patch_function(reductions, "kernelize",
                          tracer.span("reductions.kernelize", reductions.kernelize, kernel_size))
    tracer.patch_function(reductions, "lift_solution",
                          tracer.span("reductions.lift", reductions.lift_solution))
    for rule, attr in RULE_FUNCTIONS.items():
        def fired(t, args, result, rule=rule):
            add(f"reductions.{rule}.fired", result)
            add(f"reductions.{rule}.hits", 1 if result else 0)
        tracer.patch_function(reductions, attr, tracer.span(
            f"reductions.{rule}", getattr(reductions, attr), fired))

    def greedy_size(t, args, result):
        add("local_search.greedy_size", result.size)

    def search_end(t, args, result):
        work, sol = args[0], args[1]
        add("local_search.residual_alive", work.alive_count())
        add("local_search.commits", sum(sol.committed))

    def idle(t, args):
        if len(args[0].non_solution) == 0:
            add("local_search.idle_iters", 1)

    def swaps(t, args, result):
        add("local_search.swaps", result)

    tracer.patch_function(local_search, "greedy_initial", tracer.span(
        "local_search.greedy", local_search.greedy_initial, greedy_size))
    tracer.patch_function(local_search, "run_iterated", tracer.span(
        "local_search.run_iterated", local_search.run_iterated, search_end))
    tracer.patch_function(local_search, "perturb", tracer.timer(
        "local_search.perturb", local_search.perturb, before=idle))
    tracer.patch_function(local_search, "local_search", tracer.timer(
        "local_search.local_search", local_search.local_search, after=swaps))
    return tracer
