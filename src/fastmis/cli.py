"""Command-line harness: graph ingestion, solving, verification, metrics.

Subcommands
-----------
solve         run one algorithm on one graph, write solution and log files
verify        check a solution file against the original graph
speedup       per-size maximum speedup ratio between two log files
quality-time  earliest time each log reached a quality fraction of the best
kernel-stats  per-rule reduction counts and kernel size
"""

from __future__ import annotations

import argparse
import math
import random
import sys
import time
from dataclasses import dataclass, field

from .graph import Graph, GraphFormatError, load
from .local_search import Budget, PerturbationParams
from .metrics import ConvergenceLog, max_speedup, read_log, time_to_size, write_log
from .pipelines import ker_mis, online_mis, plain_arw
from .reductions import ALL_RULES, KERMIS_RULES, KernelResult, kernelize, lift_solution


class ParseError(ValueError):
    """A graph or solution file could not be parsed."""


# ----------------------------------------------------------------------
# file formats


def read_metis(path) -> Graph:
    """Parse the adjacency format: header ``n m [fmt]`` then one
    1-indexed neighbor line per vertex. ``%`` lines are comments. The
    parser is strict: indexes out of range, self-loops, duplicate or
    asymmetric entries, and edge-count mismatches all fail with the
    offending line number.

    Every line is parsed and checked in bulk; only a line that fails is
    scanned token by token, to word its first fault.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines[-1] == "":
        lines.pop()
    linenos = [i for i, raw in enumerate(lines, start=1) if not raw.lstrip().startswith("%")]
    if not linenos:
        raise ParseError(f"{path}: empty file")
    header_line = linenos[0]
    parts = lines[header_line - 1].split()
    if len(parts) not in (2, 3):
        raise ParseError(f"{path}:{header_line}: header must be 'n m [fmt]'")
    try:
        n, m = int(parts[0]), int(parts[1])
        fmt = int(parts[2]) if len(parts) == 3 else 0
    except ValueError as exc:
        raise ParseError(f"{path}:{header_line}: {exc}") from exc
    if fmt != 0:
        raise ParseError(f"{path}:{header_line}: weighted format {fmt} is unsupported")
    linenos = linenos[1:]
    while linenos and len(linenos) > n and not lines[linenos[-1] - 1].strip():
        linenos.pop()
    if len(linenos) != n:
        raise ParseError(f"{path}: expected {n} vertex lines, found {len(linenos)}")
    to_index = (-1).__add__
    adjacency: list[list[int]] = []
    append = adjacency.append
    for v, lineno in enumerate(linenos):
        line = lines[lineno - 1]
        try:
            nbrs = sorted(map(to_index, map(int, line.split())))
        except ValueError:   # a bad token
            nbrs = None
        if nbrs is None or (nbrs and (nbrs[0] < 0 or nbrs[-1] >= n or v in nbrs
                                      or len(set(nbrs)) != len(nbrs))):
            raise ParseError(f"{path}:{lineno}: {_vertex_line_fault(line, v, n)}")
        append(nbrs)
    # walking the lists in vertex order fills each reverse list sorted, so
    # the graph is symmetric exactly when the reverse lists equal the lists
    reverse: list[list[int]] = [[] for _ in range(n)]
    for v, nbrs in enumerate(adjacency):
        for u in nbrs:
            reverse[u].append(v)
    if reverse != adjacency:
        v, u = _first_asymmetry(adjacency)
        raise ParseError(f"{path}:{linenos[v]}: vertex {v + 1} lists {u + 1} but not vice versa")
    # symmetric and loop-free lists hold every edge twice
    total = sum(map(len, adjacency))
    if total != 2 * m:
        raise ParseError(f"{path}:{header_line}: header claims {m} edges, lines hold {total // 2}")
    return Graph.from_adjacency(adjacency)


def _vertex_line_fault(line: str, v: int, n: int) -> str:
    """The first fault on the neighbor line of vertex ``v``: a bad token, an
    index outside 1..n or a self-loop, whichever comes first in token order;
    failing those, a duplicate. Called only for a line that has a fault."""
    for token in line.split():
        try:
            u = int(token)
        except ValueError:
            return f"bad neighbor token {token!r}"
        if not 1 <= u <= n:
            return f"neighbor {u} outside 1..{n}"
        if u == v + 1:
            return f"self-loop at vertex {v + 1}"
    return f"duplicate neighbors on vertex {v + 1}"


def _first_asymmetry(adjacency: list[list[int]]) -> tuple[int, int]:
    """The first ``(v, u)`` in file order with ``u`` listed by ``v`` but not
    ``v`` by ``u``; the lists must hold such a pair."""
    sets = [set(a) for a in adjacency]
    return next((v, u) for v, nbrs in enumerate(adjacency) for u in nbrs if v not in sets[u])


def write_metis(g: Graph, path) -> None:
    """Emit the graph in the adjacency format. Round-trip fixture helper;
    requires a fully alive graph without synthetic vertices."""
    if g.next_id != g.n or not all(g.alive):
        raise ValueError("write_metis needs a fully alive, gadget-free graph")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{g.n} {g.live_edge_count()}\n")
        for v in range(g.n):
            fh.write(" ".join(str(u + 1) for u in g.adjacency[v]) + "\n")


def read_edge_list(path, n: int | None = None) -> Graph:
    """Parse ``u v`` lines, 0-indexed, ``#`` comments; n is inferred as
    max id + 1 unless supplied."""
    edges = []
    top = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{lineno}: expected two ids, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: non-integer token") from exc
            if u < 0 or v < 0:
                raise ParseError(f"{path}:{lineno}: negative vertex id")
            edges.append((u, v))
            top = max(top, u, v)
    if n is None:
        if top < 0:
            raise ParseError(f"{path}: empty edge list; pass an explicit vertex count")
        n = top + 1
    return load(edges, n)


def read_graph(path, fmt: str, n: int | None = None) -> Graph:
    if fmt == "metis":
        return read_metis(path)
    return read_edge_list(path, n)


def read_solution(path) -> set[int]:
    out = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.add(int(line))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad vertex id {line!r}") from exc
    return out


def write_solution(solution: set[int], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in sorted(solution):
            fh.write(f"{v}\n")


# ----------------------------------------------------------------------
# verification


@dataclass
class VerifyReport:
    size: int
    independent: bool
    violations: list[tuple[int, int]] = field(default_factory=list)
    invalid_ids: list[int] = field(default_factory=list)
    maximal: bool = False

    @property
    def ok(self) -> bool:
        return self.independent and not self.invalid_ids


def verify(g_original: Graph, solution: set[int]) -> VerifyReport:
    """Independence check against the original graph.

    Maximality is reported separately and is informational only: cutting
    removes vertices for good, so a perfectly valid output may leave
    room on the original graph.
    """
    invalid = sorted(v for v in solution if not 0 <= v < g_original.n)
    members = solution - set(invalid)
    violations = []
    for v in sorted(members):
        for u in g_original.adjacency[v]:
            if u > v and u in members:
                violations.append((v, u))
    maximal = True
    for v in range(g_original.n):
        if v in members:
            continue
        if not any(u in members for u in g_original.adjacency[v]):
            maximal = False
            break
    return VerifyReport(
        size=len(solution),
        independent=not violations,
        violations=violations,
        invalid_ids=invalid,
        maximal=maximal,
    )


# ----------------------------------------------------------------------
# commands


def _print_kernel_stats(result: KernelResult) -> None:
    """One ``rule,count`` line per enabled rule, then the kernel size."""
    for name, count in result.per_rule_counts.items():
        print(f"{name},{count}")
    print(f"kernel_n={result.reduced_n} kernel_m={result.reduced_m}")


def _cmd_solve(args) -> int:
    g = read_graph(args.graph, args.format, args.n)
    if args.algo != "kernel" and args.time_limit is None and args.iterations is None:
        print("solve: need --time-limit or --iterations", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    instance = args.graph.rsplit("/", 1)[-1]
    log = ConvergenceLog(algorithm=args.algo, seed=args.seed, instance=instance)
    params = PerturbationParams(pair_cap=args.pair_cap)

    if args.algo == "kernel":
        start = time.perf_counter()
        work = g.copy()
        result = kernelize(work, rules=ALL_RULES)
        solution = lift_solution(result.stack, set())
        log.append(time.perf_counter() - start, len(solution))
        _print_kernel_stats(result)
    else:
        budget = Budget(seconds=args.time_limit, iterations=args.iterations)
        if args.algo == "onlinemis":
            solution = online_mis(g, args.cut_fraction, budget, rng, log, params)
        elif args.algo == "kermis":
            solution = ker_mis(g, args.cut_fraction, budget, rng, log, params)
        else:
            solution = plain_arw(g, budget, rng, log, params)

    report = verify(g, solution)
    if not report.ok:
        print(f"solve: internal error, produced an invalid solution: "
              f"{report.violations[:3]}{report.invalid_ids[:3]}", file=sys.stderr)
        return 1
    if args.solution:
        write_solution(solution, args.solution)
    if args.log:
        write_log(log, args.log)
    print(f"algorithm={args.algo} instance={instance} seed={args.seed} "
          f"size={len(solution)}")
    return 0


def _cmd_verify(args) -> int:
    g = read_graph(args.graph, args.format, args.n)
    solution = read_solution(args.solution)
    report = verify(g, solution)
    if report.invalid_ids:
        print(f"invalid vertex ids: {report.invalid_ids[:10]}", file=sys.stderr)
        return 1
    if not report.independent:
        u, v = report.violations[0]
        print(f"not independent: edge ({u}, {v}) inside the solution", file=sys.stderr)
        return 1
    print(f"independent size={report.size} maximal={'yes' if report.maximal else 'no'}")
    return 0


def _cmd_speedup(args) -> int:
    base = read_log(args.base)
    other = read_log(args.other)
    value = max_speedup(base, other)
    print("inf" if math.isinf(value) else f"{value:.2f}")
    return 0


def _cmd_quality_time(args) -> int:
    logs = [(path, read_log(path)) for path in args.logs]
    best = max(log.best_size() for _, log in logs)
    target = args.quality * best
    for path, log in logs:
        reached = time_to_size(log, target)
        print(f"{path}\t{'-' if reached is None else format(reached, '.6f')}")
    return 0


def _cmd_kernel_stats(args) -> int:
    g = read_graph(args.graph, args.format, args.n)
    rules = ALL_RULES if args.rules == "all" else KERMIS_RULES
    _print_kernel_stats(kernelize(g, rules=rules))
    return 0


def _add_graph_arguments(parser) -> None:
    parser.add_argument("--graph", required=True, help="input graph file")
    parser.add_argument("--format", choices=("metis", "edges"), default="metis")
    parser.add_argument("--n", type=int, default=None,
                        help="vertex count for edge lists without one")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastmis",
        description="Independent-set solver for sparse graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a solver on a graph")
    _add_graph_arguments(solve)
    solve.add_argument("--algo", required=True,
                       choices=("onlinemis", "kermis", "arw", "kernel"))
    solve.add_argument("--seed", type=int, default=0)
    stop = solve.add_mutually_exclusive_group()
    stop.add_argument("--time-limit", type=float, default=None, metavar="SECONDS")
    stop.add_argument("--iterations", type=int, default=None)
    solve.add_argument("--cut-fraction", type=float, default=0.01)
    solve.add_argument("--pair-cap", type=int, default=100)
    solve.add_argument("--log", default=None, help="write the convergence CSV here")
    solve.add_argument("--solution", default=None, help="write vertex ids here")
    solve.set_defaults(func=_cmd_solve)

    check = sub.add_parser("verify", help="validate a solution file")
    _add_graph_arguments(check)
    check.add_argument("--solution", required=True)
    check.set_defaults(func=_cmd_verify)

    speed = sub.add_parser("speedup", help="max speedup of BASE over OTHER")
    speed.add_argument("base")
    speed.add_argument("other")
    speed.set_defaults(func=_cmd_speedup)

    quality = sub.add_parser("quality-time",
                             help="time each log reached a fraction of the best size")
    quality.add_argument("logs", nargs="+")
    quality.add_argument("--quality", type=float, default=0.995)
    quality.set_defaults(func=_cmd_quality_time)

    stats = sub.add_parser("kernel-stats", help="reduction statistics for a graph")
    _add_graph_arguments(stats)
    stats.add_argument("--rules", choices=("all", "kermis"), default="all")
    stats.set_defaults(func=_cmd_kernel_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, GraphFormatError, OSError, ValueError) as exc:
        print(f"fastmis: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
