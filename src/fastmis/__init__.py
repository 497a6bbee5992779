"""Large independent sets in sparse graphs.

Exact kernelization reductions, inexact high-degree cutting, and
swap-based iterated local search, composed into online and
kernel-first pipelines, with an exact oracle and benchmarking metrics.
"""

from .cut import cut_relative, cut_snapshot_top
from .graph import Graph, GraphFormatError, load
from .local_search import (
    Budget,
    Solution,
    find_one_two_swap,
    greedy_initial,
    perturb,
    run_iterated,
    sample_force_count,
)
from .metrics import ConvergenceLog, max_speedup, time_to_size
from .oracle import enumerate_swaps, exact_mis
from .pipelines import ker_mis, online_mis, plain_arw
from .reductions import (
    ALL_RULES,
    KERMIS_RULES,
    ONLINE_RULES,
    KernelResult,
    ReductionStack,
    kernelize,
    lift_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_RULES",
    "Budget",
    "ConvergenceLog",
    "Graph",
    "GraphFormatError",
    "KERMIS_RULES",
    "KernelResult",
    "ONLINE_RULES",
    "ReductionStack",
    "Solution",
    "cut_relative",
    "cut_snapshot_top",
    "enumerate_swaps",
    "exact_mis",
    "find_one_two_swap",
    "greedy_initial",
    "ker_mis",
    "kernelize",
    "lift_solution",
    "load",
    "max_speedup",
    "online_mis",
    "perturb",
    "plain_arw",
    "run_iterated",
    "sample_force_count",
    "time_to_size",
]
