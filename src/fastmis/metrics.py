"""Convergence logs and the benchmarking arithmetic built on them.

A run reports a (elapsed, solution size) tuple at every strict
improvement; logs feed time-to-target lookups and the per-size
maximum-speedup ratio used to compare algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class ConvergenceLog:
    algorithm: str = ""
    seed: int = 0
    instance: str = ""
    points: list[tuple[float, int]] = field(default_factory=list)

    def append(self, elapsed: float, size: int) -> None:
        if self.points:
            last_t, last_s = self.points[-1]
            if elapsed < last_t:
                raise ValueError("elapsed times must be nondecreasing")
            if size <= last_s:
                raise ValueError("sizes must be strictly increasing")
        if elapsed < 0:
            raise ValueError("elapsed must be nonnegative")
        self.points.append((elapsed, size))

    def best_size(self) -> int:
        return self.points[-1][1] if self.points else 0


def time_to_size(log: ConvergenceLog, target: float) -> float | None:
    """Earliest elapsed at which the log reached ``target``, if ever."""
    for t, s in log.points:
        if s >= target:
            return t
    return None


def max_speedup(base: ConvergenceLog, other: ConvergenceLog) -> float:
    """Largest per-size time ratio other/base over sizes the base reached.

    Sizes ``other`` never reaches contribute infinity.
    """
    if base.instance != other.instance:
        raise ValueError("logs must describe the same instance")
    if not base.points:
        raise ValueError("base log is empty")
    best = 0.0
    for t_base, size in base.points:
        t_other = time_to_size(other, size)
        if t_other is None:
            return math.inf
        if t_base == 0.0:
            ratio = 1.0 if t_other == 0.0 else math.inf
        else:
            ratio = t_other / t_base
        if ratio > best:
            best = ratio
        if best == math.inf:
            return math.inf
    return best


def write_log(log: ConvergenceLog, path) -> None:
    """CSV lines elapsed,size under a comment carrying run identity."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# instance={log.instance} algorithm={log.algorithm} seed={log.seed}\n")
        for t, s in log.points:
            fh.write(f"{t:.6f},{s}\n")


def read_log(path) -> ConvergenceLog:
    log = ConvergenceLog()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    if key == "instance":
                        log.instance = value
                    elif key == "algorithm":
                        log.algorithm = value
                    elif key == "seed":
                        log.seed = int(value)
                continue
            t_text, _, s_text = line.partition(",")
            log.append(float(t_text), int(s_text))
    return log
