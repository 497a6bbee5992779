"""Seeded instance generators and the METIS files the benchmark feeds the CLI.

Every generator returns ``(n, edges)`` with ``edges`` a list of ``(u, v)``
pairs, ``u != v``, no duplicates.  This edge list is the benchmark's own
record of each graph; the independence certificate checks results
against it, never against a ``fastmis.Graph``.
"""

from __future__ import annotations

import os
import random
from pathlib import Path

# Instance seeds are part of each workload's definition: the reference
# sizes in ``workloads.py`` hold for these graphs only.
PA_SEED = 20260909   # the graph of acceptance criterion 9
ER_SEED = 20000
MESH_SEED = 100


def pa_edges(seed: int = PA_SEED, n: int = 100_000, attach=(1, 2, 4, 8)):
    """Preferential attachment, draw for draw the construction of
    ``tests/util.ba_graph``: each new vertex takes a link count from
    ``attach`` and wires to degree-weighted targets."""
    rng = random.Random(seed)
    edges = [(0, 1)]
    pool = [0, 1]
    for v in range(2, n):
        want = rng.choice(attach)
        targets = set()
        tries = 0
        while len(targets) < want and tries < 20 * want:
            targets.add(pool[rng.randrange(len(pool))])
            tries += 1
        for t in targets:
            edges.append((v, t))
            pool.append(v)
            pool.append(t)
    return n, edges


def er_edges(seed: int = ER_SEED, n: int = 20_000, m: int = 60_000):
    """G(n, m): m distinct vertex pairs drawn uniformly."""
    rng = random.Random(seed)
    seen = set()
    edges = []
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (u, v) if u < v else (v, u)
        if key in seen:
            continue
        seen.add(key)
        edges.append(key)
    return n, edges


def mesh_edges(seed: int = MESH_SEED, side: int = 100):
    """A side x side grid; each unit square gets its down-right diagonal
    with probability 1/2.  One diagonal direction keeps the graph planar
    with degree at most 6."""
    rng = random.Random(seed)
    edges = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if j + 1 < side:
                edges.append((v, v + 1))
            if i + 1 < side:
                edges.append((v, v + side))
            if i + 1 < side and j + 1 < side and rng.random() < 0.5:
                edges.append((v, v + side + 1))
    return side * side, edges


GENERATORS = {"pa100k": pa_edges, "er20k": er_edges, "mesh100": mesh_edges}


def adjacency(n: int, edges) -> list[list[int]]:
    """Sorted neighbour lists, 0-indexed."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    for a in adj:
        a.sort()
    return adj


def metis_text(adj: list[list[int]]) -> str:
    lines = [f"{len(adj)} {sum(map(len, adj)) // 2}"]
    lines.extend(" ".join(str(u + 1) for u in a) for a in adj)
    return "\n".join(lines) + "\n"


def write_metis(path: Path, adj: list[list[int]]) -> None:
    """Write the instance unless an identical file is already cached.

    The text is rebuilt from the neighbour lists on every run and compared
    with the cache, so a stale or damaged file never reaches the CLI.
    """
    text = metis_text(adj)
    if path.exists() and path.read_text(encoding="utf-8") == text:
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
