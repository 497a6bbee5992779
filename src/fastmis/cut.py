"""Inexact preprocessing: remove high-degree vertices outright.

Cutting trades a small amount of solution quality for a much friendlier
search graph. Relative cutting (``kermis``) repeatedly removes a current
maximum-degree vertex (ties broken with the seeded rng), recomputing
degrees after every removal like a reversed min-degree greedy; snapshot
cutting (``onlinemis``) ranks degrees once and removes the top fraction.
"""

from __future__ import annotations

import math
import random

from .graph import Graph


def check_fraction(fraction: float) -> None:
    """ValueError unless ``fraction`` lies within [0, 1]; NaN fails too."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")


def cut_relative(g: Graph, fraction: float, rng: random.Random) -> list[int]:
    """Remove ceil(fraction * alive) vertices, always a current max-degree one.

    Returns the removed ids in removal order. Runs on a degree-bucket
    structure so the whole pass costs O(n + m).
    """
    check_fraction(fraction)
    vertices = g.alive_vertices()
    count = math.ceil(fraction * len(vertices))
    if count == 0:
        return []

    max_possible = max((g.live_degree[v] for v in vertices), default=0)
    buckets: list[list[int]] = [[] for _ in range(max_possible + 1)]
    pos = [-1] * g.next_id
    cur_bucket = [-1] * g.next_id
    for v in vertices:
        d = g.live_degree[v]
        pos[v] = len(buckets[d])
        cur_bucket[v] = d
        buckets[d].append(v)

    def drop(v: int) -> None:
        b = buckets[cur_bucket[v]]
        i = pos[v]
        last = b[-1]
        b[i] = last
        pos[last] = i
        b.pop()
        pos[v] = -1
        cur_bucket[v] = -1

    def demote(v: int) -> None:
        d = cur_bucket[v]
        drop(v)
        pos[v] = len(buckets[d - 1])
        cur_bucket[v] = d - 1
        buckets[d - 1].append(v)

    removed: list[int] = []
    top = max_possible
    for _ in range(count):
        while not buckets[top]:
            top -= 1
        v = buckets[top][rng.randrange(len(buckets[top]))]
        drop(v)
        for u in g.neighbors_live(v):
            demote(u)
        g.remove_vertex(v)
        removed.append(v)
    return removed


def cut_snapshot_top(g: Graph, fraction: float, rng: random.Random) -> list[int]:
    """Remove the ceil(fraction * alive) highest snapshot-degree vertices.

    Degrees are ranked once, before any removal, with random tie order;
    this is the marking pass the online pipeline uses.
    """
    check_fraction(fraction)
    vertices = g.alive_vertices()
    count = math.ceil(fraction * len(vertices))
    if count == 0:
        return []
    degree = g.live_degree
    top = max(degree[v] for v in vertices)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for v in vertices:
        buckets[degree[v]].append(v)
    doomed: list[int] = []
    for d in range(top, -1, -1):
        bucket = buckets[d]
        if len(doomed) + len(bucket) > count:
            rng.shuffle(bucket)   # only the boundary degree needs tie order
            bucket = bucket[: count - len(doomed)]
        doomed.extend(bucket)
        if len(doomed) == count:
            break
    for v in doomed:
        g.remove_vertex(v)
    return doomed
