"""Shortest-path-tree kernels: reference Dijkstra and Alg. 1 (pruneDijRQ).

These run inside Spark tasks (per root) against a broadcast CSRGraph, and
on the driver for the sequential baseline. They are pure Python on lists:
the graph's cached ``adjacency()``, list-held distances and settled flags,
the root's dense label array, a rank list, and lazy-deletion binary heaps
of plain ``(d, v)`` ints.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.labels import INF, CommonLabelTable
from repro.graphs.csr import CSRGraph


def as_list(a) -> list:
    """``a`` as a Python list: a numpy array converts once, a list passes
    through. The kernels index ranks and cover distances per vertex, and a
    list item is a plain int where a numpy item is a boxed scalar."""
    return a.tolist() if isinstance(a, np.ndarray) else a


def reference_dijkstra(g: CSRGraph, src: int) -> np.ndarray:
    """Plain textbook Dijkstra — trusted ground truth for all oracles."""
    adj = g.adjacency()
    dist = [INF] * g.n
    dist[src] = 0
    done = [False] * g.n
    pq = [(0, src)]
    while pq:
        d, v = heapq.heappop(pq)
        if done[v]:
            continue
        done[v] = True
        for u, w in adj[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return np.array(dist, dtype=np.int64)


def distance_query(
    root_dist: list[int], hubs_v: list[int], dists_v: list[int], delta: int
) -> bool:
    """Alg. 1's DQ: is (root, v) covered within ``delta`` by a common hub?

    ``root_dist`` is the root's dense label array (Akiba et al.'s
    temporary array): ``root_dist[h]`` is the root's distance to hub h, or
    INF where h does not label the root. (hubs_v, dists_v) are v's visible
    labels. Returns True → prune.
    """
    for h, d in zip(hubs_v, dists_v):
        if root_dist[h] <= delta - d:  # root_dist[h] + d <= delta, without adding to INF
            return True
    return False


def prune_dij_rq(
    g: CSRGraph,
    rank,  # list or numpy array; arrays convert once per call
    root: int,
    visible,  # LabelStore-like: .hubs / .dists lists (the pruning snapshot)
    *,
    use_rank_queries: bool = True,
    common: CommonLabelTable | None = None,
) -> list[tuple[int, int]]:
    """Pruned Dijkstra with Rank + Distance Queries (paper Alg. 1).

    Builds SPT(root) against the ``visible`` label snapshot and returns the
    new labels ``[(v, d(root, v))]`` with hub = root (including the root's
    self-label). Pruning at a vertex skips both the label and relaxation.

    ``use_rank_queries=False`` gives the SparaPLL baseline behaviour.
    ``common`` adds §5.3 distance queries against the replicated top-η
    table (used by DGLL inside the Hybrid algorithm).
    """
    adj = g.adjacency()
    rank = as_list(rank)
    rroot = rank[root]
    root_dist = [INF] * g.n
    for h, d in zip(visible.hubs[root], visible.dists[root]):
        root_dist[h] = d
    root_dist[root] = 0
    dist = [INF] * g.n
    dist[root] = 0
    done = [False] * g.n
    pq = [(0, root)]
    out: list[tuple[int, int]] = []
    vh, vd = visible.hubs, visible.dists
    cover = common.cover_vector(root).tolist() if common is not None else None
    while pq:
        d, v = heapq.heappop(pq)
        if done[v]:
            continue
        done[v] = True
        if use_rank_queries and rank[v] > rroot:
            continue  # Rank-Query prune: no label, no relaxation
        if v != root:
            if distance_query(root_dist, vh[v], vd[v], d):
                continue  # Distance-Query prune
            if cover is not None and cover[v] <= d:
                continue  # §5.3 common-table prune
        out.append((v, d))
        for u, w in adj[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
    return out
