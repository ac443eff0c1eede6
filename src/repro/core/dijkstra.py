"""Shortest-path-tree kernels: reference Dijkstra and Alg. 1 (pruneDijRQ).

These run inside Spark tasks (per root) against a broadcast CSRGraph, and
on the driver for the sequential baseline. Pure Python + numpy arrays,
with lazy-deletion binary heaps.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.labels import INF, CommonLabelTable
from repro.graphs.csr import CSRGraph


def reference_dijkstra(g: CSRGraph, src: int) -> np.ndarray:
    """Plain textbook Dijkstra — trusted ground truth for all oracles."""
    dist = np.full(g.n, INF, dtype=np.int64)
    dist[src] = 0
    done = np.zeros(g.n, dtype=bool)
    pq = [(0, src)]
    indptr, indices, weights = g.indptr, g.indices, g.weights
    while pq:
        d, v = heapq.heappop(pq)
        if done[v]:
            continue
        done[v] = True
        for i in range(indptr[v], indptr[v + 1]):
            u = indices[i]
            nd = d + weights[i]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(pq, (int(nd), int(u)))
    return dist


def distance_query(
    root_hash: dict[int, int], hubs_v: list[int], dists_v: list[int], delta: int
) -> bool:
    """Alg. 1's DQ: is (root, v) covered within ``delta`` by a common hub?

    ``root_hash`` is hub→dist over the root's visible labels; (hubs_v,
    dists_v) are v's visible labels. Returns True → prune.
    """
    for h, d in zip(hubs_v, dists_v):
        dr = root_hash.get(h)
        if dr is not None and dr + d <= delta:
            return True
    return False


def prune_dij_rq(
    g: CSRGraph,
    rank: np.ndarray,
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
    n = g.n
    indptr, indices, weights = g.indptr, g.indices, g.weights
    rroot = rank[root]
    root_hash = dict(zip(visible.hubs[root], visible.dists[root]))
    root_hash[root] = 0
    dist = np.full(n, INF, dtype=np.int64)
    dist[root] = 0
    done = np.zeros(n, dtype=bool)
    pq = [(0, root)]
    out: list[tuple[int, int]] = []
    vh, vd = visible.hubs, visible.dists
    cover = common.cover_vector(root) if common is not None else None
    while pq:
        d, v = heapq.heappop(pq)
        if done[v]:
            continue
        done[v] = True
        if use_rank_queries and rank[v] > rroot:
            continue  # Rank-Query prune: no label, no relaxation
        if v != root:
            if distance_query(root_hash, vh[v], vd[v], d):
                continue  # Distance-Query prune
            if cover is not None and cover[v] <= d:
                continue  # §5.3 common-table prune
        out.append((v, int(d)))
        for i in range(indptr[v], indptr[v + 1]):
            u = indices[i]
            nd = d + weights[i]
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(pq, (int(nd), int(u)))
    return out
