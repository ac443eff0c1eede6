"""Vertex rankings (the network hierarchy R of the paper).

R is a dense permutation: ``R[v] in [0, n)``, larger = more important.
Uniqueness makes the Canonical Hub Labeling unique, which the whole test
suite leans on (DESIGN.md §4).

The paper (§7.1.1) ranks road networks by betweenness approximated from a
few sampled shortest-path trees, and scale-free graphs by degree.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.core.labels import INF
from repro.graphs.csr import CSRGraph


def _scores_to_rank(scores: np.ndarray) -> np.ndarray:
    """Turn raw importance scores into a dense rank permutation.

    Ties break by vertex id (lower id ranks higher) so results are
    deterministic across platforms.
    """
    n = len(scores)
    order = np.lexsort((np.arange(n), -scores))  # important first
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n - 1, -1, -1)
    return rank


def degree_rank(g: CSRGraph) -> np.ndarray:
    """Rank by vertex degree (paper's choice for scale-free graphs)."""
    return _scores_to_rank(g.degrees().astype(np.float64))


def betweenness_rank(g: CSRGraph, samples: int = 64) -> np.ndarray:
    """Rank by sampled-source Brandes betweenness (paper's road choice).

    Runs weighted Brandes (Dijkstra + dependency accumulation) from
    ``samples`` sources drawn with the fixed seed 7; cheap and, per the
    paper, good enough to expose the highway hierarchy.
    """
    n = g.n
    rng = np.random.default_rng(7)
    sources = rng.choice(n, size=min(samples, n), replace=False)
    score = [0.0] * n
    adj = g.adjacency()
    for s in sources.tolist():
        dist = [INF] * n
        sigma = [0.0] * n  # shortest-path counts
        dist[s] = 0
        sigma[s] = 1.0
        preds: list[list[int]] = [[] for _ in range(n)]
        settled_order: list[int] = []
        done = [False] * n
        pq = [(0, s)]
        while pq:
            d, v = heapq.heappop(pq)
            if done[v]:
                continue
            done[v] = True
            settled_order.append(v)
            for u, w in adj[v]:
                nd = d + w
                if nd < dist[u]:
                    dist[u] = nd
                    sigma[u] = sigma[v]
                    preds[u] = [v]
                    heapq.heappush(pq, (nd, u))
                elif nd == dist[u] and not done[u]:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = [0.0] * n
        for v in reversed(settled_order):
            for p in preds[v]:
                delta[p] += sigma[p] / sigma[v] * (1.0 + delta[v])
            if v != s:
                score[v] += delta[v]
    return _scores_to_rank(np.array(score, dtype=np.float64))


def rank_for(g: CSRGraph, kind: str) -> np.ndarray:
    """Paper's per-topology ranking choice: betweenness for roads, degree else."""
    return betweenness_rank(g) if kind == "road" else degree_rank(g)


def roots_by_rank(rank: np.ndarray) -> np.ndarray:
    """Vertices in decreasing rank — the SPT construction order.

    Raises ``ValueError`` unless ``rank`` is a permutation of range(n)."""
    rank = np.asarray(rank)
    n = len(rank)
    if not np.array_equal(np.sort(rank), np.arange(n)):
        raise ValueError("rank must be a permutation of range(len(rank))")
    order = np.empty(n, dtype=np.int64)
    order[n - 1 - rank] = np.arange(n)
    return order
