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


def betweenness_rank(g: CSRGraph, samples: int = 64, seed: int = 7) -> np.ndarray:
    """Rank by sampled-source Brandes betweenness (paper's road choice).

    Runs weighted Brandes (Dijkstra + dependency accumulation) from
    ``samples`` random sources; cheap and, per the paper, good enough to
    expose the highway hierarchy.
    """
    n = g.n
    rng = np.random.default_rng(seed)
    sources = rng.choice(n, size=min(samples, n), replace=False)
    score = np.zeros(n, dtype=np.float64)
    indptr, indices, weights = g.indptr, g.indices, g.weights
    for s in sources:
        dist = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        sigma = np.zeros(n, dtype=np.float64)  # shortest-path counts
        dist[s] = 0
        sigma[s] = 1.0
        preds: list[list[int]] = [[] for _ in range(n)]
        settled_order: list[int] = []
        done = np.zeros(n, dtype=bool)
        pq = [(0, int(s))]
        while pq:
            d, v = heapq.heappop(pq)
            if done[v]:
                continue
            done[v] = True
            settled_order.append(v)
            for i in range(indptr[v], indptr[v + 1]):
                u = indices[i]
                nd = d + weights[i]
                if nd < dist[u]:
                    dist[u] = nd
                    sigma[u] = sigma[v]
                    preds[u] = [v]
                    heapq.heappush(pq, (int(nd), int(u)))
                elif nd == dist[u] and not done[u]:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = np.zeros(n, dtype=np.float64)
        for v in reversed(settled_order):
            for p in preds[v]:
                delta[p] += sigma[p] / sigma[v] * (1.0 + delta[v])
            if v != s:
                score[v] += delta[v]
    return _scores_to_rank(score)


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
