"""First-principles oracles, independent of every algorithm under test.

``brute_chl`` computes the Canonical Hub Labeling straight from its
definition: for every connected pair (u, v), the single highest-ranked
vertex on the union of their shortest paths becomes a hub of both. CHL
is unique for a strict total-order ranking, so every construction
algorithm in this repo must reproduce it label-for-label.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.dijkstra import reference_dijkstra
from repro.core.labels import INF, LabelStore
from repro.graphs.csr import CSRGraph


def all_pairs_dist(g: CSRGraph) -> np.ndarray:
    """(n, n) exact distance matrix via n reference Dijkstras."""
    return np.stack([reference_dijkstra(g, s) for s in range(g.n)])


def brute_chl(g: CSRGraph, rank: np.ndarray, dist: np.ndarray | None = None) -> LabelStore:
    """Canonical Hub Labeling by definition (O(n^3); n ≤ ~300 in tests).

    A vertex w lies on some shortest u-v path iff d(u,w)+d(w,v) = d(u,v);
    the canonical hub of the pair is the argmax-rank such w. Self-pairs
    yield the self-labels.
    """
    if dist is None:
        dist = all_pairs_dist(g)
    n = g.n
    label_set: dict[tuple[int, int], int] = {}
    for u in range(n):
        du = dist[u]
        for v in range(u, n):
            duv = du[v]
            if duv >= INF:
                continue
            on_sp = np.flatnonzero(du + dist[v] == duv)
            hm = int(on_sp[np.argmax(rank[on_sp])])
            label_set[(u, hm)] = int(du[hm])
            label_set[(v, hm)] = int(dist[v][hm])
    store = LabelStore(n)
    store.commit([(v, h, d) for (v, h), d in label_set.items()])
    return store


def ground_truth_pairs(g: CSRGraph, pairs) -> pd.DataFrame:
    """Exact distances for (u, v) query pairs — the oracle's truth table.

    Unreachable pairs get dist = INF so both sides of the comparison can
    express them as a plain integer column.
    """
    uv = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    u, v = uv[:, 0], uv[:, 1]
    dist = np.empty(len(uv), dtype=np.int64)
    # One Dijkstra per distinct source, gathered into that source's rows.
    order = np.argsort(u, kind="stable")
    sources, starts = np.unique(u[order], return_index=True)
    for s, rows in zip(sources.tolist(), np.split(order, starts[1:])):
        dist[rows] = reference_dijkstra(g, s)[v[rows]]
    return pd.DataFrame({"u": u, "v": v, "dist": dist})
