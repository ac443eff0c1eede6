"""Tests for the SPT kernels (reference Dijkstra + Alg. 1 pruneDijRQ)."""
import numpy as np
import pytest

from repro.core.dijkstra import distance_query, prune_dij_rq, reference_dijkstra
from repro.core.labels import INF, LabelStore
from repro.graphs.csr import from_edges
from repro.graphs.ranking import roots_by_rank
from tests.helpers import (
    chl_set,
    graph,
    rank_of,
    random_connected_graph,
    random_rank,
    tiny_line_graph,
)


def _bellman_ford(g, src):
    """Independent O(nm) reference for cross-checking Dijkstra."""
    dist = np.full(g.n, INF, dtype=np.int64)
    dist[src] = 0
    for _ in range(g.n):
        changed = False
        for v in range(g.n):
            if dist[v] >= INF:
                continue
            nbrs, ws = g.neighbors(v)
            for u, w in zip(nbrs, ws):
                if dist[v] + w < dist[u]:
                    dist[u] = dist[v] + w
                    changed = True
        if not changed:
            break
    return dist


@pytest.mark.parametrize("seed", range(6))
def test_dijkstra_vs_bellman_ford(seed):
    g = random_connected_graph(25, 25, 9, seed=seed)
    for src in (0, 7, 24):
        assert np.array_equal(reference_dijkstra(g, src), _bellman_ford(g, src))


def test_dijkstra_line():
    g = tiny_line_graph()
    assert reference_dijkstra(g, 0).tolist() == [0, 1, 2, 3]


def test_dijkstra_unreachable():
    g = from_edges(4, [0], [1], [5])
    d = reference_dijkstra(g, 0)
    assert d[1] == 5 and d[2] == INF and d[3] == INF


def test_distance_query_semantics():
    root_dist = [INF] * 10  # the root's labels: hub 7 at 3, hub 9 at 10
    root_dist[7], root_dist[9] = 3, 10
    assert distance_query(root_dist, [7, 8], [4, 1], 7) is True  # 3+4 <= 7
    assert distance_query(root_dist, [7], [5], 7) is False  # 3+5 > 7
    assert distance_query(root_dist, [8], [1], 100) is False  # no common hub


def test_prune_dij_rq_empty_store_is_full_tree():
    g = tiny_line_graph()
    rank = np.array([3, 2, 1, 0])
    labels = prune_dij_rq(g, rank, 0, LabelStore(4))
    assert sorted(labels) == [(0, 0), (1, 1), (2, 2), (3, 3)]


def test_prune_dij_rq_rank_query_prunes():
    g = tiny_line_graph()
    rank = np.array([2, 3, 1, 0])  # vertex 1 outranks root 0
    labels = prune_dij_rq(g, rank, 0, LabelStore(4))
    # tree pruned at vertex 1: nothing beyond it is labelled
    assert sorted(labels) == [(0, 0)]


def test_prune_dij_rq_no_rank_query():
    g = tiny_line_graph()
    rank = np.array([2, 3, 1, 0])
    labels = prune_dij_rq(g, rank, 0, LabelStore(4), use_rank_queries=False)
    assert sorted(labels) == [(0, 0), (1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize("name", ["CAL", "SKIT"])
def test_sequential_trees_equal_brute_chl(name):
    """Rank-ordered pruneDijRQ with a live store IS seqPLL == CHL."""
    g, rank = graph(name), rank_of(name)
    store = LabelStore(g.n)
    for root in roots_by_rank(rank):
        labels = prune_dij_rq(g, rank, int(root), store)
        store.commit([(v, int(root), d) for v, d in labels])
    assert store.canonical_set() == chl_set(name)


@pytest.mark.parametrize("seed", range(4))
def test_label_distances_exact_under_full_info(seed):
    """Sequential PLL labels always carry exact distances."""
    g = random_connected_graph(30, 25, 6, seed=seed)
    rank = random_rank(30, seed)
    store = LabelStore(g.n)
    truth = {s: reference_dijkstra(g, s) for s in range(g.n)}
    for root in roots_by_rank(rank):
        labels = prune_dij_rq(g, rank, int(root), store)
        for v, d in labels:
            assert d == truth[int(root)][v]
        store.commit([(v, int(root), d) for v, d in labels])


@pytest.mark.parametrize("seed", range(4))
def test_hub_rank_invariant(seed):
    """Rank queries guarantee every hub outranks-or-equals its vertex."""
    g = random_connected_graph(30, 25, 6, seed=seed)
    rank = random_rank(30, seed)
    store = LabelStore(g.n)
    for root in roots_by_rank(rank):
        labels = prune_dij_rq(g, rank, int(root), store)
        store.commit([(v, int(root), d) for v, d in labels])
    for v in range(g.n):
        for h, _ in store.labels_of(v):
            assert rank[h] >= rank[v]
