"""The tree kernels on inputs the property tests do not generate: collapsed
parallel edges, all-equal weights, disconnected graphs with isolated
vertices, and n ∈ {1, 2}. Distances are checked against networkx and the
labelings against the brute-force CHL."""
import copy
import pickle

import networkx as nx
import numpy as np
import pytest

from repro.core.dijkstra import prune_dij_rq, reference_dijkstra
from repro.core.gll import gll
from repro.core.labels import INF, CommonLabelTable, LabelStore, payload_bytes
from repro.core.plant import plant_dijkstra
from repro.core.pll import seq_pll
from repro.core.reference import brute_chl, ground_truth_pairs
from repro.dist.plant_dist import plant_dist
from repro.graphs.csr import from_edges
from repro.graphs.generators import random_graph
from tests.helpers import random_rank


def _parallel_edges():
    """Every pair of 12 vertices drawn ~4 times with random weights."""
    rng = np.random.default_rng(5)
    src, dst = rng.integers(0, 12, 200), rng.integers(0, 12, 200)
    return 12, src, dst, rng.integers(1, 20, 200)


def _equal_weights():
    rng = np.random.default_rng(6)
    perm = rng.permutation(20)
    src = np.concatenate([perm, rng.integers(0, 20, 25)])
    dst = np.concatenate([np.roll(perm, 1), rng.integers(0, 20, 25)])
    return 20, src, dst, np.full(len(src), 3)


def _disconnected():
    """Two components (a path and a triangle with a tail) plus isolated
    vertices 0, 5 and 11."""
    src = [1, 2, 3, 6, 7, 8, 9]
    dst = [2, 3, 4, 7, 8, 6, 10]
    return 12, src, dst, [2, 2, 5, 1, 4, 2, 7]


EDGE_LISTS = {
    "parallel": _parallel_edges,
    "equal": _equal_weights,
    "disconnected": _disconnected,
    "n1": lambda: (1, [], [], []),
    "n2": lambda: (2, [0, 1], [1, 0], [4, 2]),
    "n2_apart": lambda: (2, [], [], []),
}


def _graph(name):
    return from_edges(*EDGE_LISTS[name]())


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_reference_dijkstra_matches_networkx(name):
    n, src, dst, w = EDGE_LISTS[name]()
    nxg = nx.MultiGraph()  # keeps the parallel edges from_edges collapses
    nxg.add_nodes_from(range(n))
    for a, b, c in zip(np.asarray(src).tolist(), np.asarray(dst).tolist(), np.asarray(w).tolist()):
        nxg.add_edge(a, b, weight=c)
    g = from_edges(n, src, dst, w)
    for s in range(n):
        got = reference_dijkstra(g, s)
        assert got.dtype == np.int64
        want = nx.single_source_dijkstra_path_length(nxg, s)
        assert got.tolist() == [want.get(v, INF) for v in range(n)]


@pytest.mark.parametrize("name", ["equal", "disconnected", "n1", "n2", "n2_apart"])
@pytest.mark.parametrize("seed", [0, 1])
def test_engines_equal_brute_chl(name, seed):
    g = _graph(name)
    rank = random_rank(g.n, seed)
    want = brute_chl(g, rank).canonical_set()
    assert seq_pll(g, rank)[0].canonical_set() == want
    assert gll(None, g, rank, p=2)[0].canonical_set() == want
    assert plant_dist(None, g, rank, q=2).store.canonical_set() == want
    assert plant_dist(None, g, rank, q=2, eta=2).store.canonical_set() == want


def _is_int_pair(label):
    return len(label) == 2 and all(type(x) is int for x in label)


@pytest.mark.parametrize("name", sorted(EDGE_LISTS))
def test_kernel_labels_are_python_ints(name):
    """Gathered label bytes depend on the types: plain ints, never numpy."""
    g = _graph(name)
    rank = random_rank(g.n, 3)
    top = int(np.argmax(rank))
    common = CommonLabelTable(g.n, np.array([top]))
    common.add_hub_labels(top, plant_dijkstra(g, rank, top)[0])
    for root in range(g.n):
        for labels in (
            prune_dij_rq(g, rank, root, LabelStore(g.n)),
            prune_dij_rq(g, rank, root, LabelStore(g.n), use_rank_queries=False, common=common),
            plant_dijkstra(g, rank, root)[0],
            plant_dijkstra(g, rank, root, common=common)[0],
        ):
            assert all(_is_int_pair(lab) for lab in labels)
    store, _ = seq_pll(g, rank)
    assert all(type(x) is int for row in store.hubs + store.dists for x in row)


def test_rank_list_and_array_give_equal_trees():
    g = random_graph(60, 4, 9)
    rank = random_rank(g.n, 4)
    store, _ = seq_pll(g, rank)
    for root in range(0, g.n, 7):
        assert prune_dij_rq(g, rank, root, store) == prune_dij_rq(g, rank.tolist(), root, store)
        assert plant_dijkstra(g, rank, root) == plant_dijkstra(g, rank.tolist(), root)


def test_derived_caches_stay_out_of_pickles():
    g = random_graph(80, 5, 2)
    before = payload_bytes(g)
    snapshot = copy.copy(g)  # same arrays, no caches
    g.degrees()
    g.adjacency()
    assert payload_bytes(g) == before
    assert g == snapshot  # the caches take no part in equality
    back = pickle.loads(pickle.dumps(g))
    assert back._adj is None and back._degrees is None
    assert back.n == g.n
    for f in ("indptr", "indices", "weights"):
        assert np.array_equal(getattr(back, f), getattr(g, f))
        assert getattr(back, f).dtype == getattr(g, f).dtype
    assert back.adjacency() == g.adjacency()


def test_adjacency_is_csr_order_in_python_ints():
    g = _graph("disconnected")
    adj = g.adjacency()
    assert adj is g.adjacency()  # built once
    for v in range(g.n):
        nbrs, ws = g.neighbors(v)
        assert adj[v] == list(zip(nbrs.tolist(), ws.tolist()))
        assert all(type(u) is int and type(w) is int for u, w in adj[v])


def test_ground_truth_pairs_per_row():
    g = _graph("disconnected")
    rng = np.random.default_rng(1)
    pairs = [tuple(p) for p in rng.integers(0, g.n, (300, 2)).tolist()]
    df = ground_truth_pairs(g, pairs)
    assert list(df.columns) == ["u", "v", "dist"]
    assert all(df[c].dtype == np.int64 for c in df.columns)
    assert df[["u", "v"]].to_numpy().tolist() == [list(p) for p in pairs]
    assert df["dist"].tolist() == [int(reference_dijkstra(g, u)[v]) for u, v in pairs]
    assert (df["dist"] == INF).any()
    empty = ground_truth_pairs(g, [])
    assert len(empty) == 0 and list(empty.columns) == ["u", "v", "dist"]
