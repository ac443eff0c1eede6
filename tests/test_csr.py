"""Unit tests for the CSR graph substrate."""
import numpy as np
import pandas as pd
import pytest

from repro.core.labels import INF
from repro.graphs.csr import CSRGraph, from_edge_pandas, from_edges
from tests.helpers import random_connected_graph


def test_simple_triangle():
    g = from_edges(3, [0, 1, 2], [1, 2, 0], [3, 4, 5])
    assert g.n == 3 and g.m == 3
    nbrs, w = g.neighbors(0)
    assert sorted(nbrs.tolist()) == [1, 2]
    assert sorted(w.tolist()) == [3, 5]


def test_symmetry():
    g = from_edges(4, [0, 1], [1, 2], [7, 9])
    # every undirected edge appears in both endpoints' lists
    n0, w0 = g.neighbors(1)
    assert sorted(n0.tolist()) == [0, 2]
    assert g.m == 2 and len(g.indices) == 4


def test_self_loops_dropped():
    g = from_edges(3, [0, 1, 1], [0, 1, 2], [1, 1, 5])
    assert g.m == 1
    nbrs, _ = g.neighbors(1)
    assert nbrs.tolist() == [2]


def test_parallel_edges_min_weight():
    g = from_edges(2, [0, 0, 1], [1, 1, 0], [9, 3, 5])
    _, w = g.neighbors(0)
    assert w.tolist() == [3]


def test_positive_weight_enforced():
    with pytest.raises(ValueError):
        from_edges(2, [0], [1], [0])
    with pytest.raises(ValueError):
        from_edges(2, [0], [1], [-2])


def test_vertex_ids_must_be_in_range():
    """An id outside [0, n) is an error, not a corrupt CSR or an IndexError."""
    for src, dst in (([-1], [1]), ([0], [3]), ([3], [0]), ([0, 1], [1, -2])):
        with pytest.raises(ValueError, match="vertex ids"):
            from_edges(3, src, dst, [1] * len(src))
    with pytest.raises(ValueError, match="vertex ids"):
        from_edge_pandas(pd.DataFrame({"src": [0, 5], "dst": [1, 2], "w": [1, 1]}), n=3)
    assert from_edges(3, [0, 2], [2, 1], [1, 1]).n == 3


def test_total_weight_below_inf():
    """The longest possible path (all edges) must stay below INF."""
    half = INF // 2
    g = from_edges(3, [0, 1], [1, 2], [half, half - 1])  # total INF - 1
    assert int(g.weights.sum()) // 2 == INF - 1
    with pytest.raises(ValueError):
        from_edges(3, [0, 1], [1, 2], [half, half])  # total == INF
    with pytest.raises(ValueError):  # the int64 sum would wrap negative
        from_edges(3, [0, 1], [1, 2], [1 << 62, 1 << 62])
    # a dropped self-loop and a collapsed parallel edge do not count
    from_edges(3, [0, 0, 0, 1], [0, 1, 1, 2], [half, half, 1, half - 1])


def test_degrees():
    g = from_edges(4, [0, 0, 0], [1, 2, 3], [1, 1, 1])
    assert g.degrees().tolist() == [3, 1, 1, 1]


def test_isolated_vertex():
    g = from_edges(5, [0], [1], [2])
    assert g.n == 5
    nbrs, _ = g.neighbors(4)
    assert len(nbrs) == 0


def test_edge_pandas_roundtrip():
    g = random_connected_graph(40, 30, 5, seed=1)
    pdf = g.edge_pandas()
    assert (pdf["src"] < pdf["dst"]).all()
    assert len(pdf) == g.m
    g2 = from_edge_pandas(pdf, n=g.n)
    assert np.array_equal(g.indptr, g2.indptr)
    assert np.array_equal(g.indices, g2.indices)
    assert np.array_equal(g.weights, g2.weights)


@pytest.mark.parametrize("seed", range(5))
def test_random_graph_consistency(seed):
    g = random_connected_graph(30, 20, 8, seed=seed)
    # indptr monotone, weights positive, neighbour ids valid
    assert (np.diff(g.indptr) >= 0).all()
    assert (g.weights > 0).all()
    assert g.indices.min() >= 0 and g.indices.max() < g.n
    # symmetry: (u,v,w) present iff (v,u,w) present
    seen = set()
    for v in range(g.n):
        nbrs, ws = g.neighbors(v)
        for u, w in zip(nbrs, ws):
            seen.add((v, int(u), int(w)))
    assert all((u, v, w) in seen for v, u, w in seen)


def test_csr_picklable():
    import pickle

    g = random_connected_graph(20, 10, 4, seed=3)
    g2 = pickle.loads(pickle.dumps(g))
    assert isinstance(g2, CSRGraph) and g2.m == g.m
