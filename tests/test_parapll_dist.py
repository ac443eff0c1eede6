"""DparaPLL baseline: cover property, ALS explosion with q, replica OOM."""
import numpy as np
import pytest

from repro.core.query import QueryIndex
from repro.dist.engine import OOMError
from repro.dist.parapll_dist import dpara_pll
from tests.helpers import chl, dist_matrix, graph, rank_of


@pytest.mark.parametrize("name", ["CAL", "SKIT", "POK"])
@pytest.mark.parametrize("q", [1, 4])
def test_cover_property(name, q):
    g = graph(name)
    r = dpara_pll(None, g, rank_of(name), q=q)
    idx = QueryIndex.from_store(r.store)
    D = dist_matrix(name)
    rng = np.random.default_rng(13)
    for _ in range(200):
        u, v = rng.integers(0, g.n, 2)
        assert idx.query(int(u), int(v)) == D[u][v]


@pytest.mark.parametrize("name", ["CAL", "POK"])
def test_als_explodes_with_q(name):
    """Fig. 9: without rank queries, ALS grows as nodes lose sight of
    each other's high-rank labels."""
    g, rank = graph(name), rank_of(name)
    a1 = dpara_pll(None, g, rank, q=1).stats["als"]
    a8 = dpara_pll(None, g, rank, q=8).stats["als"]
    assert a8 > a1
    assert a1 >= chl(name).als()


def test_replica_memory_is_total_labels():
    """Unlike DGLL, every node stores the whole labeling. Each label is
    generated once, on one node, and the nodes count what they generate."""
    r = dpara_pll(None, graph("SKIT"), rank_of("SKIT"), q=4)
    assert r.stats["mem_max_node"] == r.stats["labels_total"] * 8
    assert r.stats["explored_total"] == r.stats["labels_total"]


def test_oom():
    with pytest.raises(OOMError):
        dpara_pll(None, graph("POK"), rank_of("POK"), q=4, budget_bytes=256)


def test_comm_heavier_than_hybrid():
    from repro.dist.hybrid import hybrid

    name = "POK"
    g, rank = graph(name), rank_of(name)
    dp = dpara_pll(None, g, rank, q=4)
    hy = hybrid(None, g, rank, q=4, psi_th=100.0)
    assert dp.stats["comm"]["total_bytes"] > hy.stats["comm"]["total_bytes"]


def test_deadline():
    r = dpara_pll(None, graph("POK"), rank_of("POK"), q=2, deadline_s=0.0)
    assert r.stats["timed_out"]
