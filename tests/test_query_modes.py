"""§6 query modes: agreement, memory layout, routing, budget gating."""
import numpy as np
import pytest

import repro.dist.dgll as dgll_mod
import repro.dist.query_modes as query_modes
from repro.core.labels import INF, LABEL_BYTES
from repro.core.pll import seq_pll
from repro.core.query import QueryIndex
from repro.core.reference import ground_truth_pairs
from repro.dist.plant_dist import plant_dist
from repro.dist.query_modes import (
    evaluate_query_modes,
    qdol_indices,
    qdol_node_of,
    shard_by_hub_owner,
    zeta_for,
)
from repro.graphs.csr import from_edges
from repro.graphs.ranking import degree_rank
from repro.synth_data import query_pairs
from tests.helpers import assert_batch_is_scalar, chl, dist_matrix, graph, rank_of

#: Degenerate graphs: one vertex; two vertices, no edge; an isolated
#: vertex (0) beside two components (1-2-3 and 4-5).
DEGENERATE = {
    "n1": (1, [], [], []),
    "n2_no_edge": (2, [], [], []),
    "isolated_and_two_components": (6, [1, 2, 4], [2, 3, 5], [2, 3, 1]),
}


def _degenerate(name):
    g = from_edges(*DEGENERATE[name])
    rank = degree_rank(g)
    pairs = np.array([(u, v) for u in range(g.n) for v in range(g.n)], dtype=np.int64)
    truth = ground_truth_pairs(g, pairs)["dist"].to_numpy()
    return g, seq_pll(g, rank)[0], rank, pairs, truth


def _assert_every_index_is_scalar(store, rank, q, pairs):
    """The batch kernel equals the scalar query on the full index, on every
    QFDL shard and on every QDOL node, where partial answers stay INF."""
    for index in (
        [QueryIndex.from_store(store)]
        + shard_by_hub_owner(store, rank, q)
        + list(qdol_indices(store, q)[1].values())
    ):
        assert_batch_is_scalar(index, pairs)


def test_zeta_values():
    # C(6,2)=15 ≤ 16; C(7,2)=21 > 16
    assert zeta_for(16) == 6
    assert zeta_for(64) == 11  # paper formula: (1+sqrt(513))/2 ≈ 11.8 → 11
    assert zeta_for(2) == 2


def test_qdol_node_of():
    z = 4
    assert qdol_node_of(1, 3, z) == (1, 3)
    assert qdol_node_of(3, 1, z) == (1, 3)
    assert qdol_node_of(2, 2, z) == (2, 3)
    assert qdol_node_of(3, 3, z) == (0, 3)  # wraps


@pytest.mark.parametrize("name", ["CAL", "SKIT", "POK"])
@pytest.mark.parametrize("q", [4, 16])
def test_all_modes_agree_and_match_truth(name, q):
    g = graph(name)
    pairs = query_pairs(n=g.n, n_queries=250, seed=q).values
    res = evaluate_query_modes(None, chl(name), rank_of(name), q, pairs)
    D = dist_matrix(name)
    truth = np.array([D[u][v] for u, v in pairs])
    for mode in ("QLSN", "QFDL", "QDOL"):
        assert res[mode]["supported"]
        assert np.array_equal(res[mode]["answers"], truth), mode
    _assert_every_index_is_scalar(chl(name), rank_of(name), q, pairs)


def test_qfdl_shards_partition_labels():
    name, q = "SKIT", 5
    store = chl(name)
    shards = shard_by_hub_owner(store, rank_of(name), q)
    assert sum(s.num_labels() for s in shards) == store.num_labels()
    # a hub's labels all land on one shard
    n = store.n
    rank = rank_of(name)
    for i, s in enumerate(shards):
        for v in range(n):
            for h in s.hubs[v]:
                assert int(n - 1 - rank[h]) % q == i


@pytest.mark.parametrize("name", ["CAL", "SKIT"])
@pytest.mark.parametrize("q", [3, 4])
def test_qfdl_shards_are_the_build_partition(name, q, monkeypatch):
    """Shard i of the QFDL layout is exactly node i's label shard after a
    distributed build: the two owner rules agree."""
    g, rank = graph(name), rank_of(name)
    built = {}

    def spy(read, n):  # the shards the driver read off the nodes
        built.update({i: frozenset(t) for i, t in read.items()})
        return collect_store(read, n)

    collect_store = dgll_mod.collect_store
    monkeypatch.setattr(dgll_mod, "collect_store", spy)
    store = plant_dist(None, g, rank, q).store
    shards = shard_by_hub_owner(store, rank, q)
    assert sorted(built) == list(range(q))
    for i, shard in enumerate(shards):
        assert shard.canonical_set() == built[i], i


def test_qdol_nodes_answer_only_their_own_pairs(monkeypatch):
    """Every query a QDOL node receives, in the batch and in the latency
    sample, is for a pair whose two partitions that node holds."""
    name, q = "CAL", 4
    nodes = {}

    def spy_indices(store, q):
        zeta, built = qdol_indices(store, q)
        nodes.update(built)
        return zeta, built

    batched, sampled = [], []
    query, query_batch = QueryIndex.query, QueryIndex.query_batch

    def spy_query(self, u, v):
        sampled.append((self, u, v))
        return query(self, u, v)

    def spy_query_batch(self, pairs):
        batched.extend((self, u, v) for u, v in np.asarray(pairs).tolist())
        return query_batch(self, pairs)

    monkeypatch.setattr(query_modes, "qdol_indices", spy_indices)
    monkeypatch.setattr(QueryIndex, "query", spy_query)
    monkeypatch.setattr(QueryIndex, "query_batch", spy_query_batch)
    pairs = query_pairs(n=graph(name).n, n_queries=300, seed=3).values
    res = evaluate_query_modes(None, chl(name), rank_of(name), q, pairs)
    zeta = res["QDOL"]["zeta"]
    key_of = {id(idx): k for k, idx in nodes.items()}
    everything = sorted(map(tuple, pairs.tolist()))
    for asked in (batched, sampled):  # the batch, then the whole pairs as sample
        got = [(key_of[id(idx)], u, v) for idx, u, v in asked if id(idx) in key_of]
        assert sorted((u, v) for _, u, v in got) == everything
        for key, u, v in got:
            assert key == qdol_node_of(u % zeta, v % zeta, zeta), (key, u, v)


def test_qdol_pairs_cover_all_partitions():
    name, q = "CAL", 16
    zeta, nodes = qdol_indices(chl(name), q)
    assert len(nodes) == zeta * (zeta - 1) // 2 <= q
    # node (i,j) holds exactly labels of vertices in partitions i and j
    for (i, j), idx in nodes.items():
        for v in range(idx.n):
            if len(idx.hubs[v]):
                assert v % zeta in (i, j)


def test_memory_model_relations():
    """Paper §6: QLSN total = q×L; QFDL total = L; QDOL total ≈ 2q/ζ × L."""
    name, q = "POK", 16
    store = chl(name)
    res = evaluate_query_modes(
        None, store, rank_of(name), q, query_pairs(n=store.n, n_queries=50).values
    )
    L = store.num_labels() * LABEL_BYTES
    assert res["QLSN"]["mem_total_bytes"] == q * L
    assert res["QFDL"]["mem_total_bytes"] == L
    zeta = res["QDOL"]["zeta"]
    assert res["QDOL"]["mem_total_bytes"] == pytest.approx(2 * L * len(
        [1 for i in range(zeta) for j in range(i + 1, zeta)]
    ) / zeta, rel=0.35)
    # ordering: QFDL < QDOL < QLSN (paper Table 4)
    assert (
        res["QFDL"]["mem_total_bytes"]
        < res["QDOL"]["mem_total_bytes"]
        < res["QLSN"]["mem_total_bytes"]
    )


def test_budget_gates_modes():
    """Table 4's '-' rows: per-node budget disables QLSN first."""
    name, q = "POK", 16
    store = chl(name)
    full = store.num_labels() * LABEL_BYTES
    res = evaluate_query_modes(
        None,
        store,
        rank_of(name),
        q,
        query_pairs(n=store.n, n_queries=20).values,
        node_budget_bytes=full // 2,
    )
    assert not res["QLSN"]["supported"]
    assert res["QFDL"]["supported"]
    assert "answers" not in res["QLSN"]


def test_latency_model_ordering():
    """Network model keeps the paper's latency ordering QLSN < QDOL < QFDL
    when per-query compute is comparable."""
    name, q = "SKIT", 16
    res = evaluate_query_modes(
        None, chl(name), rank_of(name), q,
        query_pairs(n=graph(name).n, n_queries=200).values,
    )
    assert res["QLSN"]["latency_s"] < res["QFDL"]["latency_s"]
    assert res["QDOL"]["latency_s"] < res["QFDL"]["latency_s"]


@pytest.mark.parametrize("name", sorted(DEGENERATE))
@pytest.mark.parametrize("q", [2, 4])
def test_modes_on_degenerate_graphs(name, q):
    g, store, rank, pairs, truth = _degenerate(name)
    assert (truth == INF).any() == (name != "n1")
    res = evaluate_query_modes(None, store, rank, q, pairs)
    for mode in ("QLSN", "QFDL", "QDOL"):
        assert np.array_equal(res[mode]["answers"], truth), mode
    _assert_every_index_is_scalar(store, rank, q, pairs)


def test_qdol_on_degenerate_graph_through_spark(spark):
    g, store, rank, pairs, truth = _degenerate("isolated_and_two_components")
    res = evaluate_query_modes(spark, store, rank, 4, pairs)
    assert np.array_equal(res["QDOL"]["answers"], truth)
