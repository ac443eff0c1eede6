"""PPSD query answering: the label-store index and the Spark SQL path (oracle-checked)."""
import numpy as np
import pandas as pd
import pytest

import repro.core.query as query_mod
from repro.core.labels import INF, LabelStore
from repro.core.pll import seq_pll
from repro.core.query import QueryIndex, labels_spark_df, spark_query_df
from repro.core.reference import all_pairs_dist, ground_truth_pairs
from repro.dist.query_modes import qdol_indices, shard_by_hub_owner
from repro.graphs.csr import from_edges
from repro.oracle import assert_equivalent
from repro.synth_data import query_pairs
from tests.helpers import (
    assert_batch_is_scalar,
    chl,
    dist_matrix,
    graph,
    random_rank,
    rank_of,
)


@pytest.mark.parametrize("name", ["CAL", "SKIT", "ACT", "POK"])
def test_query_index_exact(name):
    """A batch of many pairs per u, with u == v pairs, answers exactly."""
    g = graph(name)
    idx = QueryIndex.from_store(chl(name))
    D = dist_matrix(name)
    pairs = query_pairs(n=g.n, n_queries=4103).values
    pairs[::50, 1] = pairs[::50, 0]
    ans = idx.query_batch(pairs)
    truth = np.array([D[u][v] for u, v in pairs])
    assert np.array_equal(ans, truth)
    assert_batch_is_scalar(idx, pairs)


def _layouts(name, q=4):
    """The full index, every QFDL shard and every QDOL node of ``name``."""
    store, rank = chl(name), rank_of(name)
    return (
        [QueryIndex.from_store(store)]
        + shard_by_hub_owner(store, rank, q)
        + list(qdol_indices(store, q)[1].values())
    )


@pytest.mark.parametrize("row_cells", [1, 500])
@pytest.mark.parametrize("name", ["CAL", "POK"])
def test_query_batch_block_boundaries(name, row_cells, monkeypatch):
    """With one distinct u per row block (row_cells 1) or a few, a shuffled
    batch with repeated u, u == v pairs and pairs with one end unlabelled
    answers as the scalar query on every layout."""
    monkeypatch.setattr(query_mod, "ROW_CELLS", row_cells)
    n = graph(name).n
    rng = np.random.default_rng(5)
    pairs = np.concatenate([
        query_pairs(n=n, n_queries=300, seed=3).values,
        np.stack([np.full(40, 7), rng.integers(0, n, 40)], axis=1),  # one u, repeated
        np.repeat(rng.integers(0, n, (10, 1)), 2, axis=1),  # u == v
    ])
    pairs = pairs[rng.permutation(len(pairs))]
    one_sided = 0
    for index in _layouts(name):
        labelled = np.array([len(h) > 0 for h in index.hubs])
        one_sided += int((labelled[pairs[:, 0]] != labelled[pairs[:, 1]]).sum())
        assert_batch_is_scalar(index, pairs)
    assert one_sided  # the shards and QDOL nodes leave some vertices unlabelled


#: Degenerate graphs for the batch kernel: (n, src, dst, w).
DEGENERATE = {
    "n1": (1, [], [], []),
    "n2_edge": (2, [0], [1], [5]),
    "n2_no_edge": (2, [], [], []),
    "two_components": (4, [0, 2], [1, 3], [1, 1]),
}


def _degenerate_graphs():
    for name, edges in DEGENERATE.items():
        yield name, from_edges(*edges)
    # a ring of 24 with chords, all weights 1 (heavy distance ties), and an
    # isolated vertex 24
    rng = np.random.default_rng(9)
    src = np.r_[np.arange(24), rng.integers(0, 24, 30)]
    dst = np.r_[np.roll(np.arange(24), 1), rng.integers(0, 24, 30)]
    yield "equal_weights", from_edges(25, src, dst, np.ones(len(src), dtype=np.int64))


@pytest.mark.parametrize("name,g", list(_degenerate_graphs()), ids=[*DEGENERATE, "equal_weights"])
def test_query_batch_degenerate_indices(name, g):
    """Every pair of a degenerate graph answers its Dijkstra distance, and
    an unreachable pair exactly INF (never INF + d), on the full index and
    its partial layouts; an index with no labels answers INF everywhere."""
    rank = random_rank(g.n, seed=1)
    store, _ = seq_pll(g, rank)
    pairs = np.array([(u, v) for u in range(g.n) for v in range(g.n)], dtype=np.int64)
    truth = all_pairs_dist(g)[pairs[:, 0], pairs[:, 1]]
    ans = QueryIndex.from_store(store).query_batch(pairs)
    assert np.array_equal(ans, truth)
    assert (ans == INF).any() == (name in ("n2_no_edge", "two_components", "equal_weights"))
    for index in (
        [QueryIndex.from_store(store), QueryIndex(g.n)]
        + shard_by_hub_owner(store, rank, 3)
        + list(qdol_indices(store, 3)[1].values())
    ):
        assert_batch_is_scalar(index, pairs)
        assert index.query_batch(pairs).max() <= INF
    assert (QueryIndex(g.n).query_batch(pairs) == INF).all()


def test_self_query_zero():
    idx = QueryIndex.from_store(chl("CAL"))
    for v in (0, 5, 17):
        assert idx.query(v, v) == 0


def test_unreachable_pair_inf():
    # two components: 0-1 and 2-3
    g = from_edges(4, [0, 2], [1, 3], [1, 1])
    rank = np.array([3, 2, 1, 0])
    store, _ = seq_pll(g, rank)
    idx = QueryIndex.from_store(store)
    assert idx.query(0, 2) == INF
    assert idx.query(0, 1) == 1


def _index(n, triplets):
    return QueryIndex.from_store(LabelStore.from_triplets(n, triplets))


def test_partial_index_returns_partial_min():
    # an index holding only hub-1 labels answers through hub 1 alone
    idx = _index(2, [(0, 1, 3), (1, 1, 0)])
    assert idx.query(0, 1) == 3
    empty = _index(2, [])
    assert empty.query(0, 1) == INF
    # vertex 2 has no labels; vertices 0 and 3 share none
    sparse = _index(4, [(0, 0, 0), (0, 1, 4), (1, 1, 0), (3, 3, 0), (3, 1, 2)])
    pairs = [(0, 1), (1, 0), (0, 2), (2, 2), (2, 1), (0, 0), (3, 0), (3, 3), (1, 3)]
    for index in (idx, empty, sparse):
        assert_batch_is_scalar(index, np.zeros((0, 2), dtype=np.int64))
    for index, ps in ((idx, [(0, 1), (1, 1), (0, 0)]), (empty, [(0, 1), (1, 1)]), (sparse, pairs)):
        assert_batch_is_scalar(index, ps)
    assert sparse.query_batch(pairs).tolist() == [4, 4, INF, INF, INF, 0, 6, 0, 2]


def test_query_batch_wide_index():
    """Past n = 2**16 the pairs sort on an int64 key; hubs spread over the
    whole id range still map to a narrow row of their own columns."""
    n = (1 << 16) + 9
    hi = n - 1
    idx = _index(n, [(0, 0, 0), (0, hi, 5), (hi, hi, 0), (hi, 2, 7), (40000, 2, 1), (2, 2, 0)])
    pairs = [(hi, 0), (0, hi), (hi, 2), (2, 40000), (0, 2), (hi, hi), (5, 0), (hi, 6)]
    assert_batch_is_scalar(idx, pairs)
    assert idx.query_batch(pairs).tolist() == [5, 5, 7, 1, INF, 0, INF, INF]


def test_query_index_bytes():
    idx = _index(2, [(0, 1, 3), (1, 1, 0)])
    assert idx.bytes() == 16 and idx.num_labels() == 2


def test_from_store_shares_lists():
    """The index is the store's labels, not a copy of them."""
    store = chl("SKIT")
    idx = QueryIndex.from_store(store)
    assert idx.n == store.n
    assert idx.hubs is store.hubs and idx.dists is store.dists
    # a batch reads the lists without sorting or caching anything in them
    before = [list(h) for h in store.hubs], [list(d) for d in store.dists]
    idx.query_batch(query_pairs(n=store.n, n_queries=500).values)
    assert ([list(h) for h in store.hubs], [list(d) for d in store.dists]) == before
    assert idx.hubs is store.hubs and idx.dists is store.dists


# --------------------------------------------------------------------- #
# Spark SQL query path, diffed against DuckDB over the truth table.
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["SKIT", "CAL"])
def test_spark_sql_query_path_oracle(spark, name):
    g = graph(name)
    pairs = query_pairs(n=g.n, n_queries=120, seed=21)
    truth = ground_truth_pairs(g, pairs.values.tolist()).reset_index(drop=True)
    truth["qid"] = truth.index.astype("int64")
    qdf = spark_query_df(spark, labels_spark_df(spark, chl(name)), pairs)
    assert_equivalent(qdf, "SELECT qid, u, v, dist FROM truth", truth=truth)


def test_spark_sql_query_duplicates_preserved(spark):
    name = "SKIT"
    g = graph(name)
    pairs = pd.DataFrame({"u": [1, 1, 2], "v": [2, 2, 2]}).astype("int64")
    qdf = spark_query_df(spark, labels_spark_df(spark, chl(name)), pairs)
    assert qdf.count() == 3


def test_spark_sql_query_unreachable_is_inf(spark):
    g = from_edges(4, [0, 2], [1, 3], [1, 1])
    rank = np.array([3, 2, 1, 0])
    store, _ = seq_pll(g, rank)
    pairs = pd.DataFrame({"u": [0], "v": [2]}).astype("int64")
    out = spark_query_df(spark, labels_spark_df(spark, store), pairs).toPandas()
    assert out["dist"].iloc[0] == INF
