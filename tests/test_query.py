"""PPSD query answering: the label-store index and the Spark SQL path (oracle-checked)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.labels import INF, LabelStore
from repro.core.query import BATCH_CHUNK, QueryIndex, labels_spark_df, spark_query_df
from repro.core.reference import ground_truth_pairs
from repro.graphs.csr import from_edges
from repro.oracle import assert_equivalent
from repro.synth_data import query_pairs
from tests.helpers import assert_batch_is_scalar, chl, dist_matrix, graph, rank_of


@pytest.mark.parametrize("name", ["CAL", "SKIT", "ACT", "POK"])
def test_query_index_exact(name):
    """A batch longer than one chunk, with u == v pairs, answers exactly."""
    g = graph(name)
    idx = QueryIndex.from_store(chl(name))
    D = dist_matrix(name)
    pairs = query_pairs(n=g.n, n_queries=2 * BATCH_CHUNK + 7).values
    pairs[::50, 1] = pairs[::50, 0]
    ans = idx.query_batch(pairs)
    truth = np.array([D[u][v] for u, v in pairs])
    assert np.array_equal(ans, truth)
    assert_batch_is_scalar(idx, pairs)


def test_self_query_zero():
    idx = QueryIndex.from_store(chl("CAL"))
    for v in (0, 5, 17):
        assert idx.query(v, v) == 0


def test_unreachable_pair_inf():
    # two components: 0-1 and 2-3
    g = from_edges(4, [0, 2], [1, 3], [1, 1])
    rank = np.array([3, 2, 1, 0])
    from repro.core.pll import seq_pll

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
    from repro.core.pll import seq_pll

    store, _ = seq_pll(g, rank)
    pairs = pd.DataFrame({"u": [0], "v": [2]}).astype("int64")
    out = spark_query_df(spark, labels_spark_df(spark, store), pairs).toPandas()
    assert out["dist"].iloc[0] == INF
