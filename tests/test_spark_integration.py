"""End-to-end Spark-mode integration: the same algorithms fanned out over
the real SparkSession must produce the CHL, with query results diffed
against DuckDB through the oracle."""
import numpy as np
import pytest

from repro.core import parallel
from repro.core.gll import construct_and_clean, gll
from repro.core.labels import LabelStore
from repro.core.lcc import lcc
from repro.core.parallel import build_trees, find_redundant, spark_map
from repro.core.parapll import spara_pll
from repro.core.query import QueryIndex, labels_spark_df, spark_query_df
from repro.core.reference import ground_truth_pairs
from repro.dist.dgll import dgll
from repro.dist.hybrid import hybrid
from repro.dist.parapll_dist import dpara_pll
from repro.dist.plant_dist import plant_dist
from repro.dist.query_modes import evaluate_query_modes
from repro.oracle import assert_equivalent
from repro.synth_data import graph_edges, query_pairs
from repro.graphs.ranking import roots_by_rank
from tests.helpers import TEST_SCALE, chl, chl_set, graph, rank_of
from tests.test_cluster import _count_jobs

NAMES = ["CAL", "SKIT"]


def _scale(xs, k):
    return [x * k for x in xs]


@pytest.mark.parametrize("n_items", [0, 1, 4, 10])
def test_spark_map_runs_one_slice_per_core(spark, n_items):
    """spark_map is one Spark job of min(len(items), defaultParallelism)
    tasks (one for no items), one per consecutive slice of near-equal
    length, and returns the spark=None results in item order."""
    items = list(range(n_items))
    n_slices = max(1, min(n_items, spark.sparkContext.defaultParallelism))
    group = f"spark-map-{n_items}"
    with _count_jobs(spark, group) as jobs:
        out = spark_map(spark, _scale, items, 3)
    assert jobs == [1]
    tracker = spark.sparkContext.statusTracker()
    job = tracker.getJobIdsForGroup(group)[0]
    assert sum(tracker.getStageInfo(s).numTasks for s in tracker.getJobInfo(job).stageIds) == n_slices
    assert out == spark_map(None, _scale, items, 3) == [3 * x for x in items]
    sizes = spark_map(spark, lambda xs: [len(xs)], items)
    assert len(sizes) == n_slices and sum(sizes) == n_items and max(sizes) - min(sizes) <= 1


@pytest.mark.parametrize("use_rank_queries", [True, False])
def test_spark_build_trees_equals_serial(spark, use_rank_queries):
    """The Spark branch of build_trees returns the serial trees, in roots
    order, for every root pruned against a partial snapshot."""
    name = "SKIT"
    g, rank = graph(name), rank_of(name)
    order = [int(r) for r in roots_by_rank(rank)]
    top = set(order[: g.n // 4])
    snapshot = [t for t in chl(name).triplets() if t[1] in top]
    visible = LabelStore.from_triplets(g.n, snapshot)
    roots = order[::-1]  # not the rank order, so the order is checked too
    args = (g, rank, roots, visible)
    trees = build_trees(spark, *args, use_rank_queries=use_rank_queries)
    assert [r for r, _ in trees] == roots
    assert trees == build_trees(None, *args, use_rank_queries=use_rank_queries)


def test_spark_find_redundant_equals_serial(spark, monkeypatch):
    """A cleaning round sent to Spark finds the serial redundant set. The
    round is m disjoint copies of one uncleaned labeling (vertex and rank
    ids shifted per copy), so every candidate and every redundant label is
    distinct. A negative job cost makes fan_out pick Spark on any core
    count, so all but the round's last candidate run as one Spark job."""
    monkeypatch.setattr(parallel, "SPARK_JOB_S", -1.0)
    name = "POK"
    g, rank = graph(name), rank_of(name)
    store, _ = construct_and_clean(None, g, rank, p=16, alpha=None, clean=False)
    one = store.triplets()
    m, n = 4, g.n
    ranks = np.concatenate([rank + c * n for c in range(m)])
    cands = [(v + c * n, h + c * n, d) for c in range(m) for v, h, d in one]
    witness = LabelStore.from_triplets(m * n, cands)
    with _count_jobs(spark, "find-redundant") as jobs:
        doomed = find_redundant(spark, witness, cands, ranks)
    assert jobs == [1]
    assert doomed == find_redundant(None, witness, cands, ranks)
    once = find_redundant(None, store, one, rank)
    assert once and doomed == {(v + c * n, h + c * n) for c in range(m) for v, h in once}


def test_spark_gll_fans_out_when_jobs_cost_nothing(spark, monkeypatch):
    """With a negative job cost every batch and every cleaning round fans
    out after its last item, on any core count, and GLL still builds the
    CHL."""
    monkeypatch.setattr(parallel, "SPARK_JOB_S", -1.0)
    name = "SKIT"
    with _count_jobs(spark, "gll-free-jobs") as jobs:
        store, _ = gll(spark, graph(name), rank_of(name), p=8)
    assert store.canonical_set() == chl_set(name)
    assert jobs[0] > 0


@pytest.mark.parametrize("name", NAMES)
def test_spark_gll_equals_chl(spark, name):
    store, _ = gll(spark, graph(name), rank_of(name), p=8)
    assert store.canonical_set() == chl_set(name)


def test_spark_lcc_equals_chl(spark):
    store, _ = lcc(spark, graph("SKIT"), rank_of("SKIT"), p=8)
    assert store.canonical_set() == chl_set("SKIT")


@pytest.mark.parametrize("name", NAMES)
def test_spark_dgll_equals_chl(spark, name):
    r = dgll(spark, graph(name), rank_of(name), q=4)
    assert r.store.canonical_set() == chl_set(name)


@pytest.mark.parametrize("name", NAMES)
def test_spark_plant_dist_equals_chl(spark, name):
    r = plant_dist(spark, graph(name), rank_of(name), q=4)
    assert r.store.canonical_set() == chl_set(name)
    assert r.stats["comm"]["total_bytes"] == 0


def test_spark_hybrid_equals_chl(spark):
    r = hybrid(spark, graph("SKIT"), rank_of("SKIT"), q=4, psi_th=3.0)
    assert r.store.canonical_set() == chl_set("SKIT")
    assert r.stats["switch_pos"] <= graph("SKIT").n


def test_spark_dparapll_covers(spark):
    name = "SKIT"
    g = graph(name)
    r = dpara_pll(spark, g, rank_of(name), q=4)
    idx = QueryIndex.from_store(r.store)
    pairs = query_pairs(n=g.n, n_queries=150, seed=3).values
    truth = ground_truth_pairs(g, pairs.tolist())
    assert np.array_equal(idx.query_batch(pairs), truth["dist"].values)
    assert r.stats["als"] >= chl(name).als()


def test_spark_sparapll_labels_queryable_via_sql_oracle(spark):
    name = "CAL"
    g = graph(name)
    store, _ = spara_pll(spark, g, rank_of(name), p=8)
    pairs = query_pairs(n=g.n, n_queries=100, seed=5)
    truth = ground_truth_pairs(g, pairs.values.tolist()).reset_index(drop=True)
    truth["qid"] = truth.index.astype("int64")
    qdf = spark_query_df(spark, labels_spark_df(spark, store), pairs)
    assert_equivalent(qdf, "SELECT qid, u, v, dist FROM truth", truth=truth)


@pytest.mark.parametrize("name", NAMES)
def test_spark_query_modes_match_truth(spark, name):
    g = graph(name)
    pairs = query_pairs(n=g.n, n_queries=200, seed=7).values
    res = evaluate_query_modes(spark, chl(name), rank_of(name), 8, pairs)
    truth = ground_truth_pairs(g, pairs.tolist())["dist"].values
    for mode in ("QLSN", "QFDL", "QDOL"):
        assert np.array_equal(res[mode]["answers"], truth), mode
        assert res[mode]["throughput_qps"] > 0
        assert res[mode]["latency_s"] > 0


def test_graph_edges_dataframe_matches_csr(spark):
    name = "SKIT"
    df = graph_edges(spark, name, scale=TEST_SCALE)
    g = graph(name)
    assert df.count() == g.m
    # weight totals agree between the DataFrame and CSR forms (via DuckDB)
    from pyspark.sql import functions as F

    agg = df.agg(
        F.count("*").alias("m"), F.sum("w").cast("long").alias("tw")
    )
    assert_equivalent(
        agg,
        "SELECT COUNT(*) AS m, SUM(w)::BIGINT AS tw FROM edges",
        edges=g.edge_pandas(),
    )
