"""Independent DuckDB checks: recursive-CTE shortest paths, and label and
edge frames flowing through the oracle."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.dijkstra import reference_dijkstra
from repro.core.labels import INF
from repro.core.query import labels_spark_df
from repro.oracle import assert_equivalent
from repro.synth_data import graph_edges
from tests.helpers import TEST_SCALE, pll_store

#: Bounded-hop Bellman-Ford as a recursive CTE — a SQL-only shortest-path
#: oracle fully independent of any Python Dijkstra.
RECURSIVE_SSSP = """
WITH RECURSIVE
  sym AS (
    SELECT src, dst, w FROM edges
    UNION ALL
    SELECT dst AS src, src AS dst, w FROM edges
  ),
  walk(v, d, depth) AS (
    SELECT {src}::BIGINT, 0::BIGINT, 0
    UNION ALL
    SELECT sym.dst, walk.d + sym.w, walk.depth + 1
    FROM walk JOIN sym ON walk.v = sym.src
    WHERE walk.depth < {hops}
  )
SELECT v, MIN(d) AS dist FROM walk GROUP BY v ORDER BY v
"""


@pytest.mark.parametrize("src", [0, 3, 11])
def test_duckdb_recursive_cte_matches_dijkstra(src):
    from tests.helpers import random_connected_graph

    g = random_connected_graph(16, 8, 5, seed=2)  # tiny: CTE enumerates walks
    edges = g.edge_pandas()
    hops = 8
    con = duckdb.connect()
    con.register("edges", edges)
    got = con.execute(RECURSIVE_SSSP.format(src=src, hops=hops)).fetchdf()
    con.close()
    truth = reference_dijkstra(g, src)
    for v, d in zip(got["v"], got["dist"]):
        assert d >= truth[v]
    # within the hop bound the minimum over walks equals the true distance
    reached = dict(zip(got["v"].tolist(), got["dist"].tolist()))
    unit = np.ones_like(g.weights)
    gh = type(g)(g.n, g.indptr, g.indices, unit)
    hopd = reference_dijkstra(gh, src)
    for v in range(g.n):
        if hopd[v] <= hops:
            assert reached[v] == truth[v]


def test_oracle_passes_on_equal_frames(spark):
    lab = labels_spark_df(spark, pll_store("SKIT"))
    agg = lab.groupBy("hub").count().withColumnRenamed("count", "n")
    assert_equivalent(
        agg,
        "SELECT hub, COUNT(*) AS n FROM lab GROUP BY hub",
        lab=lab,
    )


def test_oracle_detects_wrong_result(spark):
    e = graph_edges(spark, "CAL", scale=TEST_SCALE)
    wrong = e.selectExpr("src", "dst", "w + 1 AS w")
    with pytest.raises(AssertionError):
        assert_equivalent(
            wrong,
            "SELECT src, dst, w FROM e",
            e=e,
        )


def test_inf_sentinel_roundtrips_through_duckdb():
    pdf = pd.DataFrame({"d": [INF, 5]})
    con = duckdb.connect()
    con.register("t", pdf)
    out = con.execute("SELECT MAX(d) AS m FROM t").fetchone()[0]
    con.close()
    assert out == INF
