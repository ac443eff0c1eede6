"""PPSD query answering over a hub labeling.

Two paths:

* ``QueryIndex`` — the labeling itself (a ``LabelStore``) served for
  queries: a query builds a hub→dist dict of u's labels, probes it with
  v's labels and takes the min distance sum (no rank, no sort). This is
  the kernel the §6 query modes (QLSN/QFDL/QDOL) run on each simulated
  node.
* ``spark_query_df`` — the DataFrame/Spark SQL expression of the same
  computation (labels self-join on hub), used so every query-result test
  can be diffed against DuckDB via ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.labels import INF, LabelStore


class QueryIndex(LabelStore):
    """A ``LabelStore`` that answers PPSD queries from its own lists.

    May hold only a *subset* of labels (a node's shard in QFDL/QDOL); a
    partial index returns the min over the labels it has (INF if none),
    which is exactly the per-node partial result that the distributed
    modes min-reduce.
    """

    @classmethod
    def from_store(cls, store: LabelStore) -> "QueryIndex":
        """Serve ``store``'s labels; its per-vertex lists are shared, not copied."""
        return cls(store.n, store.hubs, store.dists)

    def query(self, u: int, v: int) -> int:
        """min over common hubs of d(u,h)+d(v,h); INF if none known here."""
        hu, hv = self.hubs[u], self.hubs[v]
        if not hu or not hv:
            return INF
        du = dict(zip(hu, self.dists[u]))
        best = INF
        for h, d in zip(hv, self.dists[v]):
            if h in du and du[h] + d < best:
                best = du[h] + d
        return best

    def query_batch(self, pairs: np.ndarray) -> np.ndarray:
        """Vector of answers for an (m, 2) array of query pairs."""
        query = self.query
        return np.fromiter(
            (query(u, v) for u, v in np.asarray(pairs).tolist()),
            dtype=np.int64,
            count=len(pairs),
        )


def labels_spark_df(spark: SparkSession, store: LabelStore) -> DataFrame:
    """Label table as a Spark DataFrame (v, hub, dist)."""
    return spark.createDataFrame(store.to_pandas())


def spark_query_df(
    spark: SparkSession, labels: DataFrame, pairs: pd.DataFrame
) -> DataFrame:
    """Answer PPSD queries with Spark SQL: self-join the label table on hub.

    ``pairs`` has columns (u, v); output has one row per input row —
    (qid, u, v, dist), qid being the input position, with dist = INF for
    pairs sharing no hub (so unreachable pairs stay comparable).
    """
    p = pairs[["u", "v"]].reset_index(drop=True).copy()
    p["qid"] = p.index.astype("int64")
    q = spark.createDataFrame(p)
    a = labels.select(
        F.col("v").alias("u"), F.col("hub").alias("hub_a"), F.col("dist").alias("du")
    )
    b = labels.select(
        F.col("v").alias("v2"), F.col("hub").alias("hub_b"), F.col("dist").alias("dv")
    )
    joined = (
        q.join(a, on="u", how="left")
        .join(b, (F.col("v") == F.col("v2")) & (F.col("hub_a") == F.col("hub_b")), how="left")
        .groupBy("qid", "u", "v")
        .agg(F.min(F.col("du") + F.col("dv")).alias("raw"))
    )
    return joined.select(
        "qid",
        "u",
        "v",
        F.coalesce(F.col("raw"), F.lit(INF)).cast("long").alias("dist"),
    )
