"""PPSD query answering over a hub labeling.

Two paths:

* ``QueryIndex`` — the labeling itself (a ``LabelStore``) served for
  queries. ``query_batch`` is the kernel the §6 query modes
  (QLSN/QFDL/QDOL) run on each simulated node: per call it flattens the
  lists into a CSR with hubs sorted within each vertex (the PLL layout,
  Akiba et al. 2013) and joins a chunk of pairs at a time on hub with
  numpy. ``query`` answers one pair from the lists themselves (a
  hub→dist dict of u's labels probed with v's) for point queries.
* ``spark_query_df`` — the DataFrame/Spark SQL expression of the same
  computation (labels self-join on hub), used so every query-result test
  can be diffed against DuckDB via ``repro.oracle.assert_equivalent``.
"""
from __future__ import annotations

from itertools import chain

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.labels import INF, LabelStore

#: Pairs joined per step of ``query_batch``; bounds its key arrays to a
#: few MB even on dense labels.
BATCH_CHUNK = 2048


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
        """Vector of answers for an (m, 2) array of query pairs.

        Equal to ``query`` pair by pair: a pair whose ends share no hub
        here stays INF."""
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        out = np.full(len(pairs), INF, dtype=np.int64)
        n = self.n
        lens = np.fromiter(map(len, self.hubs), dtype=np.int64, count=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        total = int(indptr[-1])
        hubs = np.fromiter(chain.from_iterable(self.hubs), dtype=np.int64, count=total)
        dists = np.fromiter(chain.from_iterable(self.dists), dtype=np.int64, count=total)
        order = np.argsort(np.repeat(np.arange(n, dtype=np.int64) * n, lens) + hubs)
        hubs, dists = hubs[order], dists[order]

        def side(ends):
            """Positions of the ends' labels, and their keys qid·n + hub,
            ascending because each vertex's hubs are sorted."""
            cnt = lens[ends]
            stop = np.cumsum(cnt)
            pos = np.arange(stop[-1]) + np.repeat(indptr[ends] - stop + cnt, cnt)
            return pos, np.repeat(np.arange(len(ends), dtype=np.int64) * n, cnt) + hubs[pos]

        for lo in range(0, len(pairs), BATCH_CHUNK):
            chunk = pairs[lo:lo + BATCH_CHUNK]
            pu, ku = side(chunk[:, 0])
            pv, kv = side(chunk[:, 1])
            if not len(ku):
                continue
            at = np.minimum(np.searchsorted(ku, kv), len(ku) - 1)
            hit = ku[at] == kv
            if not hit.any():
                continue
            qid = kv[hit] // n
            sums = dists[pu[at[hit]]] + dists[pv[hit]]
            first = np.flatnonzero(np.r_[True, qid[1:] != qid[:-1]])
            out[lo + qid[first]] = np.minimum.reduceat(sums, first)
        return out


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
