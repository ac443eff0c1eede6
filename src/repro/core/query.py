"""PPSD query answering over a hub labeling.

Two paths:

* ``QueryIndex`` — the labeling itself (a ``LabelStore``) served for
  queries. ``query_batch`` is the kernel the §6 query modes
  (QLSN/QFDL/QDOL) run on each simulated node: per call it flattens the
  lists (unsorted), groups the pairs by u and, for a block of distinct u
  at a time, scatters their labels into dense rows over the index's own
  hubs (Akiba et al.'s temporary distance array, one row per u) that the
  v ends' labels probe with numpy. ``query`` answers one pair from the
  lists themselves (a hub→dist dict of u's labels probed with v's) for
  point queries.
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

#: Cells of ``query_batch``'s row buffer (int64, so 512 KB for any n): a
#: block holds ROW_CELLS // w distinct u ends of an index with w hubs.
ROW_CELLS = 1 << 16


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
        # Only pairs whose two ends both hold labels here can meet; this
        # also gives every kept pair a non-empty reduceat segment.
        live = np.flatnonzero((lens[pairs[:, 0]] > 0) & (lens[pairs[:, 1]] > 0))
        if not len(live):
            return out
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lens, out=indptr[1:])
        total = int(indptr[-1])
        hubs = np.fromiter(chain.from_iterable(self.hubs), dtype=np.int64, count=total)
        dists = np.fromiter(chain.from_iterable(self.dists), dtype=np.int64, count=total)
        # The index's own hubs are the columns 0..w-1 of a row.
        held = np.zeros(n, dtype=bool)
        held[hubs] = True
        w = int(np.count_nonzero(held))
        cols = (np.cumsum(held) - 1)[hubs]

        # Pairs grouped by u (numpy radix-sorts uint16), each pair's v
        # labels at pos voff[i]..voff[i+1] + shift[i] of the flat arrays.
        key = pairs[live, 0]
        order = live[np.argsort(key.astype(np.uint16) if n <= 1 << 16 else key, kind="stable")]
        us, vs = pairs[order, 0], pairs[order, 1]
        starts = np.r_[np.flatnonzero(np.r_[True, us[1:] != us[:-1]]), len(us)]
        cnt = lens[vs]
        voff = np.r_[0, np.cumsum(cnt)]
        shift = indptr[vs] - voff[:-1]
        # Distinct u b owns row b % k of the k x w buffer; ucell/udist
        # are its labels scattered into that row.
        k = max(1, ROW_CELLS // w)
        uniq = us[starts[:-1]]
        row = np.arange(len(uniq)) % k * w
        ucnt = lens[uniq]
        uoff = np.r_[0, np.cumsum(ucnt)]
        upos = np.arange(uoff[-1]) + np.repeat(indptr[uniq] - uoff[:-1], ucnt)
        ucell = np.repeat(row, ucnt) + cols[upos]
        udist = dists[upos]
        prow = np.repeat(row, np.diff(starts))

        D = np.full(k * w, INF, dtype=np.int64)
        for b in range(0, len(uniq), k):
            e = min(b + k, len(uniq))
            lo, hi = starts[b], starts[e]
            cells = ucell[uoff[b]:uoff[e]]
            D[cells] = udist[uoff[b]:uoff[e]]
            c = cnt[lo:hi]
            pos = np.arange(voff[lo], voff[hi]) + np.repeat(shift[lo:hi], c)
            sums = D[np.repeat(prow[lo:hi], c) + cols[pos]] + dists[pos]
            out[order[lo:hi]] = np.minimum.reduceat(sums, voff[lo:hi] - voff[lo])
            D[cells] = INF
        # A pair with no common hub summed INF + d.
        return np.minimum(out, INF, out=out)


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
