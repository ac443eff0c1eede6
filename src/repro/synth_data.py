"""Synthetic data frames for the hub-labeling reproduction.

Graph edge lists of the Table-2 dataset analogues and PPSD query pairs,
deterministic in their arguments so the DuckDB oracle sees identical
input. The edge-list DataFrame feeds Spark SQL / DuckDB; the algorithms
consume the CSR form from repro.graphs (see DESIGN.md §2.2).
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def graph_edges(spark: SparkSession, name: str, *, scale: float = 1.0) -> DataFrame:
    """Edge list (src, dst, w) of a synthetic Table-2 dataset analogue.

    Deterministic in (name, scale); one row per undirected edge.
    """
    from repro.graphs.generators import build_dataset

    return spark.createDataFrame(build_dataset(name, scale).edge_pandas())


def query_pairs(*, n: int, n_queries: int, seed: int = 9) -> pd.DataFrame:
    """Uniform random PPSD query pairs (u, v) over vertex ids [0, n)."""
    g = np.random.default_rng(seed)
    return pd.DataFrame(
        {"u": g.integers(0, n, n_queries), "v": g.integers(0, n, n_queries)}
    ).astype("int64")
