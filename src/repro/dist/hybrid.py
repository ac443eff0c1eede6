"""Hybrid PLaNT + DGLL (paper §5.2.1 + §5.3).

Phase A PLaNTs the high-ranked trees — they generate the bulk of the
labels with low Ψ, so communication avoidance wins. Per β-growing window
the driver monitors Ψ (vertices explored per label generated); once it
exceeds Ψ_th the algorithm switches to DGLL for the long low-yield tail,
where heavy pruning (boosted by the replicated Common Label Table of the
η top hubs) wins. Both phases write into the same partitioned shards, so
the output is the CHL with only O(tail) label traffic.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

# collect_store is re-exported so perfbench's tracer can wrap it here too.
from repro.dist.dgll import DistResult, collect_store, run_windows  # noqa: F401
from repro.graphs.csr import CSRGraph


def hybrid(
    spark: SparkSession | None,
    g: CSRGraph,
    rank: np.ndarray,
    q: int,
    *,
    psi_th: float = 100.0,
    eta: int = 16,
    budget_bytes: int | None = None,
    deadline_s: float | None = None,
    collect: bool = True,
) -> DistResult:
    """Run the Hybrid algorithm on ``q`` simulated nodes.

    Defaults follow the paper (§7.1): η=16, Ψ_th=100 for scale-free
    graphs (callers pass 500 for road networks); β=8 is ``dgll.BETA``.
    """
    return run_windows(
        spark, g, rank, q, psi_th=psi_th, eta=eta,
        budget_bytes=budget_bytes, deadline_s=deadline_s, collect=collect,
    )
