"""Distributed PLaNT (paper §5.2) — embarrassingly parallel CHL.

Every node PLaNTs the trees of its circularly-assigned roots against the
broadcast graph. No label ever crosses the network: each tree detects
redundancy intrinsically via ancestor tracking, so the output shards are
canonical by construction. Strong scaling is therefore limited only by
compute (the Fig. 8 near-linear curves); the price is the un-pruned
exploration measured by Ψ.
"""
from __future__ import annotations

import math

import numpy as np
from pyspark.sql import SparkSession

# collect_store is re-exported so perfbench's tracer can wrap it here too.
from repro.dist.dgll import DistResult, collect_store, run_windows  # noqa: F401
from repro.graphs.csr import CSRGraph


def plant_dist(
    spark: SparkSession | None,
    g: CSRGraph,
    rank: np.ndarray,
    q: int,
    *,
    eta: int = 0,
    deadline_s: float | None = None,
    collect: bool = True,
) -> DistResult:
    """Run PLaNT over all roots on ``q`` nodes.

    ``eta > 0`` additionally replicates the top-η hubs' labels (§5.3) to
    prune later trees — the only communication such a run performs.
    Windows exist purely to timestamp Ψ; with eta=0 they cause no traffic
    and no superstep of their own: the run is one superstep, which also
    returns the nodes' read (with eta > 0, two: the window holding the
    top-η roots, whose labels are broadcast, then the rest).
    """
    return run_windows(
        spark, g, rank, q, psi_th=math.inf, eta=eta,
        budget_bytes=None, deadline_s=deadline_s, collect=collect,
    )
