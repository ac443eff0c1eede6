"""DparaPLL baseline (paper §3/§7): distributed paraPLL.

Roots are statically split across nodes in rank-circular order; every
node runs SparaPLL (distance queries only, no rank queries) on its queue,
as ``engine.construct_fn`` with engine ``"parapll"``. Unlike DGLL, every
node keeps a *full replica* of all labels: at each of the ~log₈ n
equal-sized synchronisations, every node's new labels are broadcast and
merged into every replica by the next superstep's ``updates["merge"]``.
That gives the paper's two failure modes, which we meter and model:

* label-size explosion with q (no rank queries, stale pruning views);
* per-node memory = the entire labeling → OOM on large graphs.
"""
from __future__ import annotations

import math
import time

import numpy as np
from pyspark.sql import SparkSession

from repro.dist.dgll import DistResult
from repro.dist.engine import check_budget, construct_fn, node_cluster, out_of_time, read_nodes
from repro.graphs.csr import CSRGraph


def dpara_pll(
    spark: SparkSession | None,
    g: CSRGraph,
    rank: np.ndarray,
    q: int,
    *,
    budget_bytes: int | None = None,
    deadline_s: float | None = None,
    collect: bool = True,
) -> DistResult:
    """Run DparaPLL on ``q`` nodes; raises OOMError over ``budget_bytes``.

    A node's ``store`` is its full label replica, not a shard.
    """
    t0 = time.perf_counter()
    n = g.n
    n_syncs = max(1, round(math.log(max(2, n)) / math.log(8)))  # ~log₈ n
    step = max(1, math.ceil(n / n_syncs))  # equal supersteps, unlike DGLL
    with node_cluster(spark, g, rank, q) as (cluster, get):
        build = construct_fn(get, "parapll")
        timed_out = False
        pos = 0
        updates = None  # the last sync's full label exchange, merged by the next superstep
        while pos < n:
            if out_of_time(t0, deadline_s):
                timed_out = True
                break
            outs = cluster.superstep(build, {"windows": [(pos, step)], "q": q, "updates": updates})
            window = {i: o["windows"][0] for i, o in outs.items()}
            check_budget({i: w["mem"] for i, w in window.items()}, budget_bytes)
            new = cluster.gather({i: w["new"] for i, w in window.items()})
            updates = {"merge": cluster.broadcast(new)}
            pos += step
        # every replica holds the whole labeling after each merge (in append
        # order, which no reader depends on): the driver keeps node 0's
        stats, kept = read_nodes(cluster, lambda i, st: st.store if collect and i == 0 else None,
                                 updates, budget_bytes)
        labels_total = stats["labels_total"] // q
        stats.update(
            labels_total=labels_total,
            time_s=time.perf_counter() - t0,
            timed_out=timed_out,
            supersteps=pos // step,  # windows actually run
            als=labels_total / max(n, 1),
        )
        return DistResult(kept[0], stats)
