"""DGLL — Distributed Global Local Labeling (paper §5.1).

Roots are assigned circularly by rank; each node builds its trees with
rank queries + distance queries against *its own label shard* (labels
are partitioned — optimisation 1), so early supersteps generate heavy
redundancy. Supersteps grow by a factor β (optimisation 2); at each
boundary the superstep's labels are broadcast, and the next superstep
cleans them before it builds: every node answers the cleaning queries it
can (bitvector) against its shard, the bitvectors come back with the
superstep's outputs and are all-reduced, and owners drop the redundant
labels as the superstep after that starts. The last window is cleaned
by one superstep that builds nothing. The final labeling is the CHL; the
cost is the metered label broadcast traffic that limits DGLL's scaling.

``run_windows`` here is the one windowed driver behind DGLL, distributed
PLaNT and Hybrid: the three differ only in the Ψ threshold at which the
driver switches a window from PLaNT to DGLL (paper §5.2.1).
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.labels import LabelStore
from repro.dist.engine import (
    check_budget,
    collect_store,
    construct_fn,
    node_cluster,
    out_of_time,
    read_nodes,
)
from repro.graphs.csr import CSRGraph
from repro.graphs.ranking import roots_by_rank

#: Window growth factor β (paper §7.1).
BETA = 8


@dataclass
class DistResult:
    """Outcome of a distributed labeling run."""

    store: LabelStore | None
    stats: dict


def run_windows(
    spark: SparkSession | None,
    g: CSRGraph,
    rank: np.ndarray,
    q: int,
    *,
    psi_th: float,
    x1: int | None = None,
    eta: int,
    budget_bytes: int | None,
    deadline_s: float | None,
    collect: bool,
) -> DistResult:
    """Label all roots over β-growing rank windows, one engine per window.

    Windows start at ``x1`` roots (default max(16, q, η)). A window runs
    PLaNT while the previous PLaNT window's Ψ (vertices explored per
    label) is ≤ ``psi_th``; Ψ before position 0 counts as 0. After the
    first window over it, the rest runs DGLL with cleaning and window
    growth restarts at ``x1``. So Ψ_th = −∞ is DGLL, +∞ is PLaNT
    and a finite value is Hybrid. A finite Ψ_th also caps PLaNT windows
    at n/8, so the switch gets enough checkpoints before the tail is gone.
    The η top-ranked hubs' labels are replicated as the Common Label
    Table (§5.3); a node over ``budget_bytes`` raises OOMError.

    A superstep ends only where the driver has to act on a window: after
    a DGLL window (its labels are broadcast), a window holding top-η
    roots (its table rows are broadcast) or a PLaNT window when Ψ_th is
    finite (the switch check). Consecutive windows up to such a point run
    as one superstep, which reports every window on its own, so Ψ, the
    budget checks and the metered bytes are those of one superstep per
    window. A superstep first cleans the last DGLL window, whose doomed
    set the next one applies; a window left uncleaned at the end (or at a
    deadline stop) gets a superstep that builds nothing. When the last
    superstep leaves nothing to apply (it ends in a PLaNT window with no
    top-η root), the run's read rides on it. The deadline is checked
    between supersteps, so a run can overrun it by one superstep;
    ``stats["supersteps"]`` counts the windows run.
    """
    t0 = time.perf_counter()
    n = g.n
    x1 = x1 or max(16, q, eta)
    top_hubs = [int(r) for r in roots_by_rank(rank)[:eta]]
    top = frozenset(top_hubs)
    cap = max(x1, n // 8) if math.isfinite(psi_th) else n
    keep = (lambda i, st: st.store.triplets()) if collect else (lambda i, st: None)
    with node_cluster(spark, g, rank, q, top_hubs) as (cluster, get):
        build = {e: construct_fn(get, e, top, keep) for e in ("plant", "dgll")}
        plant = psi_th >= 0.0  # Ψ before position 0 counts as 0
        switch_pos = None if plant else 0
        psi_per_window = []
        pos, x, windows, timed_out = 0, x1, 0, False
        updates = None  # the last superstep's, applied by the next one
        clean = None  # the last DGLL window's labels, cleaned by the next one
        reads = None  # the nodes' read, when it rode on the last superstep
        while True:
            timed_out = pos < n and out_of_time(t0, deadline_s)
            plan, end = [], pos  # this superstep's windows
            while end < n and not timed_out:
                w = min(int(x), n - end, cap if plant else n)
                plan.append((end, w))
                end, x = end + w, x * BETA
                if not plant or end - w < eta or math.isfinite(psi_th):
                    break  # the driver acts on this window
            if not plan and not clean:
                break
            read = plant and end == n and plan[-1][0] >= eta
            outs = cluster.superstep(
                build["plant" if plant else "dgll"],
                {"windows": plan, "q": q, "updates": updates, "clean": clean, "read": read},
            )
            if read:
                reads = {i: o.pop("read") for i, o in outs.items()}
            # DGLL cleaning of the last window: the bitvector all-reduce
            doomed = cluster.allreduce_or({i: o["redundant"] for i, o in outs.items()}) if clean else set()
            new = []
            for k, (p, w) in enumerate(plan):
                per_node = {i: o["windows"][k] for i, o in outs.items()}
                check_budget({i: o.pop("mem") for i, o in per_node.items()}, budget_bytes)
                new += [t for o in per_node.values() for t in o["new"]]
                if top_hubs or not plant:
                    cluster.gather(per_node)  # labels leave their nodes: metered
                if plant:
                    explored = sum(o["explored_window"] for o in per_node.values())
                    n_new = sum(o["n_labels"] for o in per_node.values())
                    psi_per_window.append((p, w, explored / max(1, n_new)))
            clean = cluster.broadcast(new) if new and not plant else None  # label broadcast
            # The top-η hubs' labels are replicated everywhere (§5.3) at once and
            # unfiltered (a redundant row is a path length, DESIGN §4), metered.
            by_hub: dict[int, list] = {}
            for v, h, d in new:
                if h in top:
                    by_hub.setdefault(h, []).append((v, d))
            common_updates = sorted(by_hub.items())
            updates = None
            if doomed or common_updates:
                updates = cluster.broadcast({"doomed": doomed, "common_updates": common_updates})
            pos, windows = end, windows + len(plan)
            if plant and psi_per_window[-1][2] > psi_th:
                plant, x, switch_pos = False, x1, pos
        stats, shards = read_nodes(cluster, keep, updates, budget_bytes, reads)
        stats.update(
            psi_per_window=psi_per_window,
            timed_out=timed_out,
            switch_pos=pos if switch_pos is None else switch_pos,
            supersteps=windows,
            als=stats["labels_total"] / max(n, 1),
            time_s=time.perf_counter() - t0,
        )
        store = collect_store(shards, n) if collect else None
        return DistResult(store, stats)


def dgll(
    spark: SparkSession | None,
    g: CSRGraph,
    rank: np.ndarray,
    q: int,
    *,
    x1: int | None = None,
    eta: int = 0,
    budget_bytes: int | None = None,
    deadline_s: float | None = None,
    collect: bool = True,
) -> DistResult:
    """Full DGLL run over all roots. ``eta>0`` adds the Common Label Table
    (that variant is what Hybrid's second phase uses)."""
    return run_windows(
        spark, g, rank, q, psi_th=-math.inf, x1=x1, eta=eta,
        budget_bytes=budget_bytes, deadline_s=deadline_s, collect=collect,
    )
