"""GLL — Global Local Labeling (paper §4.2) and the shared engine behind
LCC (§4.1) and SparaPLL (§3 baseline).

The engine processes roots in decreasing rank order in growing batches
(the Spark image of threads popping a rank-ordered task queue). Labels
generated since the last commit form the *local table*; construction
prunes against global ∪ local (paper footnote 4). When the local table
exceeds α·n labels, a superstep boundary runs DQ_Clean over local labels
only — the global table was already consulted during construction, so
re-querying it is the waste GLL eliminates relative to LCC.

Parameterisation:
* GLL       → clean=True,  alpha=4
* LCC       → clean=True,  alpha=None   (single final cleaning over all labels)
* SparaPLL  → clean=False, use_rank_queries=False (redundant labels survive)
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core.labels import LabelStore
from repro.core.parallel import build_trees, find_redundant, run_sampled
from repro.graphs.csr import CSRGraph
from repro.graphs.ranking import roots_by_rank


def construct_and_clean(
    spark: SparkSession | None,
    g: CSRGraph,
    rank: np.ndarray,
    *,
    p: int = 16,
    alpha: float | None = 4.0,
    clean: bool = True,
    use_rank_queries: bool = True,
    max_batch: int = 512,
    deadline_s: float | None = None,
) -> tuple[LabelStore, dict]:
    """Shared optimistic-parallel label construction engine.

    Returns the final LabelStore and a stats dict with construction /
    cleaning time split, superstep count, and redundancy counts.
    """
    n = g.n
    order = roots_by_rank(rank)
    store = LabelStore(n)  # always holds global ∪ local
    local: list[tuple[int, int, int]] = []  # uncommitted (v, hub, dist)
    stats = {
        "supersteps": 0,
        "labels_generated": 0,
        "labels_cleaned": 0,
        "time_construct": 0.0,
        "time_clean": 0.0,
        "timed_out": False,
        "trees": 0,
    }
    t_start = time.perf_counter()

    def run_cleaning(candidates, *, local_only: bool):
        t0 = time.perf_counter()
        # GLL (local_only): witnesses restricted to this superstep's hubs —
        # already-committed hubs were consulted during construction, so
        # they cannot witness a surviving label (see find_redundant doc).
        witness = (
            LabelStore.from_triplets(n, candidates) if local_only else store
        )
        doomed = find_redundant(spark, witness, candidates, rank)
        if doomed:
            stats["labels_cleaned"] += store.delete(doomed)
        stats["time_clean"] += time.perf_counter() - t0
        stats["supersteps"] += 1

    def run(target, roots):
        return build_trees(target, g, rank, roots, store, use_rank_queries=use_rank_queries)

    pos = 0
    batch_size = p
    while pos < n:
        if deadline_s is not None and time.perf_counter() - t_start > deadline_s:
            stats["timed_out"] = True
            break
        batch = order[pos : pos + batch_size]
        pos += len(batch)
        batch_size = min(max_batch, batch_size * 2)
        t0 = time.perf_counter()
        # Every tree of the batch prunes against the same snapshot, the
        # store before this batch's commit, wherever it runs.
        results = run_sampled(spark, run, batch)
        new = [(v, root, d) for root, labels in results for v, d in labels]
        store.commit(new)
        local.extend(new)
        stats["labels_generated"] += len(new)
        stats["trees"] += len(batch)
        stats["time_construct"] += time.perf_counter() - t0
        if clean and alpha is not None and len(local) >= alpha * n:
            run_cleaning(local, local_only=True)
            local = []
    if clean and local and not stats["timed_out"]:
        run_cleaning(local, local_only=alpha is not None)
    stats["time_s"] = time.perf_counter() - t_start
    stats["als"] = store.als()
    return store, stats


def gll(spark, g, rank, *, p=16, alpha=4.0, deadline_s=None):
    """Global Local Labeling — interleaved cleaning at the α·n threshold."""
    return construct_and_clean(
        spark, g, rank, p=p, alpha=alpha, clean=True, deadline_s=deadline_s
    )
