"""Spark fan-out primitives shared by the parallel labeling algorithms.

A *batch* of SPT roots is the unit of optimistic parallelism: every tree
in a batch prunes against the same frozen label snapshot (what the
committed global table held when the batch launched), exactly the
mistake mode LCC/GLL are designed to correct (DESIGN.md §2). The graph
and the snapshot travel to executors as broadcast variables; results
come back as plain (root, labels) lists.

``spark_map`` is the one stateless fan-out (broadcast → ``parallelize``
one slice of the items per core → ``collect``): tree batches, large
cleaning rounds and the query modes' batches all run through it, each as
one call and one task wave. With ``spark=None`` it runs the identical
computation on the driver as one slice — unit tests use that path;
integration tests and benchmarks use Spark.

Every task function repro ships to Spark starts with
``freeze_worker_archives``. PySpark's worker calls
``importlib.invalidate_caches()`` before every task, and on CPython 3.11
that makes each cached ``zipimporter`` re-read its archive's directory:
the spark-core jar, ``pyspark.zip`` and the py4j zip, about 16 importers
and 27 000 entries, most of a trivial task's time. Those archives never
change during a run, so the first task in each worker freezes their
importers.
"""
from __future__ import annotations

import os
import sys
import zipimport

import numpy as np
from pyspark.sql import SparkSession

from repro.core.dijkstra import as_list, prune_dij_rq
from repro.core.labels import LabelStore
from repro.graphs.csr import CSRGraph


class _FrozenZipImporter(zipimport.zipimporter):
    """A ``zipimporter`` whose archive does not change: it keeps the
    directory it read when the import system invalidates caches."""

    def invalidate_caches(self):
        pass


def freeze_archives(cache: dict, files_root: str) -> None:
    """Freeze every plain ``zipimporter`` in ``cache`` (an importer cache
    such as ``sys.path_importer_cache``) whose archive is not under
    ``files_root``, where ``addPyFile`` archives live and may change.
    Other finders, and importers of any other type, are left as they are,
    so where the import system differs this does nothing."""
    files_root = os.path.join(files_root, "")
    for finder in cache.values():
        if type(finder) is zipimport.zipimporter and not finder.archive.startswith(files_root):
            finder.__class__ = _FrozenZipImporter


_worker_archives_frozen = False


def freeze_worker_archives() -> None:
    """Freeze this Python worker's archive importers, once per process.
    Called at the start of every task function repro sends to Spark,
    never on the driver."""
    global _worker_archives_frozen
    if _worker_archives_frozen:
        return
    _worker_archives_frozen = True
    from pyspark import SparkFiles

    freeze_archives(sys.path_importer_cache, SparkFiles.getRootDirectory())


def spark_map(spark: SparkSession | None, fn, items, *shared) -> list:
    """``fn(slice, *shared)``, which returns a list, run over consecutive
    slices of ``items`` of near-equal length, the results joined in
    ``items`` order. On Spark there is one slice per core,
    ``min(len(items), defaultParallelism)`` of them, each one task, so the
    job is one task wave; each ``shared`` value travels once as a
    broadcast. With ``spark`` None, ``items`` is one slice on the driver."""
    if spark is None:
        return fn(items, *shared)
    sc = spark.sparkContext
    k = max(1, min(len(items), sc.defaultParallelism))
    slices = [items[i * len(items) // k : (i + 1) * len(items) // k] for i in range(k)]
    bcs = [sc.broadcast(s) for s in shared]

    def task(part):
        freeze_worker_archives()
        return fn(part, *(b.value for b in bcs))

    try:
        return [x for part in sc.parallelize(slices, k).map(task).collect() for x in part]
    finally:
        for b in bcs:
            b.unpersist()


def build_trees(
    spark: SparkSession | None,
    g: CSRGraph,
    rank: np.ndarray,
    roots,
    visible: LabelStore,
    *,
    use_rank_queries: bool = True,
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Construct pruned SPTs for ``roots`` against a frozen ``visible`` snapshot.

    Returns [(root, [(v, dist), ...])], in ``roots`` order.
    """

    def trees(part, g, rank, visible):
        return [(r, prune_dij_rq(g, rank, r, visible, use_rank_queries=use_rank_queries))
                for r in part]

    return spark_map(spark, trees, [int(r) for r in roots], g, as_list(rank), visible)


def dq_clean(hubs_v, dists_v, hubs_h, dists_h, h: int, delta: int, rank) -> bool:
    """Alg. 2's DQ_Clean: is label (h, delta) of v redundant?

    True iff some common hub w of L_v and L_h with R(w) > R(h) satisfies
    d(v,w) + d(h,w) ≤ delta. Label lists are in append order, so L_h
    becomes a hub→dist dict, L_v probes it, and rank is checked only on
    a hit that is short enough. ``rank`` is a list or numpy array.
    """
    rh = rank[h]
    dist_h = dict(zip(hubs_h, dists_h))
    for w, d in zip(hubs_v, dists_v):
        e = dist_h.get(w)
        if e is not None and d + e <= delta and rank[w] > rh:
            return True
    return False


def eval_clean_chunk(chunk, witness: LabelStore, rank):
    """Redundant (v, h) pairs of a slice of (v, h, delta) candidates, in
    candidate order."""
    rank = as_list(rank)
    out = []
    hubs, dists = witness.hubs, witness.dists
    for v, h, delta in chunk:
        if v == h:
            continue  # self-labels are never redundant
        if dq_clean(hubs[v], dists[v], hubs[h], dists[h], h, delta, rank):
            out.append((v, h))
    return out


def find_redundant(
    spark: SparkSession | None,
    witness: LabelStore,
    candidates: list[tuple[int, int, int]],
    rank: np.ndarray,
) -> set[tuple[int, int]]:
    """Run DQ_Clean over candidate labels; returns the redundant (v, h) set.

    ``witness`` is the label table searched for covering hubs. LCC passes
    the full store; GLL passes only the current superstep's local table —
    a surviving label cannot be made redundant by an already-committed
    hub (the construction-time distance query would have pruned it), so
    restricting witnesses to same-superstep hubs is exact and is what
    drops GLL's cleaning complexity to O(n·α²) per superstep (paper §4.2).
    """
    # An empty spark_map job (4 tasks on local[4]) costs ~0.1 s; small
    # cleaning rounds (GLL's whole point is that they are small) run on the
    # driver, LCC-sized fan out.
    big = spark if len(candidates) >= 50_000 else None
    return set(spark_map(big, eval_clean_chunk, candidates, witness, rank))
