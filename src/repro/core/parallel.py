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
import time
import zipimport

import numpy as np
from pyspark.sql import SparkSession

from repro.core.dijkstra import as_list, distance_query, prune_dij_rq
from repro.core.labels import INF, LabelStore
from repro.graphs.csr import CSRGraph


#: Seconds one ``spark_map`` job of one task wave costs beyond its work.
#: Measured on Spark ``local[4]`` (4 cores, CPython 3.11, PySpark 4.1.2)
#: as the wall time of GLL tree batches whose trees take under 0.05 s on
#: the driver, so that the job is nearly all cost: 12 such batches of
#: 80–512 trees, one per graph and batch, on the n = 800 random graph of
#: degree 12 and Table 3's CAL, USA, POK and LIJ, read 0.13–0.26 s,
#: median 0.19 s. Fitting every batch of those runs (36, with up to 2.3 s
#: of trees) as cost + slope × driver seconds gives the same 0.18 s.
SPARK_JOB_S = 0.19


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


def fan_out(spark: SparkSession | None, serial_s: float) -> SparkSession | None:
    """Where to run work predicted to take ``serial_s`` seconds on the
    driver: ``spark`` if spreading it over ``defaultParallelism`` cores
    saves more than one Spark job costs, ``serial_s`` × (1 − 1/cores) >
    ``SPARK_JOB_S``, else None (the driver)."""
    if spark is None:
        return None
    saved = serial_s * (1 - 1 / spark.sparkContext.defaultParallelism)
    return spark if saved > SPARK_JOB_S else None


def run_sampled(spark: SparkSession | None, run, items) -> list:
    """``run(target, part)``, which returns a list, over ``items``, with
    the results joined in ``items`` order. The items run on the driver
    (``target`` None) from the end, in chunks of 1, 2, 4, … items, until
    the sample is long enough to go by and its seconds per item predict
    that the items left are worth a Spark job (``fan_out``); those then
    run as one ``run(spark, part)``.

    The sample comes from the end because GLL's trees come in rank order
    and shrink along it, so a sample from the front predicts the rest too
    slow. It must last a quarter of ``SPARK_JOB_S`` before it may send
    work to Spark: a sample of a few items is mostly a cleaning hub's
    array fill or a garbage collection, and on the n = 800 graph of
    ``kernel-dense`` such samples predicted 0.3–1.8 s for GLL batches and
    rounds that take under 0.2 s on the driver.
    """
    out, left, k, t0 = [], len(items), 1, time.perf_counter()
    while left:
        done, elapsed = len(items) - left, time.perf_counter() - t0
        if done and elapsed >= SPARK_JOB_S / 4 and fan_out(spark, elapsed / done * left):
            return run(spark, items[:left]) + out
        out = run(None, items[max(0, left - k) : left]) + out
        left, k = max(0, left - k), 2 * k
    return out


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


def eval_clean_chunk(chunk, witness: LabelStore, rank):
    """Redundant (v, h) pairs of a slice of (v, h, delta) candidates, in
    candidate order.

    Alg. 2's DQ_Clean: label (h, delta) of v is redundant iff some common
    hub w of L_v and L_h with R(w) > R(h) has d(v,w) + d(h,w) ≤ delta. That
    is Alg. 1's ``distance_query`` on ``above_h``, L_h's dense array of
    only those hubs (``above_h[w]`` = d(h, w) where R(w) > R(h), INF
    elsewhere), so a hit needs no rank check. The array is filled when the
    candidates' hub changes and its entries reset before the next hub's
    fill. GLL, LCC and DGLL hand the candidates over grouped by hub, so
    each hub is filled once; any other order gives the same pairs.
    """
    rank = as_list(rank)
    out = []
    hubs, dists = witness.hubs, witness.dists
    above_h = [INF] * witness.n
    h_cur = None
    for v, h, delta in chunk:
        if v == h:
            continue  # self-labels are never redundant
        if h != h_cur:
            if h_cur is not None:
                for w in hubs[h_cur]:
                    above_h[w] = INF
            h_cur, rh = h, rank[h]
            for w, d in zip(hubs[h], dists[h]):
                if rank[w] > rh:
                    above_h[w] = d
        if distance_query(above_h, hubs[v], dists[v], delta):
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
    # Small rounds (GLL's whole point is that they are small) finish on
    # the driver; LCC-sized ones fan out after the sample's SPARK_JOB_S/4.
    rank = as_list(rank)  # converted once, not once per driver chunk

    def run(target, part):
        return spark_map(target, eval_clean_chunk, part, witness, rank)

    return set(run_sampled(spark, run, candidates))
