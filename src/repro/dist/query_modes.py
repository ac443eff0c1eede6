"""Query serving modes over a distributed labeling (paper §6, Table 4).

* QLSN — all labels replicated on every node; a query is answered where
  it emerges. No network, single-node compute, q× memory.
* QFDL — label set partitioned by generating hub's owner node. Every
  query is broadcast; nodes return partial minima over their shards
  which are min-reduced. (A hub's labels for u and v live on the same
  node, so per-node partial minima are sound.)
* QDOL — vertices hashed into ζ partitions, ζ = ⌊(1+√(1+8q))/2⌋; one
  node per partition pair stores the *complete* label sets of both
  partitions, and each query is routed point-to-point to the one node
  that can answer it alone. Batch throughput includes the paper's
  footnote-9 sort/reassemble cost, measured.

Compute times are measured; the network component of latency is a
documented constant model (DESIGN.md §2.3), with the MPI constants
scaled ~10× to keep the compute:network ratio faithful to the paper:
the latency column times the scalar Python kernel (``QueryIndex.query``,
one query at a time), while batches run the vectorised
``QueryIndex.query_batch``.
"""
from __future__ import annotations

import time

import numpy as np
from pyspark.sql import SparkSession

from repro.core.labels import INF, LabelStore
from repro.core.parallel import spark_map
from repro.core.query import QueryIndex


#: Simulated interconnect (see module doc): the paper's MPI constants ×10.
BCAST_LATENCY_S = 200e-6  # MPI_Bcast floor (paper ~20µs)
P2P_LATENCY_S = 50e-6  # point-to-point round trip (paper ~5µs)
BANDWIDTH_BPS = 10e9
#: Queries timed one by one for the latency column.
LATENCY_SAMPLE = 1000


def zeta_for(q: int) -> int:
    """Largest ζ with C(ζ,2) ≤ q (paper: C(ζ,2) = q)."""
    return max(2, int((1 + np.sqrt(1 + 8 * q)) / 2))


def qdol_node_of(pu: int, pv: int, zeta: int) -> tuple[int, int]:
    """The partition-pair node owning a (pu, pv) query; same-partition
    queries route to the (p, p+1 mod ζ) node, which also holds part p."""
    if pu == pv:
        pu, pv = pu, (pu + 1) % zeta
    return (pu, pv) if pu < pv else (pv, pu)


# --------------------------------------------------------------------- #
# Partitioned index construction.
# --------------------------------------------------------------------- #
def shard_by_hub_owner(store: LabelStore, rank: np.ndarray, q: int) -> list[QueryIndex]:
    """QFDL layout: label (v, h, d) lives on node (rank-index of h) mod q —
    the node that generated SPT_h under circular task assignment.
    Each shard keeps the store's per-vertex append order."""
    n = store.n
    owner = ((n - 1 - np.asarray(rank)) % q).tolist()
    shards = [QueryIndex(n) for _ in range(q)]
    for v in range(n):
        for h, d in zip(store.hubs[v], store.dists[v]):
            s = shards[owner[h]]
            s.hubs[v].append(h)
            s.dists[v].append(d)
    return shards


def qdol_indices(
    store: LabelStore, q: int
) -> tuple[int, dict[tuple[int, int], QueryIndex]]:
    """QDOL layout: node (i, j) stores full label sets of partitions i, j
    (the store's own per-vertex lists, shared, and empty lists elsewhere)."""
    zeta = zeta_for(q)
    nodes = {}
    for i in range(zeta):
        for j in range(i + 1, zeta):
            mine = [v % zeta in (i, j) for v in range(store.n)]
            nodes[(i, j)] = QueryIndex(
                store.n,
                [hs if m else [] for hs, m in zip(store.hubs, mine)],
                [ds if m else [] for ds, m in zip(store.dists, mine)],
            )
    return zeta, nodes


# --------------------------------------------------------------------- #
# Batch answering (throughput path): route, answer per node, min-reduce.
# --------------------------------------------------------------------- #
def _serve(spark, tasks: list, n_pairs: int) -> tuple[np.ndarray, float]:
    """Each task ``(index, pairs, at)`` is one node answering its pairs;
    ``spark_map`` runs one slice of the nodes per core. The partial
    answers are min-reduced into an INF-filled vector at positions
    ``at``. Returns (answers, reduce_s)."""
    partials = spark_map(
        spark, lambda ts: [idx.query_batch(p) for idx, p in ts], [(idx, p) for idx, p, _ in tasks]
    )
    t0 = time.perf_counter()
    acc = np.full(n_pairs, INF, dtype=np.int64)
    for (_, _, at), part in zip(tasks, partials):
        acc[at] = np.minimum(acc[at], part)
    return acc, time.perf_counter() - t0


def answer_qlsn(spark, index: QueryIndex, pairs: np.ndarray) -> np.ndarray:
    """One node answers the whole batch."""
    return _serve(spark, [(index, pairs, slice(None))], len(pairs))[0]


def answer_qfdl(spark, shards: list[QueryIndex], pairs: np.ndarray) -> np.ndarray:
    """Every node answers the whole batch over its shard."""
    return _serve(spark, [(s, pairs, slice(None)) for s in shards], len(pairs))[0]


def answer_qdol(
    spark, zeta: int, nodes: dict, pairs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Each pair-node answers the queries routed to it; returns (answers,
    routing_s) — routing_s is the measured sort + reassemble overhead
    (footnote 9)."""
    t0 = time.perf_counter()
    pu, pv = pairs[:, 0] % zeta, pairs[:, 1] % zeta
    pv = np.where(pu == pv, (pu + 1) % zeta, pv)  # qdol_node_of's wrap
    key = np.minimum(pu, pv) * zeta + np.maximum(pu, pv)
    order = np.argsort(key, kind="stable")  # keeps each node's pairs in batch order
    keys, first = np.unique(key[order], return_index=True)
    tasks = [
        (nodes[divmod(k, zeta)], pairs[at], at)
        for k, at in zip(keys.tolist(), np.split(order, first[1:]))
    ]
    routing_s = time.perf_counter() - t0
    ans, reduce_s = _serve(spark, tasks, len(pairs))
    return ans, routing_s + reduce_s


# --------------------------------------------------------------------- #
# Full Table-4 evaluation.
# --------------------------------------------------------------------- #
def _latency_compute_s(sample: np.ndarray, reached) -> float:
    """Mean per-query compute: query (u, v) is timed on every node in
    ``reached(u, v)``, and the slowest counts since they answer in parallel."""
    clock, total = time.perf_counter, 0.0
    for u, v in sample.tolist():
        worst = 0.0
        for index in reached(u, v):
            t0 = clock()
            index.query(u, v)
            worst = max(worst, clock() - t0)
        total += worst
    return total / max(1, len(sample))


def evaluate_query_modes(
    spark: SparkSession | None,
    store: LabelStore,
    rank: np.ndarray,
    q: int,
    pairs: np.ndarray,
    *,
    node_budget_bytes: int | None = None,
) -> dict[str, dict]:
    """Measure throughput / latency / memory for the three §6 modes.

    Returns per-mode dicts; a mode whose per-node storage exceeds
    ``node_budget_bytes`` reports ``supported=False`` (Table 4's "-")
    and is not executed. Answer vectors are returned so callers can
    assert all modes agree (and match ground truth via the oracle).
    Latency is the modelled network time plus the compute of the first
    ``LATENCY_SAMPLE`` queries on exactly the nodes each is sent to.
    """
    results: dict[str, dict] = {}
    sample = pairs[:LATENCY_SAMPLE]

    def measure(mode, held, mem_total, run, reached, batch_net_s=0.0, query_net_s=0.0):
        """``held``: the per-node indices; ``run()`` answers the batch;
        ``reached(u, v)``: the nodes a query is sent to."""
        per_node = max(idx.bytes() for idx in held)
        supported = node_budget_bytes is None or per_node <= node_budget_bytes
        r = results[mode] = {
            "supported": supported,
            "mem_per_node_bytes": per_node,
            "mem_total_bytes": mem_total,
        }
        if supported:
            t0 = time.perf_counter()
            r["answers"] = run()
            r["throughput_qps"] = len(pairs) / (time.perf_counter() - t0 + batch_net_s)
            r["latency_s"] = query_net_s + _latency_compute_s(sample, reached)

    full = QueryIndex.from_store(store)
    measure(
        "QLSN", [full], full.bytes() * q,
        lambda: answer_qlsn(spark, full, pairs), lambda u, v: [full],
    )
    shards = shard_by_hub_owner(store, rank, q)
    measure(
        "QFDL", shards, sum(s.bytes() for s in shards),
        lambda: answer_qfdl(spark, shards, pairs), lambda u, v: shards,
        batch_net_s=len(pairs) * 16 / BANDWIDTH_BPS,  # 2×int64 per query, broadcast
        query_net_s=2 * BCAST_LATENCY_S,  # broadcast out + min-reduce back (as a bcast)
    )
    zeta, nodes = qdol_indices(store, q)

    def qdol():  # the footnote-9 routing cost is inside the measured wall time
        ans, results["QDOL"]["routing_s"] = answer_qdol(spark, zeta, nodes, pairs)
        return ans

    measure(
        "QDOL", list(nodes.values()), sum(idx.bytes() for idx in nodes.values()),
        qdol, lambda u, v: [nodes[qdol_node_of(u % zeta, v % zeta, zeta)]],
        query_net_s=2 * P2P_LATENCY_S,
    )
    results["QDOL"]["zeta"] = zeta
    return results
