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
scaled ~10× to keep the compute:network ratio faithful to the paper
given our Python-speed query kernel.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.labels import INF, LabelStore
from repro.core.parallel import spark_map
from repro.core.query import QueryIndex


@dataclass(frozen=True)
class NetworkModel:
    """Latency constants for the simulated interconnect (see module doc)."""

    bcast_latency_s: float = 200e-6  # MPI_Bcast floor (paper ~20µs, ×10)
    p2p_latency_s: float = 50e-6  # point-to-point round trip (paper ~5µs, ×10)
    bandwidth_bps: float = 10e9


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
    Filtering each vertex's lists keeps their rank order."""
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
# Batch answering (throughput path), Spark-parallel per mode.
# --------------------------------------------------------------------- #
def _run_spark_batches(spark: SparkSession | None, tasks: list):
    """tasks: [(key, QueryIndex, pairs ndarray)] → {key: answers ndarray}."""
    return dict(
        spark_map(spark, lambda t: (t[0], t[1].query_batch(t[2])), tasks, slices=len(tasks))
    )


def answer_qlsn(spark, index: QueryIndex, pairs: np.ndarray) -> np.ndarray:
    """One node answers the whole batch (single task)."""
    return _run_spark_batches(spark, [(0, index, pairs)])[0]


def answer_qfdl(spark, shards: list[QueryIndex], pairs: np.ndarray) -> np.ndarray:
    """Every node scans the whole batch over its shard; min-reduce."""
    outs = _run_spark_batches(
        spark, [(i, idx, pairs) for i, idx in enumerate(shards)]
    )
    acc = np.full(len(pairs), INF, dtype=np.int64)
    for a in outs.values():
        np.minimum(acc, a, out=acc)
    return acc


def answer_qdol(
    spark, zeta: int, nodes: dict, pairs: np.ndarray
) -> tuple[np.ndarray, float]:
    """Route each query to its pair-node; returns (answers, routing_s) —
    routing_s is the measured sort + reassemble overhead (footnote 9)."""
    t0 = time.perf_counter()
    keys = [
        qdol_node_of(int(u) % zeta, int(v) % zeta, zeta) for u, v in pairs
    ]
    groups: dict[tuple[int, int], list[int]] = {}
    for pos, k in enumerate(keys):
        groups.setdefault(k, []).append(pos)
    tasks = [
        (k, nodes[k], pairs[np.asarray(posns)]) for k, posns in groups.items()
    ]
    routing_s = time.perf_counter() - t0
    outs = _run_spark_batches(spark, tasks)
    t0 = time.perf_counter()
    acc = np.empty(len(pairs), dtype=np.int64)
    for k, posns in groups.items():
        acc[np.asarray(posns)] = outs[k]
    routing_s += time.perf_counter() - t0
    return acc, routing_s


# --------------------------------------------------------------------- #
# Full Table-4 evaluation.
# --------------------------------------------------------------------- #
def _per_query_compute_s(index: QueryIndex, sample: np.ndarray) -> float:
    t0 = time.perf_counter()
    for u, v in sample:
        index.query(int(u), int(v))
    return (time.perf_counter() - t0) / max(1, len(sample))


def evaluate_query_modes(
    spark: SparkSession | None,
    store: LabelStore,
    rank: np.ndarray,
    q: int,
    pairs: np.ndarray,
    *,
    net: NetworkModel = NetworkModel(),
    node_budget_bytes: int | None = None,
    latency_sample: int = 1000,
) -> dict[str, dict]:
    """Measure throughput / latency / memory for the three §6 modes.

    Returns per-mode dicts; a mode whose per-node storage exceeds
    ``node_budget_bytes`` reports ``supported=False`` (Table 4's "-")
    and is not executed. Answer vectors are returned so callers can
    assert all modes agree (and match ground truth via the oracle).
    """
    results: dict[str, dict] = {}
    sample = pairs[: min(latency_sample, len(pairs))]

    # ---- QLSN -------------------------------------------------------- #
    full = QueryIndex.from_store(store)
    per_node = full.bytes()
    supported = node_budget_bytes is None or per_node <= node_budget_bytes
    r = {
        "supported": supported,
        "mem_per_node_bytes": per_node,
        "mem_total_bytes": per_node * q,
    }
    if supported:
        t0 = time.perf_counter()
        ans = answer_qlsn(spark, full, pairs)
        r["throughput_qps"] = len(pairs) / (time.perf_counter() - t0)
        r["latency_s"] = _per_query_compute_s(full, sample)
        r["answers"] = ans
    results["QLSN"] = r

    # ---- QFDL -------------------------------------------------------- #
    shards = shard_by_hub_owner(store, rank, q)
    per_node = max(s.bytes() for s in shards)
    supported = node_budget_bytes is None or per_node <= node_budget_bytes
    r = {
        "supported": supported,
        "mem_per_node_bytes": per_node,
        "mem_total_bytes": sum(s.bytes() for s in shards),
    }
    if supported:
        t0 = time.perf_counter()
        ans = answer_qfdl(spark, shards, pairs)
        wall = time.perf_counter() - t0
        bcast_s = len(pairs) * 16 / net.bandwidth_bps  # 2×int64 per query
        r["throughput_qps"] = len(pairs) / (wall + bcast_s)
        shard_lat = max(_per_query_compute_s(s, sample) for s in shards)
        # one broadcast out + one (modelled-as-bcast) min-reduce back
        r["latency_s"] = 2 * net.bcast_latency_s + shard_lat
        r["answers"] = ans
    results["QFDL"] = r

    # ---- QDOL -------------------------------------------------------- #
    zeta, nodes = qdol_indices(store, q)
    per_node = max(idx.bytes() for idx in nodes.values())
    supported = node_budget_bytes is None or per_node <= node_budget_bytes
    r = {
        "supported": supported,
        "zeta": zeta,
        "mem_per_node_bytes": per_node,
        "mem_total_bytes": sum(idx.bytes() for idx in nodes.values()),
    }
    if supported:
        t0 = time.perf_counter()
        ans, routing_s = answer_qdol(spark, zeta, nodes, pairs)
        wall = time.perf_counter() - t0  # includes footnote-9 routing cost
        r["throughput_qps"] = len(pairs) / wall
        r["routing_s"] = routing_s
        some = nodes[qdol_node_of(0, 1, zeta)]
        r["latency_s"] = 2 * net.p2p_latency_s + _per_query_compute_s(
            some, sample
        )
        r["answers"] = ans
    results["QDOL"] = r
    return results
