"""Shared machinery for the §5 distributed algorithms.

Node model (paper §5.1): every node holds the full graph and ranking
(replicated at load time, not metered); the *label set is partitioned* —
node i owns exactly the labels whose hub it constructed, with roots
assigned circularly by rank (owner of the j-th ranked root is j mod q).
A node's pruning view is therefore its own shard (+ the replicated
Common Label Table), which is what makes DGLL chatty and PLaNT silent.
DparaPLL (§3) runs the same node function on a full label replica: its
``updates`` merge every other node's labels into each node's store.

The superstep functions below run inside SimCluster (RDD partitions or
the serial fallback) and are deliberately free of driver state: all
inputs arrive via the ctx broadcast (graph, rank, root order) or the
superstep payload, which also carries the previous superstep's updates for
the nodes to ``settle`` first (the last ones ride on ``read_nodes``, or,
when there are none, the read rides on the last superstep) and the last
DGLL window's labels, which the nodes clean before they build.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.core.dijkstra import as_list, prune_dij_rq
from repro.core.labels import INF, CommonLabelTable, LabelStore
from repro.core.parallel import eval_clean_chunk
from repro.core.plant import plant_dijkstra
from repro.dist.cluster import SimCluster
from repro.graphs.csr import CSRGraph
from repro.graphs.ranking import roots_by_rank


class OOMError(RuntimeError):
    """A simulated node exceeded its main-memory budget (paper's '-' rows)."""


@dataclass
class NodeState:
    """One cluster node: its label shard, common table, and counters."""

    store: LabelStore
    common: CommonLabelTable | None = None
    work_s: float = 0.0  # accumulated tree-construction compute
    explored: int = 0  # Dijkstra settles (Ψ numerator)

    def mem_bytes(self) -> int:
        c = self.common.bytes() if self.common is not None else 0
        return self.store.bytes() + c


def make_ctx(spark: SparkSession | None, g: CSRGraph, rank: np.ndarray):
    """(get, free): get() -> (graph, rank list, root_order), broadcast once."""
    order = roots_by_rank(rank)
    val = (g, as_list(rank), order)
    if spark is None:
        return (lambda: val), (lambda: None)
    bc = spark.sparkContext.broadcast(val)
    return (lambda: bc.value), bc.unpersist


def my_roots(order: np.ndarray, pos: int, x: int, q: int, node_id: int):
    """Circular task assignment: node j mod q owns the j-th ranked root."""
    end = min(pos + x, len(order))
    return [(j, int(order[j])) for j in range(pos, end) if j % q == node_id]


# --------------------------------------------------------------------- #
# Superstep functions (run on nodes).
# --------------------------------------------------------------------- #
def construct_fn(get, engine: str, top_hubs: frozenset = frozenset(), keep=None):
    """Clean the last DGLL window, then build the superstep's windows.

    engine='dgll': pruned Dijkstra with rank queries against the node's
    own shard (+ common table). engine='plant': PLaNTed trees (+ common
    table pruning). engine='parapll': pruned Dijkstra with distance
    queries only, against the node's store (DparaPLL's full replica).
    The node settles the previous superstep's updates,
    ``payload["updates"]``, answers DQ_Clean for ``payload["clean"]``
    against its shard, then builds the windows ``payload["windows"]`` (a
    list of ``(pos, x)``, maybe empty) in order. New labels go into the
    shard immediately (visible to its own later trees, like GLL's local
    table) and are also reported back for cleaning. The output holds the
    redundant ``(v, hub)`` pairs found (``"redundant"``), one dict per
    window under ``"windows"``, each what a superstep of that window
    alone would return, and, when ``payload["read"]`` is set, the node's
    ``read_state`` (with ``keep``) after the last window.
    """

    def fn(node_id, st: NodeState, payload):
        g, rank, order = get()
        mem = settle(node_id, st, payload.get("updates"))
        redundant = eval_clean_chunk(payload.get("clean") or (), st.store, rank)
        windows = []
        for pos, x in payload["windows"]:
            if windows:  # nothing is applied between the windows of a superstep
                mem = st.mem_bytes()
            windows.append(build_window(g, rank, st, my_roots(order, pos, x, payload["q"], node_id), mem))
        out = {"windows": windows, "redundant": redundant}
        if payload.get("read"):
            out["read"] = read_state(st, st.mem_bytes(), keep(node_id, st))
        return st, out

    def build_window(g, rank, st: NodeState, roots, mem) -> dict:
        new: list = []
        explored_window = 0
        t0 = time.perf_counter()
        for _, root in roots:
            if engine == "plant":
                labels, explored = plant_dijkstra(g, rank, root, common=st.common)
                explored_window += explored
            else:
                labels = prune_dij_rq(g, rank, root, st.store, common=st.common,
                                      use_rank_queries=engine == "dgll")
                explored_window += len(labels)
            st.store.commit([(v, root, d) for v, d in labels])
            new.extend((v, root, d) for v, d in labels)
        st.explored += explored_window
        st.work_s += time.perf_counter() - t0
        # DGLL: the next superstep's cleaning needs every new label centrally;
        # DparaPLL: every replica merges them. PLaNT: only Common-Label-Table
        # hubs leave the node (§5.3), so with no table labels never leave
        # the generating node.
        if engine != "plant":
            shipped = new
        else:
            shipped = [(v, h, d) for v, h, d in new if h in top_hubs]
        # This whole dict is the window's gathered (metered) payload,
        # counters included; the driver pops ``mem`` before it gathers.
        return {
            "mem": mem,
            "new": shipped,
            "n_labels": len(new),
            "n_trees": len(roots),
            "explored": st.explored,
            "explored_window": explored_window,
        }

    return fn


def settle(node_id, st: NodeState, updates) -> int:
    """Apply the previous superstep's ``updates`` (None: there are none):
    drop its ``doomed`` labels from the owner shard and the common table,
    install its ``common_updates`` and ``merge`` every other node's new
    labels into the replica. Returns the node's memory after them, for the
    budget check."""
    if updates is None:
        return st.mem_bytes()
    doomed = updates.get("doomed", ())  # global (v, hub) set; shards only hold
    if doomed:  # their own hubs, so foreign pairs are no-ops
        st.store.delete(doomed)
    if st.common is not None:
        for hub, labels in updates.get("common_updates", ()):
            st.common.add_hub_labels(hub, labels)
        for v, h in doomed:  # a table row goes with its doomed label
            if h in st.common.row_of:
                st.common.dist[st.common.row_of[h], v] = INF
    for src, triplets in updates.get("merge", {}).items():
        if src != node_id:
            st.store.commit(triplets)
    return st.mem_bytes()


# --------------------------------------------------------------------- #
# Driver-side helpers.
# --------------------------------------------------------------------- #
@contextmanager
def node_cluster(spark: SparkSession | None, g: CSRGraph, rank: np.ndarray, q: int, top_hubs=()):
    """One run's ``(cluster, get)``: q nodes with empty shards (+ a Common
    Label Table over ``top_hubs``) and the broadcast context, both freed
    on exit."""

    def init_fn(i):
        common = CommonLabelTable(g.n, np.array(top_hubs)) if top_hubs else None
        return NodeState(store=LabelStore(g.n), common=common)

    cluster = SimCluster(spark, q, init_fn)  # rejects q < 1 before the broadcast
    get, free = make_ctx(spark, g, rank)
    try:
        yield cluster, get
    finally:
        cluster.free()
        free()


def out_of_time(t0: float, deadline_s: float | None) -> bool:
    return deadline_s is not None and time.perf_counter() - t0 > deadline_s


def check_budget(mems: dict, budget_bytes: int | None) -> None:
    """Raise OOMError if a node's memory (``{node: bytes}``) is over budget."""
    bad = [i for i, m in mems.items() if budget_bytes is not None and m > budget_bytes]
    if bad:
        raise OOMError(
            f"node(s) {bad} exceeded {budget_bytes} bytes "
            f"(max {max(mems.values())} bytes)"
        )


def read_state(st: NodeState, mem: int, kept) -> tuple:
    """What a run's read returns of one node whose memory is ``mem``."""
    return st.work_s, mem, st.store.num_labels(), st.explored, kept


def read_nodes(cluster, keep, updates, budget_bytes, per_node=None) -> tuple[dict, dict]:
    """A run's one read of its nodes, after it settles the last ``updates``
    and checks the budget on the memory after them: the run's stats from
    the node counters, and ``{node: keep(node, state)}``, what the driver
    keeps of each node. ``per_node`` is ``{node: read_state}`` when the
    run's last superstep already returned it (it left nothing to apply);
    then the read takes no Spark job of its own."""

    def read(i, st: NodeState):
        return read_state(st, settle(i, st, updates), keep(i, st))

    if per_node is None:
        per_node = cluster.map_states(read)
    work, mem, labels, explored, kept = zip(*per_node.values())
    check_budget(dict(zip(per_node, mem)), budget_bytes)
    stats = {
        "work_makespan_s": max(work),
        "work_total_s": sum(work),
        "mem_max_node": max(mem),
        "labels_total": sum(labels),
        "explored_total": sum(explored),
        "comm": cluster.comm.as_dict(),
    }
    return stats, dict(zip(per_node, kept))


def collect_store(shards: dict, n: int) -> LabelStore:
    """Assemble the node shards ``{node: triplets}`` into one store on the
    driver (test/query path; not metered — the paper never materialises
    this during construction)."""
    return LabelStore.from_triplets(n, (t for s in shards.values() for t in s))
