"""Workloads of the CHL benchmark: inputs, one round of operations, metrics.

Each workload generates its graph from the seed, ranks it, and builds the
reference CHL with ``seq_pll`` in set-up. A round then runs the
workload's constructions through the public ``repro`` API, each checked
against the reference, and serves the reference CHL in the three §6
modes plus a closed point-query loop, every answer checked against
``ground_truth_pairs``. The serving is dealt out in shares, one after
each build, so that it samples the whole round. Rounds repeat for the
measuring time.

Every workload reports every end-to-end metric. Serving therefore runs on
both graphs, and a workload's constructions are summed into ``build_s``;
the wall time of each construction is in the report lines and the trace.
"""
from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from chl_check import Checker
from repro.core.gll import gll
from repro.core.labels import INF, LabelStore, payload_bytes
from repro.core.parallel import build_trees
from repro.core.pll import seq_pll
from repro.core.query import QueryIndex
from repro.core.reference import ground_truth_pairs
from repro.dist.dgll import dgll
from repro.dist.engine import OOMError
from repro.dist.hybrid import hybrid
from repro.dist.parapll_dist import dpara_pll
from repro.dist.plant_dist import plant_dist
from repro.dist.query_modes import (
    answer_qdol,
    answer_qfdl,
    answer_qlsn,
    qdol_indices,
    qdol_node_of,
    shard_by_hub_owner,
)
from repro.graphs.generators import grid_road, random_graph
from repro.graphs.ranking import betweenness_rank, degree_rank
from repro.synth_data import query_pairs

#: Simulated cluster nodes: one RDD partition per core of a local[4] master.
Q = 4
#: GLL thread count of the Table 3 job (``jobs/table3_shared_memory.P_THREADS``).
GLL_P = 16
#: Batch size per serving mode, the Table 4 job's ``N_QUERIES``.
N_BATCH = 50_000
#: Closed-loop point queries per round (one client, next query after the answer).
N_POINT = 20_000
#: Pairs per build whose answers are checked against Dijkstra distances.
N_SAMPLE = 256
#: A build still running after this long reports ``timed_out`` and fails.
BUILD_DEADLINE_S = 60.0
#: Graph generation + ranking repeats in set-up; ``setup_s`` takes their median.
SETUP_REPEATS = 3
#: Per round, index builds repeat until both lower limits are met (or the
#: upper one); the metric is the median of all of them.
INDEX_MIN_REPS, INDEX_MIN_S, INDEX_MAX_REPS = 5, 0.5, 200
#: Hybrid's switch threshold: the paper's road-network value (hybrid runs on
#: the road workload only).
HYBRID_PSI_TH = 500.0

BUILD_NAMES = ("seqpll", "gll", "plant", "dgll", "hybrid", "dparapll")
DIST_BUILDS = ("plant", "dgll", "hybrid", "dparapll")
MODES = ("qlsn", "qfdl", "qdol")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "road": grid_road + betweenness rank; "random": random_graph + degree rank
    n: int
    deg: float
    builds: tuple[str, ...]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dist-road",
            "road",
            64,
            2.46,
            ("dgll", "plant", "hybrid", "dparapll"),
            "CAL analogue (road, betweenness rank): the distributed builds are "
            "bound by the fixed SimCluster superstep cost, not by the kernels",
        ),
        Workload(
            "kernel-dense",
            "random",
            800,
            12.0,
            ("seqpll", "gll", "plant"),
            "POK analogue (weak hierarchy, degree rank, large labels): per-tree "
            "kernels and LabelStore.commit do most of the work",
        ),
    )
}


def generate(wl: Workload, seed: int):
    if wl.kind == "road":
        return grid_road(wl.n, wl.deg, seed)
    return random_graph(wl.n, wl.deg, seed)


def rank_of(wl: Workload, g) -> np.ndarray:
    return betweenness_rank(g) if wl.kind == "road" else degree_rank(g)


def warm_up(spark) -> None:
    """Start the Python workers and run one SimCluster build, so JVM and
    worker start-up land in set-up and not in the first timed build."""
    g = grid_road(16, 2.46, 0)
    rank = degree_rank(g)
    build_trees(spark, g, rank, list(range(g.n)), LabelStore(g.n))
    plant_dist(spark, g, rank, Q)
    answer_qlsn(spark, QueryIndex.from_store(seq_pll(g, rank)[0]), np.zeros((8, 2), dtype=np.int64))


@dataclass
class Context:
    """Everything set-up produces and a round reads."""

    spark: object
    wl: Workload
    g: object
    rank: np.ndarray
    reference: LabelStore
    pairs: np.ndarray
    truth: np.ndarray
    checker: Checker
    tracer: object
    setup: dict = field(default_factory=dict)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    stats: dict = field(default_factory=lambda: defaultdict(list))
    extra: dict = field(default_factory=lambda: defaultdict(float))
    rounds: int = 0


def set_up(spark, wl: Workload, seed: int, tracer) -> Context:
    """Generate and rank the graph, build the reference CHL and the query truth."""
    gen_s, rank_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with tracer.span("graphs.generate"):
            g = generate(wl, seed)
        t1 = time.perf_counter()
        with tracer.span("graphs.rank"):
            rank = rank_of(wl, g)
        gen_s.append(t1 - t0)
        rank_s.append(time.perf_counter() - t1)
    t0 = time.perf_counter()
    with tracer.span("setup.reference"):
        reference, _ = seq_pll(g, rank)
        pairs = query_pairs(n=g.n, n_queries=N_BATCH, seed=seed).values
        truth = ground_truth_pairs(g, pairs)["dist"].to_numpy()
    reference_s = time.perf_counter() - t0
    pick = np.random.default_rng(seed).choice(len(pairs), N_SAMPLE, replace=False)
    checker = Checker(reference, pairs[pick], truth[pick], INF)
    ctx = Context(spark, wl, g, rank, reference, pairs, truth, checker, tracer)
    ctx.setup = {
        "generate_s": statistics.median(gen_s),
        "rank_s": statistics.median(rank_s),
        "reference_s": reference_s,
    }
    return ctx


# --------------------------------------------------------------------- #
# One round.
# --------------------------------------------------------------------- #
def _call_build(op: str, ctx: Context):
    """Run one construction; returns (store, stats)."""
    spark, g, rank, d = ctx.spark, ctx.g, ctx.rank, BUILD_DEADLINE_S
    if op == "seqpll":
        return seq_pll(g, rank, deadline_s=d)
    if op == "gll":
        return gll(spark, g, rank, p=GLL_P, deadline_s=d)
    if op == "plant":
        r = plant_dist(spark, g, rank, Q, deadline_s=d)
    elif op == "dgll":
        r = dgll(spark, g, rank, Q, deadline_s=d)
    elif op == "hybrid":
        r = hybrid(spark, g, rank, Q, psi_th=HYBRID_PSI_TH, deadline_s=d)
    elif op == "dparapll":
        r = dpara_pll(spark, g, rank, Q, deadline_s=d)
    else:
        raise ValueError(f"unknown build {op!r}")
    return r.store, r.stats


def run_build(ctx: Context, op: str) -> None:
    gc.collect()  # garbage of the previous operation is not this one's cost
    t0 = time.perf_counter()
    try:
        with ctx.tracer.span(f"bench.{op}"):
            store, stats = _call_build(op, ctx)
    except Exception as e:  # a crashed build is a failed operation, not a crashed run
        if not isinstance(e, OOMError):
            traceback.print_exc()
        ctx.checker.build_error(op, e)
        return
    wall = time.perf_counter() - t0
    ok = ctx.checker.build(
        op, store, timed_out=bool(stats.get("timed_out")), canonical=op != "dparapll"
    )
    if ok:
        ctx.samples[op].append(wall)
        ctx.stats[op].append(stats)


def _index_build(ctx: Context):
    tr = ctx.tracer
    with tr.span("bench.index_build"):
        with tr.span("query.index"):
            full = QueryIndex.from_store(ctx.reference)
        with tr.span("query_modes.shard"):
            shards = shard_by_hub_owner(ctx.reference, ctx.rank, Q)
        with tr.span("query_modes.qdol_index"):
            zeta, nodes = qdol_indices(ctx.reference, Q)
    return full, shards, zeta, nodes


def serve_part(ctx: Context, part: int, parts: int, walls: dict):
    """Serve share ``part`` of ``parts`` of the round's serving work.

    A round calls this after each of its builds, so the serving samples
    spread over the whole round instead of one burst, because the host's
    speed drifts on a scale of seconds. Each share rebuilds the indices,
    runs its share of the point queries and the whole 50 000-pair batch
    of the modes dealt to it (mode i goes to share i mod ``parts``).
    Returns the indices it built.
    """
    gc.collect()
    reps, spent = 0, 0.0
    while reps < INDEX_MAX_REPS and (reps * parts < INDEX_MIN_REPS or spent * parts < INDEX_MIN_S):
        t0 = time.perf_counter()
        full, shards, zeta, nodes = _index_build(ctx)
        dt = time.perf_counter() - t0
        ctx.samples["index_build"].append(dt)
        reps, spent = reps + 1, spent + dt

    spark, pairs, truth = ctx.spark, ctx.pairs, ctx.truth
    calls = {
        "qlsn": lambda: answer_qlsn(spark, full, pairs),
        "qfdl": lambda: answer_qfdl(spark, shards, pairs),
        "qdol": lambda: answer_qdol(spark, zeta, nodes, pairs),
    }
    for mode in MODES[part::parts]:
        t0 = time.perf_counter()
        with ctx.tracer.span(f"bench.{mode}"):
            out = calls[mode]()
        walls[mode] += time.perf_counter() - t0
        if mode == "qdol":
            out, routing_s = out
            ctx.extra["qdol_routing_s"] += routing_s
        ctx.checker.answers(mode, out, truth)

    # Closed loop: one client sends its next query when the answer is back.
    lo, hi = part * N_POINT // parts, (part + 1) * N_POINT // parts
    point = [(int(u), int(v)) for u, v in pairs[lo:hi]]
    got = np.empty(len(point), dtype=np.int64)
    lat = np.empty(len(point), dtype=np.int64)
    query, clock = full.query, time.perf_counter_ns
    with ctx.tracer.span("bench.point"):
        for i, (u, v) in enumerate(point):
            t0 = clock()
            got[i] = query(u, v)
            lat[i] = clock() - t0
    ctx.checker.answers("point", got, truth[lo:hi])
    ctx.samples["point_ns"].extend(lat.tolist())
    return full, shards, zeta, nodes


def _trace_serving(ctx: Context, full, shards, zeta, nodes, walls: dict) -> None:
    """Per-layer serving figures: the same batches run serially on the
    driver give the kernel time; the shipped tasks give the task bytes."""
    pairs = ctx.pairs
    hubs = full.hubs
    ctx.extra["hub_entries"] += float(
        np.mean([len(hubs[u]) + len(hubs[v]) for u, v in pairs])
    )
    keys = [qdol_node_of(int(u) % zeta, int(v) % zeta, zeta) for u, v in pairs]
    groups: dict = defaultdict(list)
    for pos, k in enumerate(keys):
        groups[k].append(pos)
    tasks = {
        "qlsn": [(full, pairs)],
        "qfdl": [(s, pairs) for s in shards],
        "qdol": [(nodes[k], pairs[np.asarray(p)]) for k, p in groups.items()],
    }
    for mode, ts in tasks.items():
        t0 = time.perf_counter()
        with ctx.tracer.span("bench.serial_batches"):
            for idx, p in ts:
                idx.query_batch(p)
        serial = time.perf_counter() - t0
        ctx.extra["serial_batch_s"] += serial
        ctx.extra["dispatch_s"] += walls[mode] - serial
        ctx.extra["task_bytes"] += sum(payload_bytes(t) for t in ts)


def run_round(ctx: Context) -> None:
    """Each build, then a share of the serving."""
    walls: dict = defaultdict(float)
    parts = len(ctx.wl.builds)
    for part, op in enumerate(ctx.wl.builds):
        run_build(ctx, op)
        index = serve_part(ctx, part, parts, walls)
    for mode in MODES:
        ctx.samples[f"{mode}_kqps"].append(N_BATCH / walls[mode] / 1e3)
    ctx.samples["batch_kqps"].append(len(MODES) * N_BATCH / sum(walls.values()) / 1e3)
    if ctx.tracer.enabled:
        _trace_serving(ctx, *index, walls)
    ctx.rounds += 1


def measure(ctx: Context, seconds: float) -> None:
    """Run rounds for ``seconds``: at least one, and another only if the
    last round's length says it ends in time. A run whose round is longer
    than half of ``seconds`` therefore always measures exactly one round,
    which keeps the round count, and so the statistic, the same from run
    to run."""
    t_end = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        run_round(ctx)
        dur = time.perf_counter() - t0
        if time.perf_counter() + dur > t_end:
            break


# --------------------------------------------------------------------- #
# Metrics.
# --------------------------------------------------------------------- #
def _median(xs, missing: float) -> float:
    return float(statistics.median(xs)) if xs else missing


def end_to_end(ctx: Context, setup_s: float) -> dict:
    """The metrics a user sees; a build with no passing run reports the deadline."""
    s = ctx.samples
    return {
        "setup_s": (setup_s, "s"),
        "driver_peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "build_s": (sum(per_build_medians(ctx).values()), "s"),
        "batch_kqps": (_median(s["batch_kqps"], 0.0), "kq/s"),
    }


def serving_report(ctx: Context) -> dict:
    """Serving figures too unsteady on a shared host for a bound (see README)."""
    s = ctx.samples
    return {
        "index_build_s": _median(s["index_build"], 0.0),
        **{f"{m}_kqps": _median(s[f"{m}_kqps"], 0.0) for m in MODES},
        "query_p50_us": float(np.percentile(s["point_ns"], 50)) / 1e3,
        "query_p99_us": float(np.percentile(s["point_ns"], 99)) / 1e3,
    }


def per_build_medians(ctx: Context) -> dict:
    """Median wall seconds of each construction the workload ran."""
    return {op: _median(ctx.samples[op], BUILD_DEADLINE_S) for op in ctx.wl.builds}


#: Layers whose self time the trace reports, by span-name prefix. ``bench``
#: is the time inside a timed operation that no wrapped layer covers.
SELF_LAYERS = ("bench", "dijkstra", "labels", "parallel", "cluster", "engine", "query", "query_modes")

#: Per-layer metrics of the traced run, in report order, with their units.
PER_LAYER_UNITS = {
    "graphs.generate_s": "s",
    "graphs.rank_s": "s",
    "dijkstra.prune_dij_rq_s": "s",
    "dijkstra.trees": "count",
    "dijkstra.labels": "count",
    "labels.commit_s": "s",
    "labels.delete_s": "s",
    "labels.commit_calls": "count",
    "labels.commit_labels": "count",
    "labels.deleted": "count",
    "parallel.build_trees_s": "s",
    "parallel.find_redundant_s": "s",
    "parallel.spark_batches": "count",
    "parallel.serial_batches": "count",
    "gll.supersteps": "count",
    "gll.cleaned_frac": "ratio",
    "plant.explored": "count",
    "plant.labels": "count",
    "plant.psi": "ratio",
    "cluster.init_s": "s",
    "cluster.superstep_s": "s",
    "cluster.superstep_p50_s": "s",
    "cluster.supersteps": "count",
    "cluster.map_states_s": "s",
    "cluster.comm_bytes": "bytes",
    "cluster.broadcast_bytes": "bytes",
    "cluster.gather_bytes": "bytes",
    "cluster.allreduce_bytes": "bytes",
    "cluster.n_syncs": "count",
    "engine.node_work_makespan_s": "s",
    "engine.node_work_total_s": "s",
    "engine.sync_overhead_s": "s",
    "engine.collect_store_s": "s",
    "engine.driver_s": "s",
    "hybrid.switch_pos": "count",
    "hybrid.windows": "count",
    "dgll.windows": "count",
    "query.index_s": "s",
    "query_modes.shard_s": "s",
    "query_modes.qdol_index_s": "s",
    "query.batch_s": "s",
    "query.hub_entries_per_query": "count",
    "query_modes.qdol_routing_s": "s",
    "query_modes.task_bytes": "bytes",
    "query_modes.dispatch_s": "s",
    "query_modes.index_build_s": "s",
    "query_modes.qlsn_kqps": "kq/s",
    "query_modes.qfdl_kqps": "kq/s",
    "query_modes.qdol_kqps": "kq/s",
    "query.p50_us": "us",
    "query.p99_us": "us",
    **{f"op.{op}_s": "s" for op in BUILD_NAMES},
    **{f"self.{layer}_s": "s" for layer in SELF_LAYERS},
    "trace.rounds": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}


#: The end-to-end metric, and the workload, that each layer's figures
#: should move (the longest matching name prefix applies).
MOVES = {
    "graphs.": "setup_s on both",
    "dijkstra.": "build_s (seqPLL) on kernel-dense",
    "labels.": "build_s (seqPLL, GLL) on kernel-dense, not on dist-road",
    "parallel.": "build_s (GLL) on kernel-dense",
    "gll.": "build_s (GLL) on kernel-dense",
    "plant.": "build_s (PLaNT) on kernel-dense",
    "cluster.": "build_s on dist-road; on kernel-dense only by PLaNT's share",
    "engine.": "build_s on dist-road; on kernel-dense only by PLaNT's share",
    "hybrid.": "build_s on dist-road",
    "dgll.": "build_s on dist-road",
    "query.": "batch_kqps on both",
    "query.index_s": "query_modes.index_build_s on both",
    "query.p": "point-query latency on both (no end-to-end metric)",
    "query_modes.": "batch_kqps on both",
    "query_modes.index_build_s": "serving set-up on both (no end-to-end metric)",
    "query_modes.shard_s": "query_modes.index_build_s on both",
    "query_modes.qdol_index_s": "query_modes.index_build_s on both",
    "op.": "build_s on the workload that runs it",
}


def moves(metric: str) -> str:
    keys = [k for k in MOVES if metric.startswith(k)]
    return MOVES[max(keys, key=len)] if keys else ""


def per_layer(ctx: Context, tracer, wrapper_cost_s: float, measure_s: float) -> dict:
    """Per-layer metrics, per round, from the spans and the driver stats.

    Set-up figures are medians of its repeats; everything else is a total
    over the measured rounds divided by their number.
    """
    r = max(1, ctx.rounds)
    st, c, tr = ctx.stats, tracer.counts, tracer

    def total(name):
        return tr.total(name) / r

    def stat(ops, key):
        return sum(x.get(key, 0) for op in ops for x in st[op]) / r

    def comm(key):
        return sum(x["comm"][key] for op in DIST_BUILDS for x in st[op]) / r

    supersteps = tr.durations("cluster.superstep")
    makespan = stat(DIST_BUILDS, "work_makespan_s")
    explored, plant_labels = stat(["plant"], "explored_total"), stat(["plant"], "labels_total")
    generated = stat(["gll"], "labels_generated")
    wrapped = len([s for s in tr.spans if not s["name"].startswith(("bench.", "graphs.", "setup."))])
    selfs = tr.self_times()
    serving = serving_report(ctx)
    v = {
        "graphs.generate_s": ctx.setup["generate_s"],
        "graphs.rank_s": ctx.setup["rank_s"],
        "dijkstra.prune_dij_rq_s": total("dijkstra.prune_dij_rq"),
        "dijkstra.trees": c["dijkstra.trees"] / r,
        "dijkstra.labels": c["dijkstra.labels"] / r,
        "labels.commit_s": total("labels.commit"),
        "labels.delete_s": total("labels.delete"),
        "labels.commit_calls": c["labels.commit_calls"] / r,
        "labels.commit_labels": c["labels.commit_labels"] / r,
        "labels.deleted": c["labels.deleted"] / r,
        "parallel.build_trees_s": total("parallel.build_trees"),
        "parallel.find_redundant_s": total("parallel.find_redundant"),
        "parallel.spark_batches": c["parallel.spark_batches"] / r,
        "parallel.serial_batches": c["parallel.serial_batches"] / r,
        "gll.supersteps": stat(["gll"], "supersteps"),
        "gll.cleaned_frac": stat(["gll"], "labels_cleaned") / generated if generated else 0.0,
        "plant.explored": explored,
        "plant.labels": plant_labels,
        "plant.psi": explored / plant_labels if plant_labels else 0.0,
        "cluster.init_s": total("cluster.init"),
        "cluster.superstep_s": sum(supersteps) / r,
        "cluster.superstep_p50_s": statistics.median(supersteps) if supersteps else 0.0,
        "cluster.supersteps": len(supersteps) / r,
        "cluster.map_states_s": total("cluster.map_states"),
        "cluster.comm_bytes": comm("total_bytes"),
        "cluster.broadcast_bytes": comm("broadcast_bytes"),
        "cluster.gather_bytes": comm("gather_bytes"),
        "cluster.allreduce_bytes": comm("allreduce_bytes"),
        "cluster.n_syncs": comm("n_syncs"),
        "engine.node_work_makespan_s": makespan,
        "engine.node_work_total_s": stat(DIST_BUILDS, "work_total_s"),
        # Upper bound: a superstep's wall also covers the slowest node's work
        # only, so everything beyond the makespan is charged to the sync.
        "engine.sync_overhead_s": sum(supersteps) / r - makespan,
        "engine.collect_store_s": total("engine.collect_store"),
        "engine.driver_s": tr.self_total({f"bench.{op}" for op in DIST_BUILDS}) / r,
        "hybrid.switch_pos": stat(["hybrid"], "switch_pos"),
        "hybrid.windows": sum(len(x["psi_per_window"]) for x in st["hybrid"]) / r,
        "dgll.windows": stat(["dgll"], "supersteps"),
        "query.index_s": total("query.index"),
        "query_modes.shard_s": total("query_modes.shard"),
        "query_modes.qdol_index_s": total("query_modes.qdol_index"),
        "query.batch_s": ctx.extra["serial_batch_s"] / r,
        "query.hub_entries_per_query": ctx.extra["hub_entries"] / r,
        "query_modes.qdol_routing_s": ctx.extra["qdol_routing_s"] / r,
        "query_modes.task_bytes": ctx.extra["task_bytes"] / r,
        "query_modes.dispatch_s": ctx.extra["dispatch_s"] / r,
        "query_modes.index_build_s": serving["index_build_s"],
        **{f"query_modes.{m}_kqps": serving[f"{m}_kqps"] for m in MODES},
        "query.p50_us": serving["query_p50_us"],
        "query.p99_us": serving["query_p99_us"],
        "trace.rounds": ctx.rounds,
        "trace.spans": len(tr.spans) / r,
        "trace.overhead_s": wrapped * wrapper_cost_s / r,
        "trace.overhead_frac": wrapped * wrapper_cost_s / measure_s,
    }
    for op in BUILD_NAMES:
        v[f"op.{op}_s"] = _median(ctx.samples[op], 0.0)
    for layer in SELF_LAYERS:
        v[f"self.{layer}_s"] = selfs.get(layer, 0.0) / r
    return {k: (v[k], unit) for k, unit in PER_LAYER_UNITS.items()}
