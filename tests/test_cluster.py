"""SimCluster semantics: state persistence, metering, reductions."""
import time
from contextlib import contextmanager

import pytest

from repro.core.labels import payload_bytes
from repro.dist.cluster import SimCluster
from repro.dist.engine import apply_updates, clean_fn, construct_fn, node_cluster
from tests.helpers import graph, rank_of


def _counter_init(i):
    return {"id": i, "count": 0}


def _inc(node_id, st, payload):
    st["count"] += payload
    return st, st["count"]


def test_state_persists_across_supersteps_serial():
    c = SimCluster(None, 3, _counter_init)
    assert c.superstep(_inc, 2) == {0: 2, 1: 2, 2: 2}
    assert c.superstep(_inc, 3) == {0: 5, 1: 5, 2: 5}


def test_node_id_passed():
    c = SimCluster(None, 4, _counter_init)
    outs = c.superstep(lambda i, st, p: (st, i * 10), None)
    assert outs == {0: 0, 1: 10, 2: 20, 3: 30}


def test_broadcast_metering():
    c = SimCluster(None, 4, _counter_init)
    payload = list(range(100))
    c.superstep(_inc_noop, c.broadcast(payload))
    assert c.comm.broadcast_bytes == payload_bytes(payload) * 4
    assert c.comm.n_syncs == 1
    c.superstep(_inc_noop, payload)
    assert c.comm.n_syncs == 1  # orchestration payloads are not metered
    assert c.comm.broadcast_bytes == payload_bytes(payload) * 4


def _inc_noop(node_id, st, payload):
    return st, None


def test_gather_and_allreduce_metering():
    c = SimCluster(None, 2, _counter_init)
    outs = {0: [1, 2], 1: [3]}
    c.gather(outs)
    assert c.comm.gather_bytes == payload_bytes(outs)
    merged = c.allreduce_or({0: [(1, 2)], 1: [(3, 4), (1, 2)]})
    assert merged == {(1, 2), (3, 4)}
    assert c.comm.allreduce_bytes > 0
    assert c.comm.total_bytes() == (
        c.comm.broadcast_bytes + c.comm.gather_bytes + c.comm.allreduce_bytes
    )


def test_map_states_read_only():
    c = SimCluster(None, 3, _counter_init)
    before = c.comm.total_bytes()
    assert c.map_states(lambda i, st: st["id"]) == {0: 0, 1: 1, 2: 2}
    assert c.comm.total_bytes() == before


# --------------------------------------------------------------------- #
# Spark-backed cluster (RDD partition per node).
# --------------------------------------------------------------------- #
def test_state_persists_across_supersteps_spark(spark):
    c = SimCluster(spark, 4, _counter_init)
    try:
        assert c.superstep(_inc, 1) == {0: 1, 1: 1, 2: 1, 3: 1}
        assert c.superstep(_inc, 5) == {0: 6, 1: 6, 2: 6, 3: 6}
        assert c.map_states(lambda i, st: st["count"]) == {i: 6 for i in range(4)}
    finally:
        c.free()


def _record_own_id(node_id, st, payload):
    st["vals"].append(node_id)
    return st, None


def test_spark_node_isolation(spark):
    """Mutating one node's state must never leak to another node."""
    c = SimCluster(spark, 3, lambda i: {"vals": []})
    try:
        c.superstep(_record_own_id, None)
        c.superstep(_record_own_id, None)
        out = c.map_states(lambda i, st: list(st["vals"]))
        assert out == {0: [0, 0], 1: [1, 1], 2: [2, 2]}
    finally:
        c.free()


@contextmanager
def _count_jobs(spark, group):
    """Yield a list that receives, on exit, the number of Spark jobs the
    block launched (counted through a job group)."""
    sc = spark.sparkContext
    counted: list[int] = []
    sc.setJobGroup(group, group)
    try:
        yield counted
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    time.sleep(0.5)  # the status store is fed by an asynchronous listener
    counted.append(len(sc.statusTracker().getJobIdsForGroup(group)))


def test_one_spark_job_per_superstep(spark):
    """Construction is lazy; each superstep is a single map+collect job
    that reads the cached states, so no node state is ever rebuilt."""
    inits = spark.sparkContext.accumulator(0)

    def init(i):
        inits.add(1)
        return _counter_init(i)

    with _count_jobs(spark, "simcluster-init") as init_jobs:
        c = SimCluster(spark, 4, init)
    try:
        with _count_jobs(spark, "simcluster-steps") as step_jobs:
            c.superstep(_inc, 1)
            c.superstep(_inc, 2)
        assert (init_jobs, step_jobs) == ([0], [2])
        assert c.map_states(lambda i, st: st["count"]) == {i: 3 for i in range(4)}
        assert inits.value == 4
    finally:
        c.free()


def _mixed_out(node_id, st, payload):
    """Node outputs of every shape a driver gathers: none, an empty list
    and, on node 5, a list of more than 100 000 tuples."""
    st["count"] += 1
    if node_id == 5:
        return st, [(node_id, v, st["count"]) for v in range(120_000)]
    return st, (None if node_id % 2 else [])


def test_spark_outputs_complete_and_equal_to_serial(spark):
    """Outputs come back through the accumulator, one per node, equal to
    the serial path's, and the driver keeps none of them afterwards."""
    serial = SimCluster(None, 16, _counter_init)
    c = SimCluster(spark, 16, _counter_init)
    try:
        for _ in range(2):
            expected = serial.superstep(_mixed_out)
            assert c.superstep(_mixed_out) == expected
            assert c._outs.value == {}
        assert len(expected[5]) == 120_000 and expected[4] == [] and expected[3] is None
        assert c.map_states(lambda i, st: st["count"]) == {i: 2 for i in range(16)}
    finally:
        c.free()


def _shard(node_id, st):
    return st.store.triplets()


def test_spark_recomputes_lost_states_from_lineage(spark):
    """Superstep functions mutate node state in place; a node RDD dropped
    from the cache must still be rebuilt, from lineage, into the same shards."""
    g, rank, q = graph("CAL"), rank_of("CAL"), 4
    with node_cluster(spark, g, rank, q) as (cluster, get):
        build, cleaner = construct_fn(get, "dgll"), clean_fn(get)
        pos = 0
        for x in (16, 32, 64):
            outs = cluster.superstep(build, {"pos": pos, "x": x, "q": q})
            new = [t for o in outs.values() for t in o["new"]]
            doomed = cluster.allreduce_or(cluster.superstep(cleaner, new))
            cluster.superstep(apply_updates, {"doomed": doomed, "common_updates": []})
            pos += x
        before = cluster.map_states(_shard)
        cluster._rdd.unpersist()
        assert not cluster._rdd.is_cached
        assert cluster.map_states(_shard) == before
    assert sum(len(t) for t in before.values()) > 0
