"""SimCluster semantics: state persistence, metering, reductions, and the
archive importers of the Python workers that run its tasks."""
import importlib
import os
import sys
import time
import zipfile
import zipimport
from contextlib import contextmanager

import pytest

from repro.core import parallel
from repro.core.labels import payload_bytes
from repro.core.parallel import _FrozenZipImporter, freeze_archives, spark_map
from repro.dist import cluster as cluster_mod
from repro.dist import engine
from repro.dist.cluster import SimCluster
from repro.dist.dgll import dgll
from repro.dist.engine import construct_fn, node_cluster, settle
from repro.dist.hybrid import hybrid
from repro.dist.parapll_dist import dpara_pll
from repro.dist.plant_dist import plant_dist
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


@pytest.mark.parametrize("q", [0, -1])
@pytest.mark.parametrize("run", [dgll, plant_dist, hybrid, dpara_pll])
def test_drivers_reject_q_below_one(run, q, monkeypatch):
    """A cluster of no nodes is refused before the run broadcasts its
    context or runs a superstep."""
    monkeypatch.setattr(engine, "make_ctx", lambda *a: pytest.fail("context broadcast"))
    with pytest.raises(ValueError, match="at least one node"):
        run(None, graph("SKIT"), rank_of("SKIT"), q=q)


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


def _dgll_steps(cluster, get, q):
    """DGLL supersteps: each cleans the previous window's labels and the
    last one builds nothing; returns the doomed set the read applies."""
    build = construct_fn(get, "dgll")
    pos, updates, clean, doomed_total = 0, None, None, 0
    for x in (16, 32, 64, 0):
        plan = [(pos, x)] if x else []
        outs = cluster.superstep(build, {"windows": plan, "q": q, "updates": updates, "clean": clean})
        doomed = cluster.allreduce_or({i: o["redundant"] for i, o in outs.items()})
        updates, doomed_total = {"doomed": doomed, "common_updates": []}, doomed_total + len(doomed)
        clean = [t for o in outs.values() for w in o["windows"] for t in w["new"]]
        pos += x
    assert doomed_total > 0 and clean == []
    return updates


def _parapll_steps(cluster, get, q):
    """DparaPLL supersteps: each merges the last one's labels into every
    replica; returns the last merge, which the read applies."""
    build = construct_fn(get, "parapll")
    pos, updates = 0, None
    for x in (16, 32, 64):
        outs = cluster.superstep(build, {"windows": [(pos, x)], "q": q, "updates": updates})
        updates = {"merge": {i: o["windows"][0]["new"] for i, o in outs.items()}}
        pos += x
    return updates


@pytest.mark.parametrize("steps", [_dgll_steps, _parapll_steps], ids=["dgll", "parapll"])
def test_spark_recomputes_lost_states_from_lineage(spark, steps):
    """Superstep functions mutate node state in place; a node RDD dropped
    from the cache must still be rebuilt, from lineage, into the same
    shards (DGLL) or replicas (DparaPLL). The read settles the last
    superstep's updates."""
    g, rank, q = graph("CAL"), rank_of("CAL"), 4
    with node_cluster(spark, g, rank, q) as (cluster, get):
        updates = steps(cluster, get, q)

        def labels(i, st):
            settle(i, st, updates)
            return st.store.triplets()

        before = cluster.map_states(labels)
        cluster._rdd.unpersist()
        assert not cluster._rdd.is_cached
        assert cluster.map_states(labels) == before
    assert sum(len(t) for t in before.values()) > 0
    if steps is _parapll_steps:  # every replica holds the whole labeling
        assert len({frozenset(t) for t in before.values()}) == 1


# --------------------------------------------------------------------- #
# Archive importers of the Python workers.
# --------------------------------------------------------------------- #
def _zip(path, **modules):
    path.parent.mkdir(parents=True, exist_ok=True)
    with zipfile.ZipFile(path, "w") as z:
        for name, body in modules.items():
            z.writestr(f"{name}.py", body)


class _SubZipImporter(zipimport.zipimporter):
    pass


def test_freeze_archives_keeps_user_archives_and_other_finders(tmp_path):
    """Only plain zipimporters outside the SparkFiles root are frozen,
    twice the same; a frozen one keeps its directory when caches are
    invalidated, an addPyFile archive (under the root) is re-read."""
    spark_zip, user_zip, sub_zip = (
        tmp_path / "spark" / "lib.zip", tmp_path / "files" / "dep.zip", tmp_path / "spark" / "sub.zip"
    )
    for path in (spark_zip, user_zip, sub_zip):
        _zip(path, a="A = 1")
    cache = {
        str(spark_zip): zipimport.zipimporter(str(spark_zip)),
        str(user_zip): zipimport.zipimporter(str(user_zip)),
        str(sub_zip): _SubZipImporter(str(sub_zip)),
        str(tmp_path): object(),
        "gone": None,
    }
    before = dict(cache)
    for _ in range(2):
        freeze_archives(cache, str(tmp_path / "files"))
        assert cache == before  # the same finder objects, none added or dropped
        assert [type(f) for f in cache.values()] == [
            _FrozenZipImporter, zipimport.zipimporter, _SubZipImporter, object, type(None)
        ]
    for path in (spark_zip, user_zip):
        _zip(path, a="A = 1", b="B = 2")
        cache[str(path)].invalidate_caches()
    assert cache[str(spark_zip)].find_spec("a") and cache[str(spark_zip)].find_spec("b") is None
    assert cache[str(user_zip)].find_spec("b") is not None


def _refuse(*_):
    raise AssertionError("freeze_worker_archives ran on the driver")


def test_serial_path_leaves_driver_importers_alone(monkeypatch):
    """spark=None never freezes anything, so the driver's import state is
    the interpreter's own (the Spark tasks of other tests run in workers)."""
    monkeypatch.setattr(parallel, "freeze_worker_archives", _refuse)
    monkeypatch.setattr(cluster_mod, "freeze_worker_archives", _refuse)
    assert spark_map(None, lambda xs, k: [x * k for x in xs], [1, 2], 3) == [3, 6]
    c = SimCluster(None, 2, _counter_init)
    c.superstep(_inc, 1)
    assert c.map_states(lambda i, st: st["count"]) == {0: 1, 1: 1}
    assert not parallel._worker_archives_frozen
    assert not any(type(f) is _FrozenZipImporter for f in sys.path_importer_cache.values())


def _archive_probe(module):
    """Inside a Spark task: the worker's Spark archives (the files on its
    PYTHONPATH), the types of their cached importers, the archives that
    ``importlib.invalidate_caches()`` re-reads, and whether ``module``,
    not loaded before, then imports from one of them."""
    archives = {p for p in os.environ["PYTHONPATH"].split(os.pathsep) if os.path.isfile(p)}
    types = {
        type(f).__name__
        for f in sys.path_importer_cache.values()
        if isinstance(f, zipimport.zipimporter) and f.archive in archives
    }
    reads = []
    read = zipimport._read_directory
    zipimport._read_directory = lambda path: reads.append(path) or read(path)
    try:
        importlib.invalidate_caches()
    finally:
        zipimport._read_directory = read
    loaded = module in sys.modules
    origin = importlib.import_module(module).__spec__.origin
    return {
        "archives": sorted(archives),
        "types": types,
        "reads": [a for a in reads if a in archives],
        "loaded": loaded,
        "from_archive": any(origin.startswith(a + os.sep) for a in archives),
    }


def _check_probe(probe):
    if not probe["archives"]:
        pytest.skip("the Python workers import pyspark from no archive")
    assert probe["types"] == {"_FrozenZipImporter"}, probe
    assert probe["reads"] == [], probe
    assert not probe["loaded"] and probe["from_archive"], probe


def test_spark_tasks_do_not_reread_spark_archives(spark):
    """After a superstep and after a spark_map, the worker's Spark archive
    importers are frozen: invalidating caches re-reads no archive, and a
    pyspark module not loaded before still imports from its archive."""
    c = SimCluster(spark, 1, _counter_init)
    try:
        c.superstep(_inc, 1)
        probe = c.superstep(lambda i, st, p: (st, _archive_probe(p)), "pyspark.install")[0]
    finally:
        c.free()
    _check_probe(probe)
    _check_probe(spark_map(spark, lambda ms: [_archive_probe(m) for m in ms],
                           ["pyspark.instrumentation_utils"])[0])
