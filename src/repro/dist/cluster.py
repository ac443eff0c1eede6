"""SimCluster — q logical cluster nodes realised as one persisted RDD.

Node i lives alone in slice i of ``parallelize(range(q), q)``; the RDD
holds ``(node_id, state)`` and is never shuffled. A superstep is one
Spark job and one Python pass per node: ``map`` the previous RDD with a
step that runs the node function, adds ``{node_id: out}`` to the
cluster's dict accumulator and keeps the new state; ``persist`` the
result and count it on the JVM side, which caches the new states. The
count is JVM-side because PySpark does not pipeline a map over a cached
RDD: any PySpark action (``count``, ``collect``, ``foreachPartition``)
would run every node's task through a second Python worker. The outputs
come back with the task results, so no label shard travels to the driver.
The driver plays the MPI runtime: payloads move as Spark broadcasts
(MPI_Bcast), per-node outputs return through the accumulator
(MPI_Gather), and redundancy bitvectors are OR-combined on the driver
(MPI_Allreduce); a DGLL node returns its bitvector with the outputs of
the construct superstep that cleaned the previous window.
Every such event is metered in ``CommCounter`` — the paper's scalability
story is precisely about this traffic (§5.2: PLaNT's zero label traffic).
As in BSP, a message costs no job of its own: what ``broadcast`` meters
rides in the next superstep's payload (or in the final ``map_states``),
and a superstep is a sync point, not a unit of work: a driver may give
the nodes several rounds of work in one payload when it need not act
between them (``repro.dist.dgll.run_windows`` does so with PLaNT's
windows and with DGLL's cleaning, and its last superstep can return the
run's read).

Every task function here starts with ``freeze_worker_archives``
(``repro.core.parallel``), which stops PySpark's worker from re-reading
Spark's jar and zip archives before each task; it is called in-task so
that every session that runs these tasks picks it up.

``spark=None`` degrades to an in-process list of node states running the
same superstep functions serially — used by fast unit tests; the Spark
path is exercised by integration tests and benchmarks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark import AccumulatorParam, StorageLevel
from pyspark.sql import SparkSession

from repro.core.labels import payload_bytes
from repro.core.parallel import freeze_worker_archives


@dataclass
class CommCounter:
    """Metered inter-node traffic (bytes are pickled payload sizes)."""

    broadcast_bytes: int = 0  # payload bytes × q receivers (delivered volume)
    gather_bytes: int = 0  # node→driver payloads
    allreduce_bytes: int = 0
    n_syncs: int = 0

    def total_bytes(self) -> int:
        return self.broadcast_bytes + self.gather_bytes + self.allreduce_bytes

    def as_dict(self) -> dict:
        return {
            "broadcast_bytes": self.broadcast_bytes,
            "gather_bytes": self.gather_bytes,
            "allreduce_bytes": self.allreduce_bytes,
            "total_bytes": self.total_bytes(),
            "n_syncs": self.n_syncs,
        }


class _DictMerge(AccumulatorParam):
    """Accumulates ``{node_id: out}`` dicts. A later add for a node
    replaces its earlier one, so a re-run task adds nothing twice."""

    def zero(self, value):
        return {}

    def addInPlace(self, a, b):
        a.update(b)
        return a


class SimCluster:
    """q logical nodes with persistent per-node state.

    ``init_fn(node_id) -> state`` builds each node's initial state (on
    Spark, in the same Python pass as the first superstep; ``init_fn``
    must be deterministic, as a lost state is rebuilt from it). A superstep
    applies ``fn(node_id, state, payload) -> (state', out)`` on every node
    and returns ``{node_id: out}``; state' replaces the node state for
    subsequent supersteps.
    """

    def __init__(self, spark: SparkSession | None, q: int, init_fn):
        if q < 1:
            raise ValueError(f"a cluster needs at least one node, got q={q}")
        self.spark = spark
        self.q = q
        self.comm = CommCounter()
        if spark is None:
            self._states = {i: init_fn(i) for i in range(q)}
            self._rdd = None
        else:
            sc = spark.sparkContext

            def init(i):
                freeze_worker_archives()
                return i, init_fn(i)

            self._rdd = sc.parallelize(range(q), q).map(init)
            self._outs = sc.accumulator({}, _DictMerge())

    # ------------------------------------------------------------------ #
    def superstep(self, fn, payload=None) -> dict:
        """Run ``fn`` on every node as one Spark job and one Python pass.
        The payload is not metered: its label traffic went through
        ``broadcast``.

        On Spark the outputs arrive in the accumulator, which the driver
        empties once it has read them: PySpark's accumulator registry
        keeps every accumulator for the life of the session, so an
        uncleared value would hold the run's last outputs until then.
        Every node adds its output in every superstep, so outputs that a
        lineage recompute re-adds are overwritten by the current ones."""
        if self.spark is None:
            outs = {}
            for i in range(self.q):
                self._states[i], outs[i] = fn(i, self._states[i], payload)
            return outs
        pay_bc = self.spark.sparkContext.broadcast(payload)
        acc = self._outs

        def step(kv):
            freeze_worker_archives()
            i, st = kv
            st, out = fn(i, st, pay_bc.value)
            acc.add({i: out})
            return i, st

        new_rdd = self._rdd.map(step).persist(StorageLevel.MEMORY_AND_DISK)
        new_rdd._jrdd.count()  # a PySpark action would add a second pass
        outs, acc.value = acc.value, {}
        if self._rdd.is_cached:  # the init RDD is not: it pipelines into step 1
            self._rdd.unpersist()
        pay_bc.unpersist()  # the driver keeps the value for recomputes
        self._rdd = new_rdd
        return outs

    def broadcast(self, payload):
        """Meter one delivery of ``payload`` to every node (MPI_Bcast) and
        return it, to go in the next superstep's payload."""
        self.comm.broadcast_bytes += payload_bytes(payload) * self.q
        self.comm.n_syncs += 1
        return payload

    def gather(self, outs: dict) -> dict:
        """Meter node→driver movement of superstep outputs (MPI_Gather)."""
        self.comm.gather_bytes += payload_bytes(outs)
        return outs

    def allreduce_or(self, bitvectors: dict) -> set:
        """OR-combine per-node redundancy sets (MPI_Allreduce on bitvectors).

        Metered as the pickled list of redundant ``(v, hub)`` pairs that
        each node found, summed over the nodes.
        """
        self.comm.allreduce_bytes += sum(
            payload_bytes(b) for b in bitvectors.values()
        )
        out: set = set()
        for b in bitvectors.values():
            out |= set(b)
        return out

    # ------------------------------------------------------------------ #
    def map_states(self, fn) -> dict:
        """A run's last pass over node states (not metered; on Spark, changes are lost)."""
        if self.spark is None:
            return {i: fn(i, st) for i, st in self._states.items()}

        def read(kv):
            freeze_worker_archives()
            return kv[0], fn(*kv)

        return dict(self._rdd.map(read).collect())

    def free(self) -> None:
        if self._rdd is not None:
            self._rdd.unpersist()
            self._rdd = None
