"""A distributed run ends with one read of its nodes.

Every driver reads its node states once after the last superstep: the
run's stats and, with ``collect=True``, the shards (or DparaPLL's node-0
replica) come back together. The read is a Spark job of its own when the
last superstep leaves updates to apply (DGLL's last cleaning, DparaPLL's
last merge, a deadline exit); otherwise it rides on that superstep, as in
a PLaNT run. ``collect`` changes only whether a store is assembled. The
dgll row was re-recorded when each DGLL window began to be cleaned in the
next construct superstep, not in a cleaning superstep of its own.
"""
import numpy as np
import pytest

from repro.dist.cluster import SimCluster
from repro.dist.dgll import dgll
from repro.dist.hybrid import hybrid
from repro.dist.parapll_dist import dpara_pll
from repro.dist.plant_dist import plant_dist
from repro.graphs.csr import from_edges
from tests.helpers import graph, rank_of
from tests.test_cluster import _count_jobs

RUNS = {
    "dgll": lambda s, g, r, c: dgll(s, g, r, q=4, collect=c),
    "plant": lambda s, g, r, c: plant_dist(s, g, r, q=4, collect=c),
    "hybrid": lambda s, g, r, c: hybrid(s, g, r, q=4, psi_th=3.0, collect=c),
    "dpara": lambda s, g, r, c: dpara_pll(s, g, r, q=4, collect=c),
}

#: Wall-clock stats; every other key must not depend on ``collect``.
TIMINGS = {"time_s", "work_makespan_s", "work_total_s"}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_collect_changes_only_the_store(run):
    g, rank = graph("SKIT"), rank_of("SKIT")
    full, bare = (RUNS[run](None, g, rank, c) for c in (True, False))
    assert full.store is not None and bare.store is None
    untimed = [{k: v for k, v in r.stats.items() if k not in TIMINGS} for r in (full, bare)]
    assert untimed[0] == untimed[1]
    # the shards are disjoint by hub, so the store holds every counted label
    assert full.store.num_labels() == full.stats["labels_total"]
    assert full.stats["als"] == pytest.approx(full.store.als())


@pytest.mark.parametrize("run", sorted(RUNS))
def test_empty_graph(run):
    """n = 0 is a valid graph: every driver runs it and reads ALS 0."""
    g = from_edges(0, [], [], [])
    for collect in (True, False):
        r = RUNS[run](None, g, np.arange(0), collect)
        assert (r.stats["labels_total"], r.stats["als"]) == (0, 0.0)
        assert (r.store is not None) == collect


#: SKIT run -> (supersteps, Spark jobs). PLaNT's windows and read share
#: one job; the others end in updates to apply, so their read is a job.
JOBS = {"dgll": (3, 4), "dpara": (2, 3), "hybrid": (6, 7), "plant": (1, 1)}


@pytest.mark.parametrize("collect", [True, False])
@pytest.mark.parametrize("run", sorted(RUNS))
def test_a_run_is_its_supersteps_plus_one_spark_job(spark, run, collect, monkeypatch):
    """Plus one job for the read only where updates are left to apply."""
    calls = []
    superstep = SimCluster.superstep

    def counted(self, *args, **kwargs):
        calls.append(1)
        return superstep(self, *args, **kwargs)

    monkeypatch.setattr(SimCluster, "superstep", counted)
    g, rank = graph("SKIT"), rank_of("SKIT")
    with _count_jobs(spark, f"final-read-{run}-{collect}") as jobs:
        r = RUNS[run](spark, g, rank, collect)
    assert (r.store is not None) == collect
    steps, n_jobs = JOBS[run]
    assert (len(calls), jobs) == (steps, [n_jobs])
