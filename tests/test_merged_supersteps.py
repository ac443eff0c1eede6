"""Windows that need no action of the driver share one superstep.

``run_windows`` ends a superstep only after a DGLL window, a window that
holds top-η roots or a PLaNT window under a finite Ψ_th. Every other run
of windows is one superstep that reports each window on its own, and a
last superstep that leaves nothing to apply also returns the run's read.
None of that may change a label, a metered byte or a Ψ value.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.pll import seq_pll
from repro.dist.cluster import SimCluster
from repro.dist.hybrid import hybrid
from repro.dist.plant_dist import plant_dist
from repro.graphs.csr import from_edges
from tests.helpers import graph, random_rank, rank_of
from tests.test_cluster import _count_jobs
from tests.test_kernel_inputs import EDGE_LISTS

RUNS = {
    "plant": lambda s, g, r: plant_dist(s, g, r, q=4),
    "plant_eta8": lambda s, g, r: plant_dist(s, g, r, q=4, eta=8),
    "hybrid100": lambda s, g, r: hybrid(s, g, r, q=4, psi_th=100.0),
}

#: Wall-clock stats; every other stat is pinned.
TIMINGS = {"time_s", "work_makespan_s", "work_total_s"}

#: Non-timing stats of each run, recorded when every window was a
#: superstep of its own (JSON: Ψ windows are lists, not tuples).
RECORDED = json.loads((Path(__file__).parent / "data" / "window_stats.json").read_text())


@pytest.mark.parametrize("key", sorted(RECORDED))
def test_stats_equal_one_superstep_per_window(key):
    name, run = key.split("/")
    stats = RUNS[run](None, graph(name), rank_of(name)).stats
    got = {k: v for k, v in stats.items() if k not in TIMINGS}
    got["psi_per_window"] = [list(w) for w in got["psi_per_window"]]
    assert got == RECORDED[key]


def _count_supersteps(monkeypatch) -> list:
    calls = []
    superstep = SimCluster.superstep

    def counted(self, *args, **kwargs):
        calls.append(1)
        return superstep(self, *args, **kwargs)

    monkeypatch.setattr(SimCluster, "superstep", counted)
    return calls


@pytest.mark.parametrize("eta,steps", [(0, 1), (8, 2)])
def test_plant_is_one_superstep_per_table_sync(eta, steps, monkeypatch):
    """η = 0: all windows in one superstep, with the read on it; η > 0:
    the window holding the top-η roots, then the rest."""
    calls = _count_supersteps(monkeypatch)
    monkeypatch.setattr(SimCluster, "map_states", lambda *a: pytest.fail("a read job ran"))
    g, rank = graph("EAS"), rank_of("EAS")
    r = plant_dist(None, g, rank, q=4, eta=eta)
    assert len(calls) == steps
    assert r.stats["supersteps"] == len(r.stats["psi_per_window"]) == 3


def _disconnected_40():
    """Three components on vertices 0–29 plus ten isolated vertices."""
    rng = np.random.default_rng(7)
    src, dst = [], []
    for lo, hi in ((0, 12), (12, 22), (22, 30)):
        perm = rng.permutation(np.arange(lo, hi))
        src += perm.tolist() + rng.integers(lo, hi, 4).tolist()
        dst += np.roll(perm, 1).tolist() + rng.integers(lo, hi, 4).tolist()
    return 40, src, dst, rng.integers(1, 9, len(src)).tolist()


#: Graphs on which the window plan degenerates: n ≤ 2, one window shorter
#: than x1, windows over isolated vertices; plus all-equal weights.
DEGENERATE = {
    **{k: EDGE_LISTS[k] for k in ("n1", "n2", "n2_apart", "disconnected", "equal")},
    "path10": lambda: (10, list(range(9)), list(range(1, 10)), [2, 1, 3, 1, 2, 2, 1, 3, 1]),
    "disconnected40": _disconnected_40,
}

ENGINES = {
    "plant": lambda g, r, q, eta: plant_dist(None, g, r, q=q, eta=eta),
    "hybrid100": lambda g, r, q, eta: hybrid(None, g, r, q=q, psi_th=100.0, eta=eta),
    "hybrid1": lambda g, r, q, eta: hybrid(None, g, r, q=q, psi_th=1.0, eta=eta),
}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("eta", [0, 8])
@pytest.mark.parametrize("q", [1, 3, 4])
@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_window_plans_equal_seq_pll(name, q, eta, engine):
    g = from_edges(*DEGENERATE[name]())
    rank = random_rank(g.n, q + eta)
    r = ENGINES[engine](g, rank, q, eta)
    assert r.store.canonical_set() == seq_pll(g, rank)[0].canonical_set()
    assert r.stats["labels_total"] == r.store.num_labels()
    windows = r.stats["psi_per_window"]
    assert sum(w for _, w, _ in windows) == r.stats["switch_pos"]


def test_spark_plant_is_one_job(spark):
    """η = 0: PLaNT's windows and its read are one Spark job, and the
    labels are those of the serial run."""
    g, rank = graph("EAS"), rank_of("EAS")
    with _count_jobs(spark, "merged-plant") as jobs:
        r = plant_dist(spark, g, rank, q=4)
    assert jobs == [1]
    assert r.stats["supersteps"] == 3
    assert r.store.canonical_set() == plant_dist(None, g, rank, q=4).store.canonical_set()


def test_spark_hybrid_ending_in_plant_has_no_read_job(spark, monkeypatch):
    calls = _count_supersteps(monkeypatch)
    g, rank = graph("SKIT"), rank_of("SKIT")
    with _count_jobs(spark, "merged-hybrid") as jobs:
        r = hybrid(spark, g, rank, q=4, psi_th=100.0)
    assert r.stats["switch_pos"] == g.n  # every window ran PLaNT
    assert jobs == [len(calls)] == [5]
    assert r.store.canonical_set() == hybrid(None, g, rank, q=4, psi_th=100.0).store.canonical_set()


def test_spark_deadline_exit_is_the_read(spark):
    """A deadline already passed: no window runs, and the one job is the
    read of the nodes."""
    g, rank = graph("EAS"), rank_of("EAS")
    with _count_jobs(spark, "merged-deadline") as jobs:
        r = plant_dist(spark, g, rank, q=4, deadline_s=0.0)
    assert r.stats["timed_out"]
    assert (r.stats["supersteps"], r.stats["psi_per_window"], r.stats["labels_total"]) == (0, [], 0)
    assert jobs == [1]
