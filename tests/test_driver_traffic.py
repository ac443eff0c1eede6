"""Traffic invariant of the distributed drivers.

Pins, per driver and setting, the number of SimCluster supersteps, the
metered CommCounter bytes and Hybrid's switch position on one road and
one scale-free graph. The byte columns, ``n_syncs`` and the switch
positions were recorded from the separate DGLL/PLaNT/Hybrid drivers that
the single windowed driver replaced. The superstep counts were recorded
when a window's updates (and DparaPLL's replica merge) began to ride in
the next superstep's payload instead of a superstep of their own; PLaNT's
then fell from 2 to 1 when windows that need no action of the driver
began to share a superstep (with η = 8 the window of the top-η roots
still ends its own). The dgll, dgll_eta16, hybrid2 and hybrid_eta0 rows
were re-recorded when DGLL's cleaning moved into the next construct
superstep: its windows lost their cleaning supersteps (the last window is
cleaned by one superstep that builds nothing), and a doomed set applied
a window later and unfiltered Common Label Table rows change its bytes.
A change here means the drivers now run or ship something else.
"""
import pytest

from repro.dist.cluster import SimCluster
from repro.dist.dgll import dgll
from repro.dist.hybrid import hybrid
from repro.dist.parapll_dist import dpara_pll
from repro.dist.plant_dist import plant_dist
from tests.helpers import graph, rank_of

RUNS = {
    "dgll": lambda g, r: dgll(None, g, r, q=4),
    "dgll_eta16": lambda g, r: dgll(None, g, r, q=4, eta=16),
    "plant": lambda g, r: plant_dist(None, g, r, q=4),
    "plant_eta8": lambda g, r: plant_dist(None, g, r, q=4, eta=8),
    "hybrid100": lambda g, r: hybrid(None, g, r, q=4, psi_th=100.0),
    "hybrid2": lambda g, r: hybrid(None, g, r, q=4, psi_th=2.0),
    "hybrid_eta0": lambda g, r: hybrid(None, g, r, q=2, psi_th=1.0, eta=0),
    "dpara": lambda g, r: dpara_pll(None, g, r, q=4),
}

#: (graph, run) -> (supersteps, (broadcast, gather, allreduce bytes, n_syncs), switch_pos)
EXPECTED = {
    ("CAL", "dgll"): (3, (95224, 17912, 10004, 4), None),
    ("SKIT", "dgll"): (3, (21368, 4620, 1642, 4), None),
    ("CAL", "dgll_eta16"): (3, (101272, 14918, 6212, 5), None),
    ("SKIT", "dgll_eta16"): (3, (32384, 4588, 1590, 4), None),
    ("CAL", "plant"): (1, (0, 0, 0, 0), None),
    ("SKIT", "plant"): (1, (0, 0, 0, 0), None),
    ("CAL", "plant_eta8"): (2, (9420, 3348, 0, 1), None),
    ("SKIT", "plant_eta8"): (2, (6328, 2304, 0, 1), None),
    ("CAL", "hybrid100"): (8, (13708, 5708, 0, 1), 121),
    ("SKIT", "hybrid100"): (5, (7760, 3199, 0, 1), 72),
    ("CAL", "hybrid2"): (4, (40556, 10762, 1046, 5), 16),
    ("SKIT", "hybrid2"): (4, (10544, 3540, 40, 3), 16),
    ("CAL", "hybrid_eta0"): (4, (19752, 7940, 2116, 4), 16),
    ("SKIT", "hybrid_eta0"): (4, (1544, 920, 52, 3), 16),
    ("CAL", "dpara"): (2, (101792, 25448, 0, 2), None),
    ("SKIT", "dpara"): (2, (50080, 12520, 0, 2), None),
}


@pytest.mark.parametrize("name,run", sorted(EXPECTED))
def test_supersteps_and_traffic_unchanged(name, run, monkeypatch):
    calls = []
    superstep = SimCluster.superstep

    def counted(self, *args, **kwargs):
        calls.append(1)
        return superstep(self, *args, **kwargs)

    monkeypatch.setattr(SimCluster, "superstep", counted)
    stats = RUNS[run](graph(name), rank_of(name)).stats
    c = stats["comm"]
    steps, comm, switch_pos = EXPECTED[name, run]
    assert len(calls) == steps
    assert (c["broadcast_bytes"], c["gather_bytes"], c["allreduce_bytes"], c["n_syncs"]) == comm
    assert c["total_bytes"] == sum(comm[:3])
    if run.startswith("hybrid"):
        assert stats["switch_pos"] == switch_pos
