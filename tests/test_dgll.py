"""DGLL: distributed correctness, label partitioning, and communication."""
import numpy as np
import pytest

from repro.core.labels import INF
from repro.core.reference import brute_chl
import repro.dist.dgll as dgll_mod
import repro.dist.engine as engine
from repro.dist.dgll import dgll
from repro.dist.engine import OOMError, my_roots
from repro.dist.hybrid import hybrid
from repro.dist.plant_dist import plant_dist
from repro.graphs.ranking import roots_by_rank
from tests.helpers import (
    CORE_DATASETS,
    chl_set,
    graph,
    random_connected_graph,
    random_rank,
    rank_of,
)


@pytest.mark.parametrize("name", CORE_DATASETS)
@pytest.mark.parametrize("q", [1, 2, 4, 8])
def test_dgll_equals_chl(name, q):
    r = dgll(None, graph(name), rank_of(name), q=q)
    assert r.store.canonical_set() == chl_set(name)


@pytest.mark.parametrize("name", ["CAL", "SKIT"])
@pytest.mark.parametrize("eta", [4, 16])
def test_dgll_with_common_table_equals_chl(name, eta, monkeypatch):
    """A DGLL window's top-η rows reach the Common Label Table before the
    window is cleaned; a doomed row leaves every node's table with its
    label, so the tables end holding exactly the top-η hubs' CHL rows."""
    tables = []
    read_state = engine.read_state

    def spy(st, mem, kept):
        tables.append(st.common.dist.copy())
        return read_state(st, mem, kept)

    monkeypatch.setattr(engine, "read_state", spy)
    g, rank = graph(name), rank_of(name)
    r = dgll(None, g, rank, q=4, eta=eta)
    assert r.store.canonical_set() == chl_set(name)
    row = {int(h): i for i, h in enumerate(roots_by_rank(rank)[:eta])}
    chl = np.full((eta, g.n), INF, dtype=np.int64)
    for v, h, d in r.store.triplets():
        if h in row:
            chl[row[h], v] = d
    assert len(tables) == 4 and all((t == chl).all() for t in tables)


@pytest.mark.parametrize("seed", range(4))
def test_dgll_random(seed):
    g = random_connected_graph(40, 30, 6, seed=seed)
    rank = random_rank(40, seed + 7)
    r = dgll(None, g, rank, q=3)
    assert r.store.canonical_set() == brute_chl(g, rank).canonical_set()


def test_als_independent_of_q():
    name = "SKIT"
    als = [dgll(None, graph(name), rank_of(name), q=q).stats["als"] for q in (1, 2, 8)]
    assert als[0] == pytest.approx(als[1]) == pytest.approx(als[2])


def test_communication_positive_and_grows_with_q():
    name = "CAL"
    c1 = dgll(None, graph(name), rank_of(name), q=1).stats["comm"]
    c8 = dgll(None, graph(name), rank_of(name), q=8).stats["comm"]
    assert c8["broadcast_bytes"] > 0
    assert c8["broadcast_bytes"] > c1["broadcast_bytes"]  # delivered ×q


def test_common_table_improves_pruning():
    """§5.3: more redundancy avoided up-front → fewer labels broadcast."""
    name = "POK"
    plain = dgll(None, graph(name), rank_of(name), q=8)
    common = dgll(None, graph(name), rank_of(name), q=8, eta=16)
    assert (
        common.stats["labels_total"] == plain.stats["labels_total"]
    )  # same CHL out
    # construction generated fewer optimistic labels with the common table
    assert common.stats["comm"]["gather_bytes"] <= plain.stats["comm"]["gather_bytes"]


def test_oom_budget():
    with pytest.raises(OOMError):
        dgll(None, graph("POK"), rank_of("POK"), q=2, budget_bytes=64)


def test_deadline():
    r = dgll(None, graph("POK"), rank_of("POK"), q=2, deadline_s=0.0)
    assert r.stats["timed_out"]
    assert r.stats["supersteps"] == 0  # windows run, not windows planned


def test_windows_cover_grow_and_cap():
    """PLaNT windows (recorded with their Ψ) tile [0, n) from x1 = 16,
    growing by β until the tail; a finite Ψ_th caps them at n/8."""
    g, rank = graph("EAS"), rank_of("EAS")
    grown = [x for _, x, _ in plant_dist(None, g, rank, q=4).stats["psi_per_window"]]
    assert sum(grown) == g.n
    assert grown[:2] == [16, 128]  # β = 8
    assert all(b >= a for a, b in zip(grown, grown[1:-1]))  # grows until tail
    psi = hybrid(None, g, rank, q=4, psi_th=1e9).stats["psi_per_window"]
    starts, widths = [p for p, _, _ in psi], [x for _, x, _ in psi]
    assert starts == [sum(widths[:i]) for i in range(len(widths))]
    assert sum(widths) == g.n
    assert widths[0] == 16 and max(widths) == g.n // 8


def test_my_roots_circular_partition():
    order = np.arange(100)
    seen = []
    for node in range(4):
        seen += [j for j, _ in my_roots(order, 10, 20, 4, node)]
    assert sorted(seen) == list(range(10, 30))
    # node j holds exactly ranks ≡ j (mod q)
    assert all(j % 4 == 2 for j, _ in my_roots(order, 0, 100, 4, 2))


def test_label_partitioning_invariant(monkeypatch):
    """Every label in a node's shard has a hub owned by that node — under
    DGLL, PLaNT with a common table, and a Hybrid that switches."""
    name, q = "SKIT", 3
    g, rank = graph(name), rank_of(name)
    shards = {}

    def spy(read, n):  # the shards the driver read off the nodes
        shards.update(read)
        return collect_store(read, n)

    collect_store = dgll_mod.collect_store
    monkeypatch.setattr(dgll_mod, "collect_store", spy)
    order = roots_by_rank(rank)
    owner = {int(order[j]): j % q for j in range(g.n)}
    for run in (
        lambda: dgll(None, g, rank, q=q),
        lambda: plant_dist(None, g, rank, q=q, eta=8),
        lambda: hybrid(None, g, rank, q=q, psi_th=2.0),
    ):
        shards.clear()
        run()
        assert sorted(shards) == list(range(q))
        for node, triplets in shards.items():
            assert all(owner[h] == node for _, h, _ in triplets)
