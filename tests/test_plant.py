"""PLaNT correctness: per-tree and whole-labeling equality with CHL,
ancestor tie-breaking, early termination, and common-table pruning."""
import numpy as np
import pytest

from repro.core.labels import CommonLabelTable, LabelStore
from repro.core.plant import plant_dijkstra
from repro.core.reference import brute_chl
from repro.graphs.csr import from_edges
from repro.graphs.generators import DATASETS
from repro.graphs.ranking import roots_by_rank
from tests.helpers import (
    chl_set,
    graph,
    random_connected_graph,
    random_rank,
    rank_of,
)

ALL = sorted(DATASETS)


def plant_all(g, rank, common=None):
    store = LabelStore(g.n)
    explored = 0
    for r in roots_by_rank(rank):
        labels, ex = plant_dijkstra(g, rank, int(r), common=common)
        store.commit([(v, int(r), d) for v, d in labels])
        explored += ex
    return store, explored


@pytest.mark.parametrize("name", ALL)
def test_plant_equals_chl(name):
    store, _ = plant_all(graph(name), rank_of(name))
    assert store.canonical_set() == chl_set(name)


@pytest.mark.parametrize("seed", range(8))
def test_plant_random_graphs(seed):
    g = random_connected_graph(35, 35, 6, seed=seed)
    rank = random_rank(35, seed + 50)
    store, _ = plant_all(g, rank)
    assert store.canonical_set() == brute_chl(g, rank).canonical_set()


def test_paper_figure1_scenario():
    """The Fig. 1 style case: two equal shortest paths, one through a
    higher-ranked vertex — the pair must NOT be labelled by the root."""
    #      0 --1-- 1 --1-- 3        rank: 1 is highest
    #       \--1-- 2 --1--/
    g = from_edges(4, [0, 0, 1, 2], [1, 2, 3, 3], [1, 1, 1, 1])
    rank = np.array([2, 3, 1, 0])  # R(1) > R(0) > R(2) > R(3)
    labels, _ = plant_dijkstra(g, rank, 0)
    got = dict(labels)
    assert got == {0: 0, 2: 1}  # 1 outranks root; 3's SPs include vertex 1


def test_relaxation_not_pruned_at_high_rank_vertex():
    """Regression for the wrong-distance trap: the shortest path to u goes
    through a higher-ranked vertex x; a longer clean path exists. PLaNT
    must keep relaxing through x so u is never labelled at the wrong
    distance (it must not be labelled at all)."""
    # root r=0 (rank 5), x=1 (rank 10), u=2. 0-1 w1, 1-2 w1, 0-2 w5.
    g = from_edges(3, [0, 1, 0], [1, 2, 2], [1, 1, 5])
    rank = np.array([5, 10, 0])
    labels, _ = plant_dijkstra(g, rank, 0)
    assert dict(labels) == {0: 0}


def test_equal_path_tiebreak_picks_higher_ancestor():
    """Two equal-length paths; one contains a higher-ranked vertex →
    ancestor must adopt it and suppress the label (SP set is the union)."""
    # 0->3 via 1 (rank 9) length 2, and via 2 (rank 1) length 2.
    g = from_edges(4, [0, 1, 0, 2], [1, 3, 2, 3], [1, 1, 1, 1])
    rank = np.array([5, 9, 1, 0])
    labels, _ = plant_dijkstra(g, rank, 0)
    got = dict(labels)
    assert 3 not in got  # covered by vertex 1 on one of its shortest paths
    assert got == {0: 0, 2: 1}


def test_early_termination_explores_less_than_full():
    g = graph("CAL")
    rank = rank_of("CAL")
    order = roots_by_rank(rank)
    low_root = int(order[-1])  # least important vertex
    _, explored = plant_dijkstra(g, rank, low_root)
    assert explored < g.n  # termination fired well before the full graph


def test_top_root_explores_everything():
    g = graph("CAL")
    rank = rank_of("CAL")
    top = int(roots_by_rank(rank)[0])
    labels, explored = plant_dijkstra(g, rank, top)
    assert explored == g.n and len(labels) == g.n


@pytest.mark.parametrize("name", ["CAL", "SKIT", "POK"])
def test_common_table_pruning_preserves_chl(name):
    """§5.3: pruning PLaNTed trees with complete top-η label sets is safe."""
    g, rank = graph(name), rank_of(name)
    order = roots_by_rank(rank)
    eta = 8
    top = [int(r) for r in order[:eta]]
    ct = CommonLabelTable(g.n, np.array(top))
    store = LabelStore(g.n)
    for j, r in enumerate(order):
        common = ct if j >= eta else None  # table complete only after top-η
        labels, _ = plant_dijkstra(g, rank, int(r), common=common)
        store.commit([(v, int(r), d) for v, d in labels])
        if int(r) in top:
            ct.add_hub_labels(int(r), labels)
    assert store.canonical_set() == chl_set(name)


@pytest.mark.parametrize("name", ["CAL", "SKIT"])
def test_common_table_reduces_exploration(name):
    g, rank = graph(name), rank_of(name)
    order = roots_by_rank(rank)
    eta = 8
    top = [int(r) for r in order[:eta]]
    ct = CommonLabelTable(g.n, np.array(top))
    for r in top:
        labels, _ = plant_dijkstra(g, rank, r)
        ct.add_hub_labels(r, labels)
    plain = pruned = 0
    for r in order[eta:]:
        _, e1 = plant_dijkstra(g, rank, int(r))
        _, e2 = plant_dijkstra(g, rank, int(r), common=ct)
        plain += e1
        pruned += e2
    assert pruned < plain


def test_psi_grows_for_low_rank_roots():
    """Fig. 3 behaviour: later SPTs explore many vertices per label."""
    g, rank = graph("SKIT"), rank_of("SKIT")
    order = roots_by_rank(rank)

    def psi(roots):
        ex = lb = 0
        for r in roots:
            labels, e = plant_dijkstra(g, rank, int(r))
            ex += e
            lb += len(labels)
        return ex / max(1, lb)

    assert psi(order[-10:]) > psi(order[:10])
