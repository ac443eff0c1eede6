"""LCC and GLL (shared-memory optimistic parallel) correctness + behaviour."""
import numpy as np
import pytest

from repro.core.gll import construct_and_clean, gll
from repro.core.lcc import lcc
from repro.core.parallel import dq_clean, find_redundant
from repro.core.reference import brute_chl
from tests.helpers import (
    CORE_DATASETS,
    chl,
    chl_set,
    graph,
    random_connected_graph,
    random_rank,
    rank_of,
)


@pytest.mark.parametrize("name", CORE_DATASETS)
@pytest.mark.parametrize("p", [2, 8, 32])
def test_gll_equals_chl(name, p):
    store, stats = gll(None, graph(name), rank_of(name), p=p)
    assert store.canonical_set() == chl_set(name)
    assert not stats["timed_out"]


@pytest.mark.parametrize("name", CORE_DATASETS)
@pytest.mark.parametrize("p", [2, 16])
def test_lcc_equals_chl(name, p):
    store, _ = lcc(None, graph(name), rank_of(name), p=p)
    assert store.canonical_set() == chl_set(name)


@pytest.mark.parametrize("alpha", [1.0, 4.0, 16.0])
def test_gll_alpha_sweep(alpha):
    store, stats = gll(None, graph("CAL"), rank_of("CAL"), p=8, alpha=alpha)
    assert store.canonical_set() == chl_set("CAL")
    assert stats["supersteps"] >= 1


def test_small_alpha_means_more_supersteps():
    _, s1 = gll(None, graph("CAL"), rank_of("CAL"), p=8, alpha=1.0)
    _, s2 = gll(None, graph("CAL"), rank_of("CAL"), p=8, alpha=16.0)
    assert s1["supersteps"] >= s2["supersteps"]


def test_optimistic_construction_respects_r():
    """Claim 1: before cleaning, the labeling covers and contains the CHL,
    and every hub outranks-or-equals its vertex (rank-query invariant)."""
    name = "SKIT"
    g, rank = graph(name), rank_of(name)
    store, _ = construct_and_clean(None, g, rank, p=16, alpha=None, clean=False)
    assert chl_set(name) <= store.canonical_set()
    for v in range(g.n):
        for h, _ in store.labels_of(v):
            assert rank[h] >= rank[v]


def test_cleaning_removes_exactly_the_redundant():
    """Cleaning the uncleaned optimistic labeling yields exactly the CHL."""
    name = "POK"
    g, rank = graph(name), rank_of(name)
    store, _ = construct_and_clean(None, g, rank, p=16, alpha=None, clean=False)
    doomed = find_redundant(None, store, store.triplets(), rank)
    store.delete(doomed)
    assert store.canonical_set() == chl_set(name)


def test_cleaning_ignores_label_order():
    """Reversing every vertex's lists of the uncleaned labeling leaves the
    redundant set unchanged: cleaning reads no order from the store."""
    name = "POK"
    g, rank = graph(name), rank_of(name)
    store, _ = construct_and_clean(None, g, rank, p=16, alpha=None, clean=False)
    cands = store.triplets()
    doomed = find_redundant(None, store, cands, rank)
    assert doomed
    for v in range(store.n):
        store.hubs[v].reverse()
        store.dists[v].reverse()
    assert find_redundant(None, store, cands, rank) == doomed


def test_dq_clean_basic():
    # L_v = [(9, 2), (5, 4)], L_h(h=5) = [(9, 3), (5, 0)], rank = identity
    rank = np.arange(10)
    # label (5, d=5) at v: common hub 9 gives 2+3=5 <= 5 → redundant
    assert dq_clean([9, 5], [2, 4], [9, 5], [3, 0], 5, 5, rank)
    # tighter delta: not redundant
    assert not dq_clean([9, 5], [2, 4], [9, 5], [3, 0], 5, 4, rank)
    # no common hub above rank(h)
    assert not dq_clean([5], [4], [9, 5], [3, 0], 5, 100, rank)


def test_dq_clean_stops_at_rank_of_h():
    rank = np.arange(10)
    # common hub 3 (below h=5) would "witness" but must be ignored
    assert not dq_clean([9, 3], [2, 1], [8, 3], [3, 1], 5, 100, rank)


@pytest.mark.parametrize("seed", range(5))
def test_gll_random(seed):
    g = random_connected_graph(40, 35, 6, seed=seed)
    rank = random_rank(40, seed)
    store, _ = gll(None, g, rank, p=8)
    assert store.canonical_set() == brute_chl(g, rank).canonical_set()


def test_gll_cleaning_cheaper_than_lcc():
    """GLL restricts cleaning queries to the local table → fewer checks.
    We compare cleaning workload via time on a graph with real volume."""
    g, rank = graph("POK"), rank_of("POK")
    _, s_gll = gll(None, g, rank, p=16, alpha=2.0)
    _, s_lcc = lcc(None, g, rank, p=16)
    # both produce CHL; GLL must not clean more labels than LCC checks
    assert s_gll["labels_cleaned"] <= s_lcc["labels_generated"]
    assert s_gll["supersteps"] >= s_lcc["supersteps"]


def test_stats_accounting():
    store, stats = gll(None, graph("CAL"), rank_of("CAL"), p=8)
    assert stats["labels_generated"] == store.num_labels() + stats["labels_cleaned"]
    assert stats["trees"] == graph("CAL").n
    assert stats["als"] == pytest.approx(store.als())


def test_deadline():
    store, stats = gll(None, graph("POK"), rank_of("POK"), p=4, deadline_s=0.0)
    assert stats["timed_out"]
