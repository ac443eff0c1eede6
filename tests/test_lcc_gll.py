"""LCC and GLL (shared-memory optimistic parallel) correctness + behaviour."""
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import parallel
from repro.core.dijkstra import distance_query
from repro.core.gll import construct_and_clean, gll
from repro.core.labels import INF, LabelStore
from repro.core.lcc import lcc
from repro.core.parallel import eval_clean_chunk, fan_out, find_redundant, run_sampled
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


def _above(hubs_h, dists_h, h, rank):
    """L_h's dense array over the hubs that outrank h, as eval_clean_chunk
    builds it."""
    out = [INF] * len(rank)
    for w, d in zip(hubs_h, dists_h):
        if rank[w] > rank[h]:
            out[w] = d
    return out


def test_dq_clean_basic():
    # L_v = [(9, 2), (5, 4)], L_h(h=5) = [(9, 3), (5, 0)], rank = identity
    rank = np.arange(10)
    above_h = _above([9, 5], [3, 0], 5, rank)
    # label (5, d=5) at v: common hub 9 gives 2+3=5 <= 5 → redundant
    assert distance_query(above_h, [9, 5], [2, 4], 5)
    # tighter delta: not redundant
    assert not distance_query(above_h, [9, 5], [2, 4], 4)
    # no common hub above rank(h)
    assert not distance_query(above_h, [5], [4], 100)


def test_dq_clean_stops_at_rank_of_h():
    rank = np.arange(10)
    # common hub 3 (below h=5) would "witness" but must be ignored
    assert not distance_query(_above([8, 3], [3, 1], 5, rank), [9, 3], [2, 1], 100)
    # and eval_clean_chunk leaves it out of L_h's array: v = 0, h = 5
    witness = LabelStore.from_triplets(10, [(0, 9, 2), (0, 3, 1), (5, 8, 3), (5, 3, 1)])
    assert eval_clean_chunk([(0, 5, 100)], witness, rank) == []


def test_clean_chunk_resets_hub_array():
    """Candidates of hub 5 in two runs around a run of hub 2, whose L_h
    holds hub 3 (R(2) < R(3) < R(5)). Were hub 2's entry for hub 3 left in
    the array, it would witness (1, 5): d(1, 3) + d(2, 3) = 2 ≤ 2."""
    rank = np.arange(6)
    witness = LabelStore.from_triplets(
        6,
        [(0, 3, 1), (0, 5, 2), (1, 3, 1), (1, 5, 2), (1, 2, 5), (2, 3, 1), (2, 2, 0), (5, 5, 0)],
    )
    grouped = [(0, 5, 2), (1, 5, 2), (1, 2, 5)]
    split = [(0, 5, 2), (1, 2, 5), (1, 5, 2)]
    assert eval_clean_chunk(grouped, witness, rank) == [(1, 2)]
    assert eval_clean_chunk(split, witness, rank) == [(1, 2)]


def test_fan_out_rule():
    """Work fans out only when its serial seconds × (1 − 1/cores) exceed
    the job cost: on 4 cores the threshold is 4/3 of SPARK_JOB_S, and on
    one core or with no Spark session nothing fans out."""
    four = SimpleNamespace(sparkContext=SimpleNamespace(defaultParallelism=4))
    one = SimpleNamespace(sparkContext=SimpleNamespace(defaultParallelism=1))
    at = parallel.SPARK_JOB_S * 4 / 3
    assert fan_out(four, at * 1.01) is four
    assert fan_out(four, at * 0.99) is None
    assert fan_out(one, 1e6) is None
    assert fan_out(None, 1e6) is None


def test_run_sampled_samples_from_the_end(monkeypatch):
    """run_sampled runs chunks of 1, 2, 4, … items from the end on the
    driver while fan_out says so, then the items left as one Spark part,
    and returns the results in item order either way."""
    four = SimpleNamespace(sparkContext=SimpleNamespace(defaultParallelism=4))
    items = list(range(10))
    calls = []

    def run(target, part):
        calls.append((target, list(part)))
        return [10 * x for x in part]

    monkeypatch.setattr(parallel, "SPARK_JOB_S", float("inf"))
    assert run_sampled(four, run, items) == [10 * x for x in items]
    assert calls == [(None, [9]), (None, [7, 8]), (None, [3, 4, 5, 6]), (None, [0, 1, 2])]
    calls.clear()
    monkeypatch.setattr(parallel, "SPARK_JOB_S", -1.0)
    assert run_sampled(four, run, items) == [10 * x for x in items]
    assert calls == [(None, [9]), (four, list(range(9)))]
    calls.clear()
    assert run_sampled(None, run, items) == [10 * x for x in items]
    assert all(t is None for t, _ in calls)
    assert run_sampled(four, run, []) == []


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
