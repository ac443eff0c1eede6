"""Shared, memoised fixtures-by-function for the test suite.

Graphs, rankings, ground-truth CHL and distance matrices are pure
functions of (name, scale), so tests share them through lru_caches —
brute-force CHL is O(n^3) and would dominate the suite if recomputed.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.pll import seq_pll
from repro.core.reference import all_pairs_dist, brute_chl
from repro.graphs.csr import CSRGraph, from_edges
from repro.graphs.generators import DATASETS, build_dataset
from repro.graphs.ranking import rank_for

#: Small but topology-diverse subset used by most algorithm tests.
CORE_DATASETS = ["CAL", "EAS", "SKIT", "ACT", "POK"]
#: Scale used in unit tests — graphs of ~60–300 vertices.
TEST_SCALE = 0.06


@lru_cache(maxsize=64)
def graph(name: str, scale: float = TEST_SCALE) -> CSRGraph:
    return build_dataset(name, scale)


@lru_cache(maxsize=64)
def rank_of(name: str, scale: float = TEST_SCALE) -> np.ndarray:
    return rank_for(graph(name, scale), DATASETS[name].kind)


@lru_cache(maxsize=64)
def chl(name: str, scale: float = TEST_SCALE):
    """Brute-force canonical labeling (the universal expected value)."""
    return brute_chl(graph(name, scale), rank_of(name, scale))


@lru_cache(maxsize=64)
def chl_set(name: str, scale: float = TEST_SCALE) -> frozenset:
    return chl(name, scale).canonical_set()


@lru_cache(maxsize=64)
def dist_matrix(name: str, scale: float = TEST_SCALE) -> np.ndarray:
    return all_pairs_dist(graph(name, scale))


@lru_cache(maxsize=64)
def pll_store(name: str, scale: float = TEST_SCALE):
    store, _ = seq_pll(graph(name, scale), rank_of(name, scale))
    return store


def assert_batch_is_scalar(index, pairs) -> None:
    """``index.query_batch`` answers every pair as the scalar ``query`` does."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    got = index.query_batch(pairs)
    assert got.dtype == np.int64 and got.shape == (len(pairs),)
    assert got.tolist() == [index.query(u, v) for u, v in pairs.tolist()]


def random_connected_graph(n: int, extra: int, wmax: int, seed: int) -> CSRGraph:
    """Random-cycle-plus-edges graph for property-style tests."""
    g = np.random.default_rng(seed)
    perm = g.permutation(n)
    src = np.concatenate([perm, g.integers(0, n, extra)])
    dst = np.concatenate([np.roll(perm, 1), g.integers(0, n, extra)])
    w = g.integers(1, wmax + 1, len(src))
    return from_edges(n, src, dst, w)


def random_rank(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).permutation(n).astype(np.int64)


def tiny_line_graph() -> CSRGraph:
    """0-1-2-3 path with unit weights — hand-checkable cases."""
    return from_edges(4, [0, 1, 2], [1, 2, 3], [1, 1, 1])
