"""Sequential Pruned Landmark Labeling (Akiba et al.) — the seqPLL baseline.

Processes roots strictly in decreasing rank order with full visibility of
all previously generated labels, which makes its output exactly the CHL.
Every parallel algorithm in this repo is tested for label-equality
against it (and it, in turn, against ``reference.brute_chl``).
"""
from __future__ import annotations

import time

import numpy as np

from repro.core.dijkstra import as_list, prune_dij_rq
from repro.core.labels import LabelStore
from repro.graphs.csr import CSRGraph
from repro.graphs.ranking import roots_by_rank


def seq_pll(
    g: CSRGraph,
    rank: np.ndarray,
    *,
    deadline_s: float | None = None,
) -> tuple[LabelStore, dict]:
    """Build the CHL sequentially.

    ``deadline_s`` models the paper's 2-hour wall-clock budget: when
    exceeded the run stops and reports ``timed_out`` (Table 3's ∞ rows).
    """
    store = LabelStore(g.n)
    t0 = time.perf_counter()
    timed_out = False
    trees = 0
    rank_list = as_list(rank)  # converted once, not once per tree
    for root in roots_by_rank(rank):
        if deadline_s is not None and time.perf_counter() - t0 > deadline_s:
            timed_out = True
            break
        labels = prune_dij_rq(g, rank_list, int(root), store)
        store.commit([(v, int(root), d) for v, d in labels])
        trees += 1
    return store, {
        "time_s": time.perf_counter() - t0,
        "timed_out": timed_out,
        "trees": trees,
        "als": store.als(),
    }
