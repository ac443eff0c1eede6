"""Hub-label storage.

``LabelStore`` keeps per-vertex (hub, distance) lists. Distances are
exact non-negative integers; ``INF`` is the unreachable sentinel, chosen
far above any real path length yet small enough that ``INF + INF`` never
overflows int64 (distance sums appear in pruning queries).

``CommonLabelTable`` is the paper's §5.3 structure: the *complete* label
sets of the η highest-ranked hubs, replicated on every node, stored as a
dense (η, n) distance matrix so a coverage query is a vectorised min.
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

#: Unreachable sentinel: > any path (max weight ~2^13 * n ~2^25 « 2^40).
INF = 1 << 40

#: Bytes per stored label — 4-byte hub id + 4-byte distance, the paper's
#: storage model — used for memory/communication accounting.
LABEL_BYTES = 8


@dataclass
class LabelStore:
    """Per-vertex hub labels for ``n`` vertices.

    ``hubs[v]`` / ``dists[v]`` are parallel Python lists in append order.
    No reader depends on that order: distance queries and cleaning probe
    a dense per-root or per-hub distance array, point PPSD queries a
    hub→dist dict, and a PPSD batch scatters a flat copy of the lists,
    made per call, into dense per-source rows (``QueryIndex.query_batch``).
    """

    n: int
    hubs: list[list[int]] = field(default=None)
    dists: list[list[int]] = field(default=None)

    def __post_init__(self):
        if self.hubs is None:
            self.hubs = [[] for _ in range(self.n)]
        if self.dists is None:
            self.dists = [[] for _ in range(self.n)]

    # ------------------------------------------------------------------ #
    def num_labels(self) -> int:
        """Total label count across all vertices."""
        return sum(len(h) for h in self.hubs)

    def als(self) -> float:
        """Average label size per vertex — the paper's ALS metric."""
        return self.num_labels() / self.n if self.n else 0.0

    def bytes(self) -> int:
        """Storage footprint under the paper's 8-bytes-per-label model."""
        return self.num_labels() * LABEL_BYTES

    def labels_of(self, v: int) -> zip:
        """Iterate (hub, dist) pairs of vertex ``v``."""
        return zip(self.hubs[v], self.dists[v])

    # ------------------------------------------------------------------ #
    def commit(self, triplets) -> None:
        """Append (v, hub, dist) triplets to their vertices' lists."""
        for v, h, d in triplets:
            self.hubs[v].append(h)
            self.dists[v].append(d)

    def delete(self, doomed: set[tuple[int, int]]) -> int:
        """Remove labels identified by (vertex, hub); returns count removed."""
        removed = 0
        for v in {v for v, _ in doomed}:
            hs, ds = self.hubs[v], self.dists[v]
            keep = [i for i, h in enumerate(hs) if (v, h) not in doomed]
            removed += len(hs) - len(keep)
            self.hubs[v] = [hs[i] for i in keep]
            self.dists[v] = [ds[i] for i in keep]
        return removed

    # ------------------------------------------------------------------ #
    def triplets(self) -> list[tuple[int, int, int]]:
        """All labels as (v, hub, dist) tuples."""
        return [
            (v, h, d)
            for v in range((self.n))
            for h, d in zip(self.hubs[v], self.dists[v])
        ]

    def to_pandas(self) -> pd.DataFrame:
        """Labels as a (v, hub, dist) frame — DataFrame/oracle boundary."""
        t = self.triplets()
        return pd.DataFrame(t, columns=["v", "hub", "dist"]).astype("int64")

    def canonical_set(self) -> frozenset[tuple[int, int, int]]:
        """Order-free identity of the labeling, for CHL-equality tests."""
        return frozenset(self.triplets())

    @staticmethod
    def from_triplets(n: int, triplets) -> "LabelStore":
        store = LabelStore(n)
        store.commit(list(triplets))
        return store


def payload_bytes(obj) -> int:
    """Pickled size of a payload — the unit of simulated network traffic."""
    return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


class CommonLabelTable:
    """Replicated labels of the η top-ranked hubs (paper §5.3).

    ``dist[i, v]`` is d(hub_i, v) if hub_i labels v, else INF. A tree
    asks ``cover_vector(root)`` once — one vectorised min over the η rows
    — and prunes v when some common hub lies on a path of length ≤ d(root, v).
    """

    def __init__(self, n: int, hub_ids: np.ndarray):
        self.n = n
        self.hub_ids = np.asarray(hub_ids, dtype=np.int64)
        self.row_of = {int(h): i for i, h in enumerate(self.hub_ids)}
        self.dist = np.full((len(self.hub_ids), n), INF, dtype=np.int64)

    def add_hub_labels(self, hub: int, labels) -> None:
        """Install the complete label list [(v, d)] of a top-η ``hub``."""
        row = self.row_of[int(hub)]
        for v, d in labels:
            self.dist[row, v] = d

    def cover_vector(self, root: int) -> np.ndarray:
        """The coverage query for one tree: ``out[v]`` = min over top hubs
        w ≠ root of d(w,root)+d(w,v), so (root, v) is covered within delta
        iff ``out[v] <= delta``.

        Finite d(w, root) implies R(w) > R(root) (rank-query invariant),
        so a hit always witnesses a higher-ranked vertex on a ≤delta path."""
        d = self.dist
        r = self.row_of.get(int(root))
        if r is not None:
            keep = np.arange(len(self.hub_ids)) != r
            d = d[keep]
        if len(d) == 0:
            return np.full(self.n, INF, dtype=np.int64)
        return (d + d[:, root][:, None]).min(axis=0)

    def bytes(self) -> int:
        """Traffic/memory accounting: only finite entries are real labels."""
        return int((self.dist < INF).sum()) * LABEL_BYTES
