"""Compressed-sparse-row adjacency for weighted undirected graphs.

The CSR arrays are plain numpy so a graph pickles cheaply into a Spark
broadcast variable and is shared read-only by every task that builds a
shortest-path tree. The tree kernels read a derived per-vertex adjacency
of Python ints instead, built lazily once per graph per process and never
pickled. Edge weights are integers throughout the repo so distance
comparisons are exact (see DESIGN.md §4).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.core.labels import INF


@dataclass
class CSRGraph:
    """Undirected weighted graph in CSR form.

    Attributes:
        n: number of vertices (ids ``0..n-1``).
        indptr: int64 array of length ``n+1``; neighbours of ``v`` are
            ``indices[indptr[v]:indptr[v+1]]``.
        indices: int32 array of neighbour vertex ids (each undirected
            edge appears twice).
        weights: int64 array parallel to ``indices``.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    # Derived caches: excluded from equality, repr and the pickled state.
    _degrees: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _adj: list | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {f: getattr(self, f) for f in ("n", "indptr", "indices", "weights")}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.indices) // 2

    def degrees(self) -> np.ndarray:
        """Vertex degrees (number of incident undirected edges)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """``adj[v]`` = [(neighbour, weight), ...] of Python ints, in CSR
        order — what the tree kernels iterate. Built on first use."""
        if self._adj is None:
            ptr = self.indptr.tolist()
            pairs = list(zip(self.indices.tolist(), self.weights.tolist()))
            self._adj = [pairs[ptr[v] : ptr[v + 1]] for v in range(self.n)]
        return self._adj

    def neighbors(self, v: int) -> tuple[np.ndarray, np.ndarray]:
        """(neighbour ids, edge weights) of vertex ``v``."""
        s, e = self.indptr[v], self.indptr[v + 1]
        return self.indices[s:e], self.weights[s:e]

    def edge_pandas(self) -> pd.DataFrame:
        """One row per undirected edge (src < dst) — for DuckDB/Spark."""
        src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        dst = self.indices.astype(np.int64)
        w = self.weights.astype(np.int64)
        keep = src < dst
        return pd.DataFrame({"src": src[keep], "dst": dst[keep], "w": w[keep]})


def from_edges(n: int, src, dst, w) -> CSRGraph:
    """Build a CSRGraph from undirected edge lists (each edge given once).

    Parallel edges are collapsed to the minimum weight; self-loops are
    dropped (they never lie on a shortest path with positive weights).
    Raises ValueError if a vertex id lies outside ``[0, n)`` or if the
    kept weights sum to ``INF`` or more, since a real path could then read
    as unreachable.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    if any(((e < 0) | (e >= n)).any() for e in (src, dst)):
        raise ValueError(f"vertex ids must lie in [0, {n})")
    if np.any(w <= 0):
        raise ValueError("edge weights must be positive integers")
    keep = src != dst
    src, dst, w = src[keep], dst[keep], w[keep]

    # Canonicalize + dedupe (min weight wins for parallel edges).
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    key = lo * n + hi
    order = np.lexsort((w, key))
    key, lo, hi, w = key[order], lo[order], hi[order], w[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    lo, hi, w = lo[first], hi[first], w[first]
    if sum(w.tolist()) >= INF:  # Python ints: the sum cannot overflow
        raise ValueError(f"total edge weight must stay below INF = {INF}")

    # Symmetrize into CSR.
    all_src = np.concatenate([lo, hi])
    all_dst = np.concatenate([hi, lo])
    all_w = np.concatenate([w, w])
    order = np.argsort(all_src, kind="stable")
    all_src, all_dst, all_w = all_src[order], all_dst[order], all_w[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, all_src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRGraph(
        n=n,
        indptr=indptr,
        indices=all_dst.astype(np.int32),
        weights=all_w.astype(np.int64),
    )


def from_edge_pandas(pdf: pd.DataFrame, n: int | None = None) -> CSRGraph:
    """Build from a (src, dst, w) pandas frame; ``n`` defaults to max id + 1."""
    if n is None:
        n = int(max(pdf["src"].max(), pdf["dst"].max())) + 1
    return from_edges(n, pdf["src"].to_numpy(), pdf["dst"].to_numpy(), pdf["w"].to_numpy())
