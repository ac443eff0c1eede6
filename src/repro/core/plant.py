"""PLaNT — Prune Labels and (do) Not (prune) Trees (paper Alg. 3).

An un-pruned Dijkstra that tracks, per vertex, the highest-ranked
*ancestor* on the best path from the root. A label (root, d) is emitted
for v only when neither v nor its ancestor outranks the root — i.e. the
root is the argmax-rank vertex on the chosen shortest path — which yields
exactly the canonical labels without consulting any previously generated
label. Distance ties resolve toward the higher-ranked ancestor so that a
pair with *any* shortest path through a higher-ranked vertex is never
labelled (CHL's SP(u,v) is the union over all shortest paths).

Early termination: once no unsettled reachable vertex has a clean path
(ancestor == root), no further label can ever be generated, so the tree
stops (the paper's ``cnt`` counter).

With a ``CommonLabelTable`` (paper §5.3) the tree additionally prunes at
vertices covered by a replicated top-η hub; this is safe because the
table holds those hubs' *complete* label sets.
"""
from __future__ import annotations

import heapq

from repro.core.dijkstra import as_list
from repro.core.labels import INF, CommonLabelTable
from repro.graphs.csr import CSRGraph


def plant_dijkstra(
    g: CSRGraph,
    rank,  # list or numpy array; arrays convert once per call
    root: int,
    *,
    common: CommonLabelTable | None = None,
) -> tuple[list[tuple[int, int]], int]:
    """PLaNT one shortest-path tree.

    Returns ``(labels, explored)`` where labels are ``[(v, d(root, v))]``
    with hub = root, and ``explored`` is the number of settled vertices
    (the numerator of the paper's Ψ ratio).
    """
    adj = g.adjacency()
    rank = as_list(rank)
    rroot = rank[root]
    dist = [INF] * g.n
    anc = [-1] * g.n  # max-rank vertex on path, excl. self
    done = [False] * g.n
    dist[root] = 0
    anc[root] = root
    cnt = 1  # unsettled reachable vertices with a clean (ancestor==root) path
    pq = [(0, root)]
    out: list[tuple[int, int]] = []
    explored = 0
    cover = common.cover_vector(root).tolist() if common is not None else None
    while pq:
        if cnt == 0:
            break  # early termination: no clean frontier left
        d, v = heapq.heappop(pq)
        if done[v]:
            continue
        done[v] = True
        explored += 1
        av = anc[v]
        if av == root:
            cnt -= 1
        if cover is not None and v != root and cover[v] <= d:
            continue  # §5.3 prune: label and subtree both covered by a top hub
        # nA: highest-ranked vertex on the path *including* v.
        na = v if rank[v] > rank[av] else av
        rna = rank[na]
        if rna <= rroot:
            out.append((v, d))
        # PLaNT never prunes the tree: always relax, propagating ancestors.
        for u, w in adj[v]:
            if done[u]:
                continue
            nd = d + w
            du = dist[u]
            if nd < du:
                was_clean = du < INF and anc[u] == root
                anc[u] = na
                if na == root:
                    if not was_clean:
                        cnt += 1
                elif was_clean:
                    cnt -= 1
                dist[u] = nd
                heapq.heappush(pq, (nd, u))
            elif nd == du:
                # Equal-length path: keep the higher-ranked ancestor.
                pa = anc[u]
                if rna > rank[pa]:
                    if pa == root:
                        cnt -= 1  # na != root here (rank[na] > rank[root])
                    anc[u] = na
    return out, explored
