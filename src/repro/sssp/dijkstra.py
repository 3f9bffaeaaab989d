"""Binary-heap Dijkstra (the per-thread CPU kernel of Phase II).

The paper runs "multiple instances of Dijkstra's algorithm from different
vertices ... each instance on an individual thread" (Section 2.1.2).  This
module is that per-instance kernel: a lazy-deletion binary-heap Dijkstra
with optional predecessor output and early exit.

For bulk APSP the scipy-backed :mod:`repro.sssp.engine` is faster; this
pure-Python version is the readable reference the tests trust.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..graph.csr import CSRGraph, GraphError, check_vertex_ids

__all__ = ["dijkstra", "dijkstra_tree", "shortest_path"]


def dijkstra(
    g: CSRGraph,
    source: int,
    target: int | None = None,
) -> np.ndarray:
    """Distances from ``source`` to every vertex (``inf`` if unreachable).

    With ``target`` given, stops as soon as the target is settled; the
    remaining entries are then upper bounds, not exact distances.  A
    non-integer source raises ``TypeError``, one outside ``[0, n)``
    ``ValueError``.
    """
    check_vertex_ids(g.n, source)
    dist = np.full(g.n, np.inf, dtype=np.float64)
    dist[source] = 0.0
    indptr, indices, weights = g.indptr, g.indices, g.weights
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue  # stale heap entry (lazy deletion)
        if u == target:
            break
        for slot in range(indptr[u], indptr[u + 1]):
            v = int(indices[slot])
            nd = d + weights[slot]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def dijkstra_tree(g: CSRGraph, source: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shortest-path tree from ``source``.

    Returns
    -------
    (dist, parent, parent_edge):
        ``parent[v]`` is the predecessor of ``v`` on a shortest path
        (``-1`` for the source and unreachable vertices); ``parent_edge[v]``
        the canonical edge id used.  Ties are broken by heap order, so the
        tree is deterministic for a given graph.

    A non-integer source raises ``TypeError``, one outside ``[0, n)``
    ``ValueError``.
    """
    check_vertex_ids(g.n, source)
    n = g.n
    dist = np.full(n, np.inf, dtype=np.float64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)
    dist[source] = 0.0
    indptr, indices, weights, eids = g.indptr, g.indices, g.weights, g.csr_eid
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for slot in range(indptr[u], indptr[u + 1]):
            v = int(indices[slot])
            nd = d + weights[slot]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                parent_edge[v] = eids[slot]
                heapq.heappush(heap, (nd, v))
    return dist, parent, parent_edge


def shortest_path(g: CSRGraph, source: int, target: int) -> tuple[float, list[int]]:
    """``(distance, vertex path)`` from source to target.

    The path is empty when the target is unreachable.
    """
    check_vertex_ids(g.n, target)
    dist, parent, _ = dijkstra_tree(g, source)
    if not np.isfinite(dist[target]):
        return float("inf"), []
    path = [target]
    # A well-formed parent chain reaches the source in < n hops; anything
    # longer means the parent array is corrupted (a cycle or a stray -1),
    # so raise instead of walking forever.
    while path[-1] != source:
        if len(path) > g.n:
            raise GraphError(
                f"parent chain from {target} exceeds {g.n} hops — corrupted tree"
            )
        nxt = int(parent[path[-1]])
        if nxt < 0:
            raise GraphError(
                f"parent chain from {target} hit -1 before reaching {source}"
            )
        path.append(nxt)
    path.reverse()
    return float(dist[target]), path
