"""Bulk shortest-path engine: cached adjacency + one compiled call per source set.

Per the HPC-Python guides, the hot loop belongs in compiled code: this
engine dispatches multi-source Dijkstra to ``scipy.sparse.csgraph`` (a
C implementation operating directly on our CSR buffers) while exposing the
same array contract as the pure-Python kernels.  All APSP pipelines and
benchmarks go through here; tests cross-check it against
:mod:`repro.sssp.dijkstra`.

Two mechanisms keep the Python-side cost of a call small:

* **Adjacency caching** — the CSR→scipy conversion (simplify + COO build +
  sort) runs once per distinct graph.  :class:`CSRGraph` objects are frozen
  after construction, so the cache key is the graph's content
  :attr:`~repro.graph.csr.CSRGraph.fingerprint` and entries never need
  invalidation; an LRU bound of 128 entries caps memory.
* **One compiled call per source set** — ``multi_source``, ``all_pairs``
  and ``spt_forest`` hand every source to a single ``csgraph.dijkstra``
  call.  The paper's batching of Dijkstra runs over CPU threads and the
  GPU (Sections 2.1.2 and 2.3) is modelled by the work-trace replay of
  :mod:`repro.hetero`, not by splitting the real call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from ..graph.csr import CSRGraph, GraphError, check_vertex_ids
from ..obs import metrics as _metrics
from ..obs.trace import span as _span

# Preresolved instruments: the cache and the dispatch increment these
# unconditionally (see repro.obs.metrics for why counters stay on).
_C_HITS = _metrics.counter("engine.adj_cache.hits")
_C_MISSES = _metrics.counter("engine.adj_cache.misses")
_C_CHUNKS = _metrics.counter("engine.chunks_dispatched")
_C_SOURCES = _metrics.counter("engine.sources_dispatched")
# Resident bytes of the process-wide adjacency cache (Table-1 style
# memory accounting for the engine layer; see repro.obs.memory).
_G_CACHE_BYTES = _metrics.gauge("memory.engine.adj_cache_bytes")

__all__ = [
    "ZERO_WEIGHT_NUDGE",
    "MIN_POSITIVE_WEIGHT",
    "AdjacencyCache",
    "CacheInfo",
    "adjacency_cache",
    "adjacency_matrix",
    "sssp",
    "multi_source",
    "all_pairs",
    "spt_forest",
]

#: Value substituted for explicit zero-weight edges.  scipy's sparse format
#: cannot distinguish an explicit zero from "no edge", so zeros are nudged
#: to a tiny positive value that can never dominate a genuine weight.
ZERO_WEIGHT_NUDGE = 1e-300

#: The engine's weight contract: every *non-zero* edge weight must be at
#: least this large.  Below it, the :data:`ZERO_WEIGHT_NUDGE` applied to
#: zero-weight edges could compete with genuine weights and silently
#: mis-rank paths, so :func:`adjacency_matrix` raises instead.
MIN_POSITIVE_WEIGHT = 1e-12

@dataclass(frozen=True)
class CacheInfo:
    """Snapshot of adjacency-cache effectiveness counters."""

    hits: int
    misses: int
    size: int
    maxsize: int
    bytes: int = 0  # resident scipy-CSR storage (data + indices + indptr)


def _csr_nbytes(mat: sp.csr_matrix) -> int:
    return int(mat.data.nbytes) + int(mat.indices.nbytes) + int(mat.indptr.nbytes)


class AdjacencyCache:
    """LRU cache of scipy CSR adjacency matrices keyed by graph fingerprint.

    Graphs are immutable, so entries are never invalidated — only evicted
    when the LRU bound is hit.  A process-wide instance backs the module
    functions; independent instances can be created for isolation (tests).
    """

    def __init__(self, maxsize: int = 128) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[str, sp.csr_matrix] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._bytes = 0

    def get(self, g: CSRGraph) -> sp.csr_matrix:
        """Cached adjacency of ``g`` (building + inserting on miss)."""
        key = g.fingerprint
        mat = self._entries.get(key)
        if mat is not None:
            self.hits += 1
            _C_HITS.inc()
            self._entries.move_to_end(key)
            return mat
        self.misses += 1
        _C_MISSES.inc()
        with _span("engine.adjacency_build", cat="sssp", n=g.n, m=g.m):
            mat = adjacency_matrix(g)
        self._entries[key] = mat
        self._bytes += _csr_nbytes(mat)
        if len(self._entries) > self.maxsize:
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= _csr_nbytes(evicted)
        _G_CACHE_BYTES.set(self._bytes)
        return mat

    def memory_bytes(self) -> int:
        """Resident bytes of every cached scipy adjacency."""
        return self._bytes

    def info(self) -> CacheInfo:
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            size=len(self._entries),
            maxsize=self.maxsize,
            bytes=self._bytes,
        )

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self._bytes = 0
        _G_CACHE_BYTES.set(0.0)


_GLOBAL_CACHE = AdjacencyCache()


def adjacency_cache() -> AdjacencyCache:
    """The process-wide adjacency cache (counters, ``clear()``)."""
    return _GLOBAL_CACHE


def adjacency_matrix(g: CSRGraph) -> sp.csr_matrix:
    """Symmetric scipy CSR adjacency (parallel edges collapse to min).

    Zero-weight edges are nudged to :data:`ZERO_WEIGHT_NUDGE` because
    scipy's sparse format cannot distinguish an explicit zero from "no
    edge".  The nudge never changes which path is shortest **provided every
    non-zero weight is at least** :data:`MIN_POSITIVE_WEIGHT` (= 1e-12):
    then even ``n`` chained nudges stay astronomically below any genuine
    weight difference.  Graphs violating that contract raise
    :class:`~repro.graph.csr.GraphError` here rather than silently
    mis-ranking paths.

    This always rebuilds; hot paths go through the fingerprint-keyed cache
    (see :func:`adjacency_cache`) via :func:`multi_source` and friends.
    """
    s = g.simplify()
    tiny = (s.edge_w != 0.0) & (s.edge_w < MIN_POSITIVE_WEIGHT)
    if tiny.any():
        bad = int(np.nonzero(tiny)[0][0])
        raise GraphError(
            f"edge weight {s.edge_w[bad]!r} violates the engine contract: "
            f"non-zero weights must be >= {MIN_POSITIVE_WEIGHT} "
            "(the zero-weight nudge could otherwise mis-rank paths)"
        )
    w = np.where(s.edge_w == 0.0, ZERO_WEIGHT_NUDGE, s.edge_w)
    row = np.concatenate([s.edge_u, s.edge_v])
    col = np.concatenate([s.edge_v, s.edge_u])
    dat = np.concatenate([w, w])
    return sp.coo_matrix((dat, (row, col)), shape=(g.n, g.n)).tocsr()


def sssp(g: CSRGraph, source: int, cache: bool = True) -> np.ndarray:
    """Single-source distances (compiled path)."""
    return multi_source(g, np.asarray([source]), cache=cache)[0]


def _dijkstra(
    g: CSRGraph, sources: np.ndarray, cache: bool, predecessors: bool
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Every source's Dijkstra in one compiled ``csgraph.dijkstra`` call.

    Returns float64 distances of shape ``(len(sources), n)``, plus int64
    predecessors when ``predecessors`` is set.  A non-integer source raises
    ``TypeError`` and one outside ``[0, n)`` ``ValueError``
    (:func:`~repro.graph.csr.check_vertex_ids`).  ``cache=False`` bypasses
    the adjacency cache (used by the before/after benchmarks).
    """
    sources = np.asarray(sources)
    k = len(sources)
    if k == 0:
        dist = np.zeros((0, g.n))
        return (dist, np.zeros((0, g.n), dtype=np.int64)) if predecessors else dist
    check_vertex_ids(g.n, sources)
    sources = sources.astype(np.int64, copy=False)
    mat = _GLOBAL_CACHE.get(g) if cache else adjacency_matrix(g)
    _C_SOURCES.inc(k)
    _C_CHUNKS.inc()
    with _span("sssp.chunk", cat="sssp", sources=k, predecessors=predecessors):
        out = csgraph.dijkstra(
            mat, directed=False, indices=sources, return_predecessors=predecessors
        )
    if predecessors:
        dist, pred = out
        return np.asarray(dist, dtype=np.float64), np.asarray(pred, dtype=np.int64)
    return np.asarray(out, dtype=np.float64)


def multi_source(g: CSRGraph, sources: np.ndarray, cache: bool = True) -> np.ndarray:
    """Distance matrix of shape ``(len(sources), n)``."""
    return _dijkstra(g, sources, cache, predecessors=False)


def all_pairs(g: CSRGraph, cache: bool = True) -> np.ndarray:
    """Full ``n × n`` distance matrix (the baseline Phase II on ``G``)."""
    return multi_source(g, np.arange(g.n, dtype=np.int64), cache=cache)


def spt_forest(
    g: CSRGraph, sources: np.ndarray, cache: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Shortest-path trees from each source.

    Returns ``(dist, parent)`` arrays of shape ``(len(sources), n)``;
    ``parent[i, v]`` is the predecessor of ``v`` in the tree rooted at
    ``sources[i]`` (``-9999`` for roots/unreachable, scipy's sentinel).
    """
    return _dijkstra(g, sources, cache, predecessors=True)
