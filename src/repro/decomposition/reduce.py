"""Degree-2 chain contraction: the reduced graph ``G^r`` (Section 2.1.1).

Given a graph (in practice one biconnected component) the reduction keeps
every vertex of degree ≠ 2 (plus any vertices the caller pins, e.g.
articulation points) and contracts each maximal chain of degree-2 vertices
into a single weighted edge.  The result is in general a **multigraph**:
two kept vertices joined by several chains yield parallel edges, and a
chain that starts and ends at the same kept vertex yields a self-loop —
both are required verbatim by the MCB reduction (Lemma 3.1: "the graph G^r
may contain multiple edges and self-loops").

Alongside the reduced graph we retain, for every removed vertex ``x``, the
anchors ``left(x)``/``right(x)`` and its distances to them along the chain —
exactly the tables consumed by the APSP post-processing formulas of
Section 2.1.3.

The chains themselves are stored flat, CSR-style, in four read-only
arrays; no per-chain object exists until a reader indexes
``ReducedGraph.chains``.  Most chains of a typical component are single
edges between kept vertices, so per-chain objects would cost more than
the rest of the reduction together.
"""

from __future__ import annotations

import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from ..graph.csr import CSRGraph, GraphError
from ..obs import metrics as _metrics
from ..obs.trace import span as _span

__all__ = ["Chain", "ReducedGraph", "reduce_graph"]

_C_REDUCTIONS = _metrics.counter("reduce.calls")
_C_CHAINS = _metrics.counter("reduce.chains")
_C_REMOVED = _metrics.counter("reduce.vertices_removed")


@dataclass(frozen=True)
class Chain:
    """One contracted degree-2 chain.

    ``vertices`` runs from the left kept endpoint to the right kept endpoint
    (inclusive) in original vertex ids; ``edges`` are the original edge ids
    along it; ``prefix[i]`` is the distance from the left endpoint to
    ``vertices[i]`` (so ``prefix[-1]`` is the chain weight).
    """

    vertices: np.ndarray
    edges: np.ndarray
    prefix: np.ndarray

    @property
    def left(self) -> int:
        return int(self.vertices[0])

    @property
    def right(self) -> int:
        return int(self.vertices[-1])

    @property
    def weight(self) -> float:
        return float(self.prefix[-1])

    @property
    def interior(self) -> np.ndarray:
        """Removed (interior) vertices of this chain."""
        return self.vertices[1:-1]

    def __len__(self) -> int:
        return int(self.edges.size)


class _ChainViews(Sequence):
    """``Sequence[Chain]`` over the flat chain arrays of a :class:`ReducedGraph`.

    Indexing slices one chain out of the shared read-only arrays; nothing
    is copied and nothing is built for chains never indexed.
    """

    __slots__ = ("_eptr", "_edges", "_vertices", "_prefix")

    def __init__(self, eptr, edges, vertices, prefix) -> None:
        self._eptr = eptr
        self._edges = edges
        self._vertices = vertices
        self._prefix = prefix

    def __len__(self) -> int:
        return self._eptr.size - 1

    def __getitem__(self, c: int) -> Chain:
        count = len(self)
        c = operator.index(c)
        if c < 0:
            c += count
        if not 0 <= c < count:
            raise IndexError("chain index out of range")
        s, e = int(self._eptr[c]), int(self._eptr[c + 1])
        return Chain(
            vertices=self._vertices[s + c : e + c + 1],
            edges=self._edges[s:e],
            prefix=self._prefix[s + c : e + c + 1],
        )


@dataclass
class ReducedGraph:
    """Output of :func:`reduce_graph`.

    Attributes
    ----------
    original:
        The input graph ``G``.
    graph:
        The reduced multigraph ``G^r``; its vertex ``i`` is original vertex
        ``kept_ids[i]``, and its edge ``e`` contracts chain ``e``.
    kept_mask / kept_ids / reduced_id:
        Vertex bookkeeping.  ``reduced_id[old] == -1`` for removed vertices.
    chain_eptr / chain_edges / chain_vertices / chain_prefix:
        Every chain, flat and read-only.  Chain ``c`` walks the original
        edges ``chain_edges[chain_eptr[c]:chain_eptr[c + 1]]`` from its left
        to its right kept endpoint.  Having one more vertex than edges, its
        vertices (endpoints included) sit at positions
        ``chain_eptr[c] + c`` through ``chain_eptr[c + 1] + c`` of
        ``chain_vertices``, and ``chain_prefix`` holds, at the same
        positions, each vertex's distance from the left endpoint.
    chains:
        The same chains as a read-only sequence of :class:`Chain` views
        (one per reduced edge, same indexing), built when indexed.
    chain_of / pos_in_chain / dist_left / dist_right:
        Per *original* vertex: for removed vertices, the chain id, position
        of the vertex inside ``chains[c].vertices``, and distances to the
        chain's two anchors.  Entries for kept vertices are ``-1`` / 0.
    chain_left_rid / chain_right_rid / chain_weight:
        Per *chain*: reduced ids of the two anchors and the total chain
        weight.  These are the build-time prefix summaries the vectorized
        postprocess kernels gather from (``dist_left[x]`` is the per-vertex
        chain prefix, so ``|dist_left[x] − dist_left[y]|`` is the
        same-chain closed form).
    """

    original: CSRGraph
    graph: CSRGraph
    kept_mask: np.ndarray
    kept_ids: np.ndarray
    reduced_id: np.ndarray
    chain_eptr: np.ndarray
    chain_edges: np.ndarray
    chain_vertices: np.ndarray
    chain_prefix: np.ndarray
    chain_of: np.ndarray
    pos_in_chain: np.ndarray
    dist_left: np.ndarray
    dist_right: np.ndarray
    chain_left_rid: np.ndarray
    chain_right_rid: np.ndarray
    chain_weight: np.ndarray
    chains: Sequence[Chain] = field(init=False, repr=False)
    _simple_cache: CSRGraph | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        flat = (self.chain_eptr, self.chain_edges, self.chain_vertices, self.chain_prefix)
        # Views share these buffers: a writable view of one chain could
        # silently rewrite its neighbours.
        for arr in flat:
            arr.flags.writeable = False
        self.chains = _ChainViews(*flat)

    @property
    def n_removed(self) -> int:
        """Number of vertices contracted away."""
        return int((~self.kept_mask).sum())

    @property
    def removal_fraction(self) -> float:
        """Fraction of vertices removed (the Table 1 "Nodes Removed" knob)."""
        return self.n_removed / self.original.n if self.original.n else 0.0

    def _chain_id(self, x: int) -> int:
        c = int(self.chain_of[x])
        if c < 0:
            raise GraphError(f"vertex {x} is kept; only removed vertices have anchors")
        return c

    def left_anchor(self, x: int) -> int:
        """``left(x)`` in original vertex ids (Section 2.1.1).

        Raises :class:`GraphError` for a kept vertex.
        """
        return self.chains[self._chain_id(x)].left

    def right_anchor(self, x: int) -> int:
        """``right(x)`` in original vertex ids; :class:`GraphError` if kept."""
        return self.chains[self._chain_id(x)].right

    def simple_graph(self) -> CSRGraph:
        """Simple view of ``G^r`` (min-weight parallel edge, loops dropped).

        This is the graph the APSP processing phase runs Dijkstra on
        ("we retain the edge with the shortest weight").  Cached.
        """
        if self._simple_cache is None:
            self._simple_cache = self.graph.simplify()
        return self._simple_cache

    def expand_edge(self, reduced_eid: int) -> np.ndarray:
        """Original edge ids contracted into reduced edge ``reduced_eid``."""
        return self.chains[reduced_eid].edges

    def expand_cycle(self, reduced_eids: np.ndarray | list[int]) -> np.ndarray:
        """Map a cycle in ``G^r`` (reduced edge ids) to original edge ids.

        Per Lemma 3.1 this substitution turns any cycle of ``MCB(G^r)``
        into the corresponding cycle of ``MCB(G)`` with identical weight.
        """
        if len(reduced_eids) == 0:
            return np.empty(0, dtype=np.int64)
        ptr, edges = self.chain_eptr, self.chain_edges
        return np.concatenate([edges[ptr[e] : ptr[e + 1]] for e in reduced_eids])

    def validate(self) -> None:
        """Internal consistency checks (used by tests and examples)."""
        g, r = self.original, self.graph
        if int(self.kept_mask.sum()) != r.n:
            raise GraphError("kept count mismatch")
        ptr = self.chain_eptr
        if ptr.size - 1 != r.m:
            raise GraphError("chain count mismatch with reduced edges")
        uses = np.bincount(self.chain_edges, minlength=g.m)
        if np.any(uses > 1):
            raise GraphError("chains overlap on an original edge")
        left_pos, right_pos = _end_positions(ptr)
        if not np.isclose(self.chain_prefix[right_pos], r.edge_w).all():
            raise GraphError("chain weight mismatch with reduced edge")
        a = self.reduced_id[self.chain_vertices[left_pos]]
        b = self.reduced_id[self.chain_vertices[right_pos]]
        same = ((a == r.edge_u) & (b == r.edge_v)) | ((a == r.edge_v) & (b == r.edge_u))
        if not same.all():
            raise GraphError("chain endpoints mismatch with reduced edge")
        if np.any(uses == 0):
            raise GraphError("some original edge belongs to no chain")


def reduce_graph(g: CSRGraph, keep: np.ndarray | None = None) -> ReducedGraph:
    """Contract maximal degree-2 chains of ``g``.

    Parameters
    ----------
    g:
        Input graph.  Typically one biconnected component, but the routine
        is defined for any graph.
    keep:
        Optional boolean mask of vertices that must survive.  It is always
        *extended* with: vertices of degree ≠ 2, vertices carrying
        self-loops, and — for any cycle consisting purely of degree-2
        vertices — the smallest vertex id on the cycle (an anchor, so the
        cycle becomes a self-loop in ``G^r``).

    Chains are numbered in the order of the CSR slot (of a kept vertex)
    that discovers them, and each runs from the endpoint owning that slot.
    """
    with _span("decomposition.reduce", cat="decomposition", n=g.n, m=g.m):
        out = _reduce_graph(g, keep)
    _C_REDUCTIONS.inc()
    _C_CHAINS.inc(len(out.chains))
    _C_REMOVED.inc(out.n_removed)
    return out


def _end_positions(eptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of every chain's left and right endpoint in the flat
    vertex/prefix arrays (chain ``c`` has ``eptr[c+1] - eptr[c] + 1`` of them)."""
    c = np.arange(eptr.size - 1)
    return eptr[:-1] + c, eptr[1:] + c


def _reduce_graph(g: CSRGraph, keep: np.ndarray | None = None) -> ReducedGraph:
    n = g.n
    deg = g.degree
    caller_keep = keep is not None
    if keep is None:
        keep = np.zeros(n, dtype=bool)
    else:
        keep = np.asarray(keep, dtype=bool).copy()
        if keep.shape != (n,):
            raise GraphError("keep mask must have one entry per vertex")
    keep |= deg != 2
    if g.m and g.has_self_loops:
        loop_vertices = g.edge_u[g.edge_u == g.edge_v]
        keep[loop_vertices] = True

    keep = _promote_cycle_anchors(g, keep)

    kept_ids = np.nonzero(keep)[0]
    reduced_id = np.full(n, -1, dtype=np.int64)
    reduced_id[kept_ids] = np.arange(kept_ids.size)

    eptr, edges, vertices, prefix = _walk_chains(g, keep, kept_ids)
    left_pos, right_pos = _end_positions(eptr)
    chain_left_rid = reduced_id[vertices[left_pos]]
    chain_right_rid = reduced_id[vertices[right_pos]]
    chain_weight = prefix[right_pos]

    # Removed vertices are exactly the chain positions strictly between
    # two endpoints, in chain order.
    interior = np.ones(vertices.size, dtype=bool)
    interior[left_pos] = False
    interior[right_pos] = False
    at = np.flatnonzero(interior)
    cid = np.repeat(np.arange(eptr.size - 1), np.diff(eptr) - 1)
    x = vertices[at]
    chain_of = np.full(n, -1, dtype=np.int64)
    pos_in_chain = np.full(n, -1, dtype=np.int64)
    dist_left = np.zeros(n, dtype=np.float64)
    dist_right = np.zeros(n, dtype=np.float64)
    chain_of[x] = cid
    pos_in_chain[x] = at - left_pos[cid]
    dist_left[x] = prefix[at]
    dist_right[x] = chain_weight[cid] - prefix[at]

    reduced = CSRGraph(kept_ids.size, chain_left_rid, chain_right_rid, chain_weight)
    out = ReducedGraph(
        original=g,
        graph=reduced,
        kept_mask=keep,
        kept_ids=kept_ids,
        reduced_id=reduced_id,
        chain_eptr=eptr,
        chain_edges=edges,
        chain_vertices=vertices,
        chain_prefix=prefix,
        chain_of=chain_of,
        pos_in_chain=pos_in_chain,
        dist_left=dist_left,
        dist_right=dist_right,
        chain_left_rid=chain_left_rid,
        chain_right_rid=chain_right_rid,
        chain_weight=chain_weight,
    )
    if os.environ.get("REPRO_CHECK_INVARIANTS"):
        # Opt-in contract check (see repro.qa.invariants); a forced keep
        # mask legitimately leaves contractible vertices, so maximality is
        # only asserted for the default reduction.
        from ..qa.invariants import maybe_check_reduction

        maybe_check_reduction(out, strict_degree=not caller_keep)
    return out


def _walk_chains(
    g: CSRGraph, keep: np.ndarray, kept_ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One pass over the kept vertices' CSR slots, in slot order.

    Each slot whose edge no earlier chain used starts a chain, walked
    through removed (degree-2) vertices to the next kept vertex.  Returns
    the flat ``(eptr, edges, vertices, prefix)`` arrays.  The walk runs on
    Python lists: per step it is a handful of list reads, where numpy
    would pay a call per scalar.  Prefixes accumulate left to right from
    the first edge's weight, the exact sequence ``np.cumsum`` produces.
    """
    indptr = g.indptr.tolist()
    nbr = g.indices.tolist()
    slot_eid = g.csr_eid.tolist()
    weight = g.edge_w.tolist()
    kept = keep.tolist()
    # Only a chain's last edge can be met again from a kept vertex's
    # slots (interior edges have no kept endpoint, the first edge is the
    # current slot), so only last edges are marked.
    used = [False] * g.m
    eptr = [0]
    edges: list[int] = []
    vertices: list[int] = []
    prefix: list[float] = []
    add_edge, add_vertex, add_prefix = edges.append, vertices.append, prefix.append
    for u in kept_ids.tolist():
        for slot in range(indptr[u], indptr[u + 1]):
            eid = slot_eid[slot]
            if used[eid]:
                continue
            v = nbr[slot]
            acc = weight[eid]
            add_vertex(u)
            add_prefix(0.0)
            add_edge(eid)
            while not kept[v]:
                add_vertex(v)
                add_prefix(acc)
                # A removed vertex has exactly two slots: leave by the
                # one the walk did not arrive on.
                s = indptr[v]
                if slot_eid[s] == eid:
                    s += 1
                eid = slot_eid[s]
                add_edge(eid)
                acc += weight[eid]
                v = nbr[s]
            add_vertex(v)
            add_prefix(acc)
            used[eid] = True
            eptr.append(len(edges))
    return (
        np.asarray(eptr, dtype=np.int64),
        np.asarray(edges, dtype=np.int64),
        np.asarray(vertices, dtype=np.int64),
        np.asarray(prefix, dtype=np.float64),
    )


def _promote_cycle_anchors(g: CSRGraph, keep: np.ndarray) -> np.ndarray:
    """Pin one vertex of every cycle made purely of degree-2 vertices.

    Without an anchor such a cycle would have no kept endpoint for its
    chain; with one, it contracts to a single self-loop.  (A biconnected
    component that is a bare cycle hits this case, e.g. the grafted blocks
    of the Table 1 stand-ins when the shared vertex is removed.)

    Every unkept vertex has degree 2 and no self-loop, so each connected
    component of the unkept vertices is a path or a cycle, and it is a
    cycle exactly when it has as many internal edges as vertices.  The
    smallest vertex id of each such cycle is pinned.
    """
    free = np.flatnonzero(~keep)
    inner = ~keep[g.edge_u] & ~keep[g.edge_v]
    if not inner.any():
        return keep
    local = np.full(g.n, -1, dtype=np.int64)
    local[free] = np.arange(free.size)
    a = local[g.edge_u[inner]]
    b = local[g.edge_v[inner]]
    adj = sp.csr_matrix((np.ones(a.size), (a, b)), shape=(free.size, free.size))
    count, label = connected_components(adj, directed=False)
    n_vertices = np.bincount(label, minlength=count)
    n_edges = np.bincount(label[a], minlength=count)
    cycles = np.flatnonzero(n_edges == n_vertices)
    if cycles.size:
        # ``free`` ascends, so a label's first position is its smallest id.
        _, first = np.unique(label, return_index=True)
        keep[free[first[cycles]]] = True
    return keep
