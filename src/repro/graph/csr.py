"""Compressed-sparse-row graph substrate.

Every algorithm in this package operates on :class:`CSRGraph`, an immutable,
undirected, weighted (multi)graph stored in CSR layout.  The layout follows
the HPC idiom used throughout the paper's CUDA/OpenMP kernels: three flat
arrays (``indptr``, ``indices``, ``weights``) that allow fully vectorized
frontier relaxations and cache-friendly sequential scans.

Edges are *canonically* stored once in ``(edge_u, edge_v, edge_w)`` arrays of
length ``m`` (the number of undirected edges) and mirrored in both CSR
directions.  Each CSR slot carries the id of its canonical edge in
``csr_eid`` so that algorithms which reason about edges (minimum cycle basis,
spanning trees) can map an adjacency traversal back to a unique edge.

Parallel edges and self-loops are permitted: the reduced multigraphs produced
by ear decomposition (Section 3.3.1 of the paper) require both.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["CSRGraph", "GraphError", "check_vertex_ids"]


class GraphError(ValueError):
    """Raised when graph construction or validation fails."""


def check_vertex_ids(n: int, *ids: int | np.integer | np.ndarray) -> None:
    """Raise for the first of ``ids`` that is not a vertex id in ``[0, n)``.

    The one definition of a valid vertex id: an integer in ``[0, n)``.
    Each of ``ids`` is a Python or numpy integer, or an integer array whose
    entries are all checked (an empty array of any dtype passes).  The
    SSSP kernels pass their sources and the distance oracles their query
    ids and pair arrays.  A non-integer raises ``TypeError`` (numpy would
    truncate 1.5 to 1), an id outside the range ``ValueError`` (numpy and
    scipy would wrap a negative one).
    """
    for vid in ids:
        if isinstance(vid, np.ndarray):
            if not vid.size:
                continue
            if vid.dtype.kind not in "iu":
                raise TypeError(f"vertex ids must be integers, not {vid.dtype}")
            bounds = (int(vid.min()), int(vid.max()))
        elif isinstance(vid, (int, np.integer)):
            bounds = (vid,)
        else:
            raise TypeError(f"vertex id {vid!r} is not an integer")
        for b in bounds:
            if not 0 <= b < n:
                raise ValueError(f"vertex id {b} is outside [0, {n})")


class CSRGraph:
    """Immutable undirected weighted multigraph in CSR form.

    Parameters
    ----------
    n:
        Number of vertices; vertices are ``0 .. n-1``.
    edge_u, edge_v:
        Integer endpoint arrays of length ``m`` (one entry per undirected
        edge).  Order within a pair is irrelevant.
    edge_w:
        Positive edge weights of length ``m``.  Defaults to all ones.

    Notes
    -----
    Self-loops (``u == v``) appear once in the adjacency of ``u`` and
    contribute 2 to :attr:`degree` (the usual graph-theoretic convention,
    and the one that keeps the cycle-space dimension formula
    ``m - n + c`` correct).
    """

    __slots__ = (
        "n",
        "m",
        "edge_u",
        "edge_v",
        "edge_w",
        "indptr",
        "indices",
        "weights",
        "csr_eid",
        "_degree",
        "_fingerprint",
    )

    def __init__(
        self,
        n: int,
        edge_u: Sequence[int] | np.ndarray,
        edge_v: Sequence[int] | np.ndarray,
        edge_w: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        eu = np.ascontiguousarray(edge_u, dtype=np.int64)
        ev = np.ascontiguousarray(edge_v, dtype=np.int64)
        if eu.ndim != 1 or ev.ndim != 1 or eu.shape != ev.shape:
            raise GraphError("edge endpoint arrays must be 1-D and equal length")
        m = int(eu.shape[0])
        if edge_w is None:
            ew = np.ones(m, dtype=np.float64)
        else:
            ew = np.ascontiguousarray(edge_w, dtype=np.float64)
            if ew.shape != (m,):
                raise GraphError("edge weight array length must match edge count")
        if m:
            lo = min(eu.min(), ev.min())
            hi = max(eu.max(), ev.max())
            if lo < 0 or hi >= n:
                raise GraphError(
                    f"edge endpoint out of range: saw [{lo}, {hi}] for n={n}"
                )
            if not np.all(np.isfinite(ew)):
                raise GraphError("edge weights must be finite")
            if np.any(ew < 0):
                raise GraphError("edge weights must be non-negative")

        self.n = int(n)
        self.m = m
        self.edge_u = eu
        self.edge_v = ev
        self.edge_w = ew

        # Build the CSR mirror: every non-loop edge appears in both endpoint
        # rows, every self-loop appears once.  A counting sort on the source
        # endpoint keeps construction O(n + m) with pure vectorized numpy.
        loop = eu == ev
        src = np.concatenate([eu, ev[~loop]])
        dst = np.concatenate([ev, eu[~loop]])
        wts = np.concatenate([ew, ew[~loop]])
        eid = np.concatenate([np.arange(m, dtype=np.int64), np.nonzero(~loop)[0]])

        counts = np.bincount(src, minlength=n).astype(np.int64)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(src, kind="stable")
        self.indptr = indptr
        self.indices = np.ascontiguousarray(dst[order])
        self.weights = np.ascontiguousarray(wts[order])
        self.csr_eid = np.ascontiguousarray(eid[order])

        # Graph-theoretic degree: loops count twice.
        deg = np.diff(indptr).astype(np.int64)
        if m and loop.any():
            deg += np.bincount(eu[loop], minlength=n)
        self._degree = deg
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int] | tuple[int, int, float]],
    ) -> "CSRGraph":
        """Build from an iterable of ``(u, v)`` or ``(u, v, w)`` tuples."""
        us: list[int] = []
        vs: list[int] = []
        ws: list[float] = []
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                w = 1.0
            else:
                u, v, w = e  # type: ignore[misc]
            us.append(int(u))
            vs.append(int(v))
            ws.append(float(w))
        return cls(n, us, vs, ws)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def fingerprint(self) -> str:
        """Content digest of ``(n, edge_u, edge_v, edge_w)``, computed lazily.

        Graphs are frozen after construction, so the digest is a stable
        identity for derived-artifact caches (e.g. the bulk-SSSP engine's
        scipy adjacency cache) that survives distinct ``CSRGraph`` objects
        holding the same edge multiset in the same order.
        """
        if self._fingerprint is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(self.n).tobytes())
            h.update(self.edge_u.tobytes())
            h.update(self.edge_v.tobytes())
            h.update(self.edge_w.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    @property
    def degree(self) -> np.ndarray:
        """Graph-theoretic degree per vertex (self-loops count twice)."""
        return self._degree

    def neighbors(self, u: int) -> np.ndarray:
        """Adjacent vertex ids of ``u`` (a CSR slice view — do not mutate)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def incident(self, u: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(neighbors, weights, edge_ids)`` slices for vertex ``u``."""
        s, e = self.indptr[u], self.indptr[u + 1]
        return self.indices[s:e], self.weights[s:e], self.csr_eid[s:e]

    def edge_endpoints(self, eid: int) -> tuple[int, int]:
        """Canonical endpoints of edge ``eid``."""
        return int(self.edge_u[eid]), int(self.edge_v[eid])

    def has_edge(self, u: int, v: int) -> bool:
        """True if at least one edge joins ``u`` and ``v``."""
        return bool(np.any(self.neighbors(u) == v))

    def edge_weight(self, u: int, v: int) -> float:
        """Minimum weight among parallel ``u–v`` edges.

        Raises
        ------
        KeyError
            If no such edge exists.
        """
        nbrs, wts, _ = self.incident(u)
        mask = nbrs == v
        if not mask.any():
            raise KeyError(f"no edge between {u} and {v}")
        return float(wts[mask].min())

    def edges(self) -> Iterator[tuple[int, int, float]]:
        """Iterate over canonical edges as ``(u, v, w)``."""
        for i in range(self.m):
            yield int(self.edge_u[i]), int(self.edge_v[i]), float(self.edge_w[i])

    @property
    def total_weight(self) -> float:
        """Sum of all canonical edge weights."""
        return float(self.edge_w.sum())

    @property
    def has_parallel_edges(self) -> bool:
        """True if any vertex pair is joined by more than one edge."""
        if self.m == 0:
            return False
        lo = np.minimum(self.edge_u, self.edge_v)
        hi = np.maximum(self.edge_u, self.edge_v)
        keys = lo * self.n + hi
        return bool(np.unique(keys).size < self.m)

    @property
    def has_self_loops(self) -> bool:
        """True if any edge joins a vertex to itself."""
        return bool(np.any(self.edge_u == self.edge_v))

    def is_simple(self) -> bool:
        """True if the graph has no parallel edges and no self-loops."""
        return not (self.has_parallel_edges or self.has_self_loops)

    # ------------------------------------------------------------------ #
    # Derived graphs
    # ------------------------------------------------------------------ #

    def simplify(self) -> "CSRGraph":
        """Collapse parallel edges (keeping minimum weight) and drop loops.

        This is the transformation applied to the reduced graph before the
        APSP processing phase (Section 2.1.1: "we retain the edge with the
        shortest weight and discard the remaining edges").
        """
        if self.m == 0:
            return CSRGraph(self.n, [], [], [])
        lo = np.minimum(self.edge_u, self.edge_v)
        hi = np.maximum(self.edge_u, self.edge_v)
        keep = lo != hi
        lo, hi, w = lo[keep], hi[keep], self.edge_w[keep]
        # Sort by (pair, weight) and take the first of each pair group.
        keys = lo * self.n + hi
        order = np.lexsort((w, keys))
        keys, lo, hi, w = keys[order], lo[order], hi[order], w[order]
        first = np.ones(keys.shape[0], dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        return CSRGraph(self.n, lo[first], hi[first], w[first])

    def subgraph(self, vertices: Sequence[int] | np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Vertex-induced subgraph.

        Returns
        -------
        (sub, vmap):
            ``sub`` is the induced subgraph with vertices relabelled
            ``0 .. len(vertices)-1`` in the given order; ``vmap`` is the
            array of original vertex ids (``vmap[new] == old``).
        """
        vmap = np.ascontiguousarray(vertices, dtype=np.int64)
        if np.unique(vmap).size != vmap.size:
            raise GraphError("subgraph vertex list contains duplicates")
        inv = np.full(self.n, -1, dtype=np.int64)
        inv[vmap] = np.arange(vmap.size)
        keep = (inv[self.edge_u] >= 0) & (inv[self.edge_v] >= 0)
        sub = CSRGraph(
            int(vmap.size),
            inv[self.edge_u[keep]],
            inv[self.edge_v[keep]],
            self.edge_w[keep],
        )
        return sub, vmap

    def edge_subgraph(self, edge_ids: Sequence[int] | np.ndarray) -> "CSRGraph":
        """Subgraph on the same vertex set keeping only the given edges."""
        eids = np.ascontiguousarray(edge_ids, dtype=np.int64)
        return CSRGraph(self.n, self.edge_u[eids], self.edge_v[eids], self.edge_w[eids])

    def with_weights(self, edge_w: np.ndarray) -> "CSRGraph":
        """Copy of this graph with replaced edge weights."""
        return CSRGraph(self.n, self.edge_u, self.edge_v, edge_w)

    def reverse_permutation(self, perm: np.ndarray) -> "CSRGraph":
        """Relabel vertices: new id of old vertex ``v`` is ``perm[v]``."""
        perm = np.ascontiguousarray(perm, dtype=np.int64)
        if perm.shape != (self.n,) or np.unique(perm).size != self.n:
            raise GraphError("perm must be a permutation of 0..n-1")
        return CSRGraph(self.n, perm[self.edge_u], perm[self.edge_v], self.edge_w)

    # ------------------------------------------------------------------ #
    # Connectivity
    # ------------------------------------------------------------------ #

    def connected_components(self) -> tuple[int, np.ndarray]:
        """``(count, labels)`` via vectorized label propagation on edges."""
        labels = np.arange(self.n, dtype=np.int64)
        if self.m:
            eu, ev = self.edge_u, self.edge_v
            while True:
                lu = labels[eu]
                lv = labels[ev]
                new = labels.copy()
                np.minimum.at(new, eu, lv)
                np.minimum.at(new, ev, lu)
                # Pointer-jump until stable to shortcut long chains.
                while True:
                    nxt = new[new]
                    if np.array_equal(nxt, new):
                        break
                    new = nxt
                if np.array_equal(new, labels):
                    break
                labels = new
        roots, labels = np.unique(labels, return_inverse=True)
        return int(roots.size), labels.astype(np.int64)

    def is_connected(self) -> bool:
        """True for the empty graph, singletons, and connected graphs."""
        if self.n <= 1:
            return True
        count, _ = self.connected_components()
        return count == 1

    def cycle_space_dimension(self) -> int:
        """``m - n + c``: dimension of the GF(2) cycle space."""
        c, _ = self.connected_components()
        return self.m - self.n + c

    # ------------------------------------------------------------------ #
    # Dunder & debug
    # ------------------------------------------------------------------ #

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "multigraph" if not self.is_simple() else "graph"
        return f"CSRGraph(n={self.n}, m={self.m}, {kind})"

    def __eq__(self, other: object) -> bool:
        """Structural equality on the canonical sorted edge multiset."""
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if self.n != other.n or self.m != other.m:
            return False

        def canon(g: CSRGraph) -> np.ndarray:
            lo = np.minimum(g.edge_u, g.edge_v)
            hi = np.maximum(g.edge_u, g.edge_v)
            order = np.lexsort((g.edge_w, hi, lo))
            return np.stack([lo[order], hi[order], g.edge_w[order]])

        return bool(np.allclose(canon(self), canon(other)))

    __hash__ = None  # type: ignore[assignment]
