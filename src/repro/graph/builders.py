"""Conversions between :class:`CSRGraph` and external representations."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from .csr import CSRGraph, GraphError

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "from_networkx",
    "to_networkx",
    "from_scipy",
    "to_scipy",
    "from_adjacency",
    "to_adjacency",
]


def from_networkx(g: "nx.Graph", weight: str = "weight", default: float = 1.0) -> CSRGraph:
    """Convert a networkx (multi)graph.

    Vertices must be hashable; they are relabelled ``0..n-1`` in
    ``sorted(g.nodes)`` order when they are not already a 0-based integer
    range, so the conversion is deterministic.
    """
    nodes = list(g.nodes)
    if all(isinstance(v, (int, np.integer)) for v in nodes) and sorted(nodes) == list(
        range(len(nodes))
    ):
        relabel = {v: int(v) for v in nodes}
    else:
        relabel = {v: i for i, v in enumerate(sorted(nodes, key=repr))}
    us, vs, ws = [], [], []
    if g.is_multigraph():
        edge_iter = ((u, v, d) for u, v, _, d in g.edges(keys=True, data=True))
    else:
        edge_iter = g.edges(data=True)
    for u, v, data in edge_iter:
        us.append(relabel[u])
        vs.append(relabel[v])
        ws.append(float(data.get(weight, default)))
    return CSRGraph(len(nodes), us, vs, ws)


def to_networkx(g: CSRGraph) -> "nx.Graph":
    """Convert to networkx; a ``MultiGraph`` when not simple.

    Isolated vertices are preserved.  When the graph has parallel edges and
    the caller converts back, edge multiplicity round-trips exactly.
    """
    import networkx as nx  # here, not at module level: ``import repro`` skips it

    out: nx.Graph = nx.MultiGraph() if not g.is_simple() else nx.Graph()
    out.add_nodes_from(range(g.n))
    for u, v, w in g.edges():
        out.add_edge(u, v, weight=w)
    return out


def from_scipy(mat: sp.spmatrix | sp.sparray) -> CSRGraph:
    """Convert a symmetric scipy sparse matrix (upper triangle is read).

    The matrix is interpreted as a weighted adjacency matrix; explicit zeros
    are treated as absent edges, diagonal entries as self-loops.
    """
    coo = sp.coo_matrix(mat)
    if coo.shape[0] != coo.shape[1]:
        raise GraphError("adjacency matrix must be square")
    mask = (coo.row <= coo.col) & (coo.data != 0)
    return CSRGraph(coo.shape[0], coo.row[mask], coo.col[mask], coo.data[mask])


def to_scipy(g: CSRGraph) -> sp.csr_matrix:
    """Symmetric CSR adjacency matrix (parallel edges collapse to min weight)."""
    s = g.simplify() if not g.is_simple() else g
    row = np.concatenate([s.edge_u, s.edge_v])
    col = np.concatenate([s.edge_v, s.edge_u])
    dat = np.concatenate([s.edge_w, s.edge_w])
    return sp.coo_matrix((dat, (row, col)), shape=(g.n, g.n)).tocsr()


def from_adjacency(a: np.ndarray) -> CSRGraph:
    """Convert a dense symmetric adjacency matrix (0 = no edge)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise GraphError("adjacency matrix must be square")
    if not np.allclose(a, a.T):
        raise GraphError("adjacency matrix must be symmetric")
    iu = np.triu_indices(a.shape[0])
    mask = a[iu] != 0
    return CSRGraph(a.shape[0], iu[0][mask], iu[1][mask], a[iu][mask])


def to_adjacency(g: CSRGraph, absent: float = 0.0) -> np.ndarray:
    """Dense adjacency matrix with ``absent`` where there is no edge."""
    out = np.full((g.n, g.n), absent, dtype=np.float64)
    s = g.simplify()
    out[s.edge_u, s.edge_v] = s.edge_w
    out[s.edge_v, s.edge_u] = s.edge_w
    return out
