"""Repeated-Dijkstra APSP — the undecomposed baseline ("w/o" columns).

Running an SSSP from every vertex is the reference against which all
decomposition techniques in the paper are measured.  Two code paths:

* ``engine="scipy"`` — bulk compiled path (default; what benchmarks use),
  with the adjacency cache and chunked dispatch of
  :mod:`repro.sssp.engine`.
* ``engine="python"`` — per-source pure-Python heap Dijkstra, matching the
  paper's "one Dijkstra instance per thread" structure; used for the work
  accounting of the heterogeneous executor and as a correctness oracle.

Both return bit-identical matrices (per-source runs are independent, so
chunking changes no arithmetic).
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..sssp.dijkstra import dijkstra
from ..sssp.engine import all_pairs

__all__ = ["dijkstra_apsp"]


def dijkstra_apsp(
    g: CSRGraph, engine: str = "scipy", chunk_size: int | None = None
) -> np.ndarray:
    """Full ``n × n`` distance matrix by one SSSP per vertex."""
    if engine == "scipy":
        return all_pairs(g, chunk_size=chunk_size)
    if engine == "python":
        out = np.empty((g.n, g.n), dtype=np.float64)
        for s in range(g.n):
            out[s] = dijkstra(g, s)
        return out
    raise ValueError(f"unknown engine {engine!r} (use 'scipy' or 'python')")
