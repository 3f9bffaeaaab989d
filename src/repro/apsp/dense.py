"""Dense Floyd–Warshall APSP (vectorized).

The Floyd–Warshall family is the classical GPU APSP baseline the related
work builds on (Buluc et al. [5], Matsumoto et al. [28], Katz et al. [23]).
We provide the straightforward vectorized form, which the differential
suite uses as its independent dense cross-check.
"""

from __future__ import annotations

import numpy as np

from ..graph.builders import to_adjacency
from ..graph.csr import CSRGraph

__all__ = ["floyd_warshall"]


def floyd_warshall(g: CSRGraph) -> np.ndarray:
    """Textbook Floyd–Warshall, one vectorized rank-1 min-plus per pivot."""
    d = to_adjacency(g, absent=np.inf)
    np.fill_diagonal(d, 0.0)
    for k in range(g.n):
        # d = min(d, d[:, k] + d[k, :]) without allocating n² temporaries
        # more than once per pivot.
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    return d
