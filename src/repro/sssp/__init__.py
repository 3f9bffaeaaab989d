"""Single-source shortest path kernels (CPU reference and bulk engine)."""

from .dijkstra import dijkstra, dijkstra_tree, shortest_path
from .engine import (
    AdjacencyCache,
    CacheInfo,
    adjacency_cache,
    adjacency_matrix,
    all_pairs,
    multi_source,
    spt_forest,
    sssp,
)

__all__ = [
    "dijkstra",
    "dijkstra_tree",
    "shortest_path",
    "AdjacencyCache",
    "CacheInfo",
    "adjacency_cache",
    "adjacency_matrix",
    "all_pairs",
    "multi_source",
    "spt_forest",
    "sssp",
]
