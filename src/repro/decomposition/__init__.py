"""Structural decompositions: biconnectivity, block-cut tree, degree-2 reduction."""

from .biconnected import BCCDecomposition, biconnected_components
from .block_cut_tree import BlockCutTree
from .reduce import Chain, ReducedGraph, reduce_graph

__all__ = [
    "BCCDecomposition",
    "biconnected_components",
    "BlockCutTree",
    "Chain",
    "ReducedGraph",
    "reduce_graph",
]
