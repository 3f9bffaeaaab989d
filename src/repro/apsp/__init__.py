"""All-pairs shortest paths: ear-based pipeline, oracle, and baselines."""

from .bcc_apsp import bcc_apsp, peel_pendants
from .bulk_query import BulkOracleIndex
from .composition import ComponentTables, assemble_full_matrix, build_component_tables
from .dense import blocked_floyd_warshall, floyd_warshall
from .dijkstra_apsp import dijkstra_apsp
from .ear_apsp import EarAPSPReport, ear_apsp_full, extend_reduced_distances
from .oracle import DistanceOracle
from .partition_apsp import partition_apsp
from .reduced_oracle import ReducedDistanceOracle

__all__ = [
    "bcc_apsp",
    "peel_pendants",
    "BulkOracleIndex",
    "ComponentTables",
    "assemble_full_matrix",
    "build_component_tables",
    "blocked_floyd_warshall",
    "floyd_warshall",
    "dijkstra_apsp",
    "EarAPSPReport",
    "ear_apsp_full",
    "extend_reduced_distances",
    "DistanceOracle",
    "partition_apsp",
    "ReducedDistanceOracle",
]
