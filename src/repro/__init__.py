"""repro — ear-decomposition based heterogeneous shortest-path/cycle algorithms.

Reproduction of Dutta, Chaitanya, Kothapalli, Bera:
*"Applications of Ear Decomposition to Efficient Heterogeneous Algorithms
for Shortest Path/Cycle Problems"* (IPDPS-W 2017 / IJNC 2018).

Public API highlights
---------------------
- :class:`repro.graph.CSRGraph` — the CSR graph substrate.
- :func:`repro.decomposition.reduce_graph` — degree-2 chain contraction.
- :func:`repro.apsp.ear_apsp_full` — the paper's Algorithm 1 (+ general graphs).
- :class:`repro.apsp.DistanceOracle` / :class:`repro.apsp.ReducedDistanceOracle`
  — the O(a² + Σ nᵢ²) distance stores.
- :func:`repro.mcb.minimum_cycle_basis` — ear-reduced MCB (Section 3).
- :mod:`repro.hetero` — work-queue based heterogeneous (CPU+simulated GPU)
  execution platform.
- :mod:`repro.datasets` — Table-1 dataset stand-ins.
"""

from . import apsp, bench, datasets, decomposition, graph, hetero, mcb, partition, sssp

__version__ = "1.0.0"

__all__ = [
    "apsp",
    "bench",
    "datasets",
    "decomposition",
    "graph",
    "hetero",
    "mcb",
    "partition",
    "sssp",
    "__version__",
]
