#!/usr/bin/env python
"""Sparse social/AS network analysis on the Table-1 stand-ins.

Internet-topology graphs like as-22july06 are dominated by degree-2
"transit" nodes and decompose into many biconnected components — the
paper's headline case (77% of vertices removed, ~10x MCB speedup).  This
example loads the stand-in, shows its block structure, compares dense vs
oracle storage, and answers reachability/distance queries.

Run:  python examples/social_network_analysis.py
"""

import numpy as np

from repro import datasets
from repro.apsp import DistanceOracle
from repro.decomposition import BlockCutTree, biconnected_components
from repro.graph.stats import table1_row


def main() -> None:
    name = "as-22july06"
    g = datasets.load(name, scale=0.05)
    stats = table1_row(g, name)
    print(f"{name} stand-in: |V|={stats.n} |E|={stats.m} "
          f"#BCC={stats.n_bcc} degree-2={stats.degree2_pct:.0f}%")
    print(f"ear reduction would remove {stats.nodes_removed_pct:.1f}% of vertices "
          f"(paper: 77.6%)")

    bcc = biconnected_components(g)
    sizes = sorted((len(e) for e in bcc.component_edges), reverse=True)
    print(f"largest blocks (edges): {sizes[:5]}; "
          f"articulation points: {len(bcc.articulation_points)}")

    tree = BlockCutTree(g, bcc)
    print(f"block-cut forest: {tree.n_nodes} nodes in {tree.n_trees} tree(s)")

    b = stats.storage_bytes(4)  # the paper's 4-byte entries
    print(f"\nAPSP storage: dense {b['dense_bytes'] / 2**20:.1f} MB | per-BCC tables "
          f"{b['oracle_bytes'] / 2**20:.1f} MB | ear-reduced tables "
          f"{b['reduced_oracle_bytes'] / 2**20:.1f} MB")

    oracle = DistanceOracle(g)
    rng = np.random.default_rng(1)
    print("\nsample AS-path lengths:")
    for u, v in rng.integers(0, g.n, size=(5, 2)):
        d = oracle.query(int(u), int(v))
        hops = "unreachable" if np.isinf(d) else f"{d:.3f}"
        bracket = ""
        try:
            b = tree.boundary_aps(int(u), int(v))
            if b:
                bracket = f" (every path crosses transit nodes {b[0]} and {b[1]})"
        except (ValueError, KeyError):
            pass
        print(f"  d({u:4d}, {v:4d}) = {hops}{bracket}")


if __name__ == "__main__":
    main()
