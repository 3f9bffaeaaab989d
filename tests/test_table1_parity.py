"""``table1_row`` against the three Table-1 models it replaced.

Table 1 used to be computed three times, each with its own BCC pass:
``graph.stats.table1_row`` (structure columns), ``apsp.oracle.memory_model``
(the MB columns, plain and ``reduced=True``) and ``obs.memory.table1_bytes``
(the byte split ``profile`` ledgers).  They are kept below verbatim as
references; every column of the one record must equal them: entry and
byte counts exactly, percentages and MB with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import datasets
from repro.decomposition.biconnected import biconnected_components
from repro.decomposition.reduce import reduce_graph
from repro.graph import CSRGraph, cycle_graph, table1_row
from repro.qa.strategies import adversarial_corpus, corpus

# ---------------------------------------------------------------------- #
# References (the three replaced implementations)
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class GraphStats:
    """One row of Table 1 (structure columns)."""

    name: str
    n: int
    m: int
    n_bcc: int
    largest_bcc_edge_pct: float
    nodes_removed_pct: float
    degree2_pct: float


def reference_table1_row(g: CSRGraph, name: str = "") -> GraphStats:
    """Compute the structure columns of Table 1 for ``g``.

    "Nodes removed" counts vertices that ear reduction prunes: degree-2
    vertices interior to a biconnected component chain (computed exactly by
    running the reduction).
    """
    bcc = biconnected_components(g)
    sizes = [len(edges) for edges in bcc.component_edges]
    largest = 100.0 * max(sizes, default=0) / g.m if g.m else 0.0
    removed = 0
    for comp_id in range(bcc.count):
        sub, vmap = bcc.component_subgraph(g, comp_id)
        red = reduce_graph(sub, keep=bcc.component_keep_mask(g, comp_id))
        removed += int((~red.kept_mask).sum())
    removed_pct = 100.0 * removed / g.n if g.n else 0.0
    deg2 = 100.0 * float((g.degree == 2).sum()) / g.n if g.n else 0.0
    return GraphStats(
        name=name or f"graph_{g.n}_{g.m}",
        n=g.n,
        m=g.m,
        n_bcc=bcc.count,
        largest_bcc_edge_pct=largest,
        nodes_removed_pct=removed_pct,
        degree2_pct=deg2,
    )


@dataclass(frozen=True)
class MemoryModel:
    """Both memory columns of Table 1, in megabytes."""

    ours_mb: float
    max_mb: float

    @property
    def saving_factor(self) -> float:
        return self.max_mb / self.ours_mb if self.ours_mb else float("inf")


def reference_memory_model(g: CSRGraph, dtype_bytes: int = 4, reduced: bool = False) -> MemoryModel:
    """Compute the ``a² + Σ nᵢ²`` vs ``n²`` storage model without solving.

    Only the decompositions run (cheap); no distance tables are built, so
    this scales to the full-size Table 1 stand-ins.

    With ``reduced=True`` each component counts only its ear-*reduced*
    vertex count (plus three scalars per removed vertex for the
    ``left/right/offset`` anchor arrays): the footprint of an oracle that
    stores ``S^r`` and answers removed-vertex queries through the
    Section 2.1.3 formulas on the fly.  The paper's Table 1 savings for
    single-BCC, chain-heavy graphs (c-50) are only explainable with this
    accounting — the plain per-component formula gives no saving when the
    graph is one biconnected component.
    """
    bcc = biconnected_components(g)
    entries = 0
    for cid, verts in enumerate(bcc.component_vertices):
        if reduced:
            sub, _ = bcc.component_subgraph(g, cid)
            red = reduce_graph(sub, keep=bcc.component_keep_mask(g, cid))
            entries += int(red.graph.n) ** 2 + 3 * red.n_removed
        else:
            entries += int(verts.size) ** 2
    a = int(bcc.is_articulation.sum())
    entries += a * a
    mb = 1.0 / (1024 * 1024)
    return MemoryModel(
        ours_mb=entries * dtype_bytes * mb,
        max_mb=g.n * g.n * dtype_bytes * mb,
    )


@dataclass(frozen=True)
class Table1Bytes:
    """Exact byte model of every distance-table layout in Table 1.

    All figures count *distance entries × dtype_bytes*; ``reduced_bytes``
    additionally counts the three per-removed-vertex anchor scalars
    (``left/right/offset``) the reduced oracle needs to answer queries for
    ear-removed vertices on the fly (Section 2.1.3).
    """

    name: str
    n: int
    m: int
    n_bcc: int
    n_articulation: int
    ap_bytes: int         # a² — the articulation-point table
    component_bytes: int  # Σ nᵢ² — per-BCC full tables
    reduced_bytes: int    # Σ (nᵢʳ² + 3·removedᵢ) — ear-reduced tables
    dense_bytes: int      # n² — the baseline full matrix
    dtype_bytes: int = 8

    @property
    def oracle_bytes(self) -> int:
        """The ``a² + Σ nᵢ²`` storage of the per-BCC oracle."""
        return self.ap_bytes + self.component_bytes

    @property
    def reduced_oracle_bytes(self) -> int:
        """Oracle storage when each component keeps only reduced tables."""
        return self.ap_bytes + self.reduced_bytes

    @property
    def saving_factor(self) -> float:
        return self.dense_bytes / self.oracle_bytes if self.oracle_bytes else float("inf")

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "m": self.m,
            "n_bcc": self.n_bcc,
            "n_articulation": self.n_articulation,
            "ap_bytes": self.ap_bytes,
            "component_bytes": self.component_bytes,
            "reduced_bytes": self.reduced_bytes,
            "dense_bytes": self.dense_bytes,
            "oracle_bytes": self.oracle_bytes,
            "reduced_oracle_bytes": self.reduced_oracle_bytes,
            "dtype_bytes": self.dtype_bytes,
        }


def reference_table1_bytes(g: "CSRGraph", name: str = "", dtype_bytes: int = 8) -> Table1Bytes:
    """Compute every Table 1 byte column from the decompositions alone.

    Only biconnected components + degree-2 reduction run (near-linear);
    no distance tables are built, so this is safe at full dataset scale.
    ``dtype_bytes`` defaults to 8 to match the float64 tables the solvers
    actually produce (the paper's Table 1 uses 4-byte entries).
    """
    bcc = biconnected_components(g)
    comp_entries = 0
    red_entries = 0
    for cid, verts in enumerate(bcc.component_vertices):
        comp_entries += int(verts.size) ** 2
        sub, _ = bcc.component_subgraph(g, cid)
        red = reduce_graph(sub, keep=bcc.component_keep_mask(g, cid))
        red_entries += int(red.graph.n) ** 2 + 3 * red.n_removed
    a = int(bcc.is_articulation.sum())
    return Table1Bytes(
        name=name,
        n=g.n,
        m=g.m,
        n_bcc=bcc.count,
        n_articulation=a,
        ap_bytes=a * a * dtype_bytes,
        component_bytes=comp_entries * dtype_bytes,
        reduced_bytes=red_entries * dtype_bytes,
        dense_bytes=g.n * g.n * dtype_bytes,
        dtype_bytes=dtype_bytes,
    )


# ---------------------------------------------------------------------- #
# Parity
# ---------------------------------------------------------------------- #


def assert_parity(g: CSRGraph, name: str) -> None:
    st = table1_row(g, name)
    ref = reference_table1_row(g, name)
    for col in GraphStats.__dataclass_fields__:
        assert getattr(st, col) == getattr(ref, col), (name, col)

    for entry_bytes in (4, 8):
        ref_bytes = reference_table1_bytes(g, name, entry_bytes).as_dict()
        assert st.storage_bytes(entry_bytes) == ref_bytes, (name, entry_bytes)

    b = st.storage_bytes(4)
    plain, red = reference_memory_model(g), reference_memory_model(g, reduced=True)
    assert b["oracle_bytes"] / 2**20 == plain.ours_mb, name
    assert b["reduced_oracle_bytes"] / 2**20 == red.ours_mb, name
    assert b["dense_bytes"] / 2**20 == plain.max_mb == red.max_mb, name


STAND_INS = [(spec.name, scale) for scale in (0.02, 0.04) for spec in datasets.TABLE1]


@pytest.mark.parametrize(("name", "scale"), STAND_INS,
                         ids=[f"{n}@{s}" for n, s in STAND_INS])
def test_stand_ins(name, scale):
    assert_parity(datasets.load(name, scale), name)


def test_corpus():
    graphs = corpus(300) + adversarial_corpus(3)
    assert len(graphs) > 300
    for name, g in graphs:
        assert_parity(g, name)


EDGE_CASES = {
    "empty": CSRGraph(0, [], []),
    "isolated": CSRGraph(5, [], []),
    "isolated-and-edge": CSRGraph(4, [1], [2]),
    "forest": CSRGraph(7, [0, 0, 1, 4, 4], [1, 2, 3, 5, 6]),
    "cycle": cycle_graph(9),
    "self-loops": CSRGraph(4, [0, 1, 1, 2, 3], [0, 1, 2, 3, 1]),
    "parallel": CSRGraph(4, [0, 0, 1, 2, 2, 3], [1, 1, 2, 3, 3, 0]),
}


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_edge_cases(name):
    assert_parity(EDGE_CASES[name], name)


def test_unnamed_graph():
    """``table1_row`` names an unnamed graph; ``table1_bytes`` left it blank."""
    g = cycle_graph(5)
    b = table1_row(g).storage_bytes(8)
    assert b["name"] == reference_table1_row(g).name == "graph_5_5"
    assert {**b, "name": ""} == reference_table1_bytes(g).as_dict()
    assert b["dense_bytes"] / b["oracle_bytes"] == reference_table1_bytes(g).saving_factor
