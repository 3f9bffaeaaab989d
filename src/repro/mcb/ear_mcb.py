"""Ear-decomposition based minimum cycle basis (Section 3.3, Lemma 3.1).

Pipeline per biconnected component (no MCB cycle spans two components):

1. contract degree-2 chains → reduced **multigraph** ``G^r`` (parallel
   chain edges and self-loops kept — they become non-tree edges);
2. run the MCB solver (Mehlhorn–Michail by default, de Pina as the exact
   reference) on ``G^r``;
3. expand every basis cycle by substituting each contracted edge ``e_P``
   with its chain ``P`` — weight is preserved edge-for-edge, so by
   Lemma 3.1 the result is an MCB of the original graph.

The work saved is the paper's headline: with ``n₂`` degree-2 vertices
removed, only ``n − n₂`` shortest-path trees are built and every tree,
label pass, and scan runs on the smaller graph.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..decomposition.biconnected import biconnected_components
from ..decomposition.reduce import reduce_graph
from ..graph.csr import CSRGraph
from ..obs.trace import phase
from .cycle import Cycle
from .depina import DePinaReport, depina_mcb
from .mehlhorn_michail import MMReport, mm_mcb

__all__ = ["EarMCBReport", "minimum_cycle_basis"]

#: algorithm -> (process-phase stage name, solver, solver report type)
_SOLVERS = {
    "mm": ("mehlhorn_michail", mm_mcb, MMReport),
    "depina": ("depina", depina_mcb, DePinaReport),
}


@dataclass
class EarMCBReport:
    """Counts of one ear-MCB run.

    Phase times are not stored here: :func:`minimum_cycle_basis` emits
    them as :func:`repro.obs.trace.phase` spans with cat ``mcb``.
    """

    n: int = 0
    m: int = 0
    f: int = 0
    n_components: int = 0
    n_solved_components: int = 0
    n_removed: int = 0
    #: Per solved component, in solve order: its edge count and the
    #: solver's own report (:class:`MMReport` or :class:`DePinaReport`).
    component_m: list[int] = field(default_factory=list)
    solver_reports: list = field(default_factory=list)


def minimum_cycle_basis(
    g: CSRGraph,
    algorithm: str = "mm",
    use_ear: bool = True,
    report: EarMCBReport | None = None,
) -> list[Cycle]:
    """Minimum-weight cycle basis of ``g``.

    Parameters
    ----------
    algorithm:
        ``"mm"`` (Mehlhorn–Michail labelled trees, the paper's processing
        phase) or ``"depina"`` (exact signed-graph reference).
    use_ear:
        When False, each biconnected component is solved *without* the
        degree-2 reduction — the "w/o" ablation columns of Table 2.
    """
    if algorithm not in _SOLVERS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    stage, solver, report_type = _SOLVERS[algorithm]
    if report is not None:
        report.n, report.m = g.n, g.m
        report.f = g.cycle_space_dimension()

    with phase("preprocess", "mcb", stage="decompose", n=g.n, m=g.m):
        bcc = biconnected_components(g)
    if report is not None:
        report.n_components = bcc.count

    basis: list[Cycle] = []
    for cid in range(bcc.count):
        comp_eids = bcc.component_edges[cid]
        if comp_eids.size < 2 and not _has_loop(g, comp_eids):
            continue  # a bridge: acyclic, contributes nothing
        sub, _ = bcc.component_subgraph(g, cid)
        if sub.cycle_space_dimension() == 0:
            continue

        red = None
        solve_on = sub
        if use_ear:
            with phase("preprocess", "mcb", stage="reduce", n=sub.n):
                red = reduce_graph(sub)
            solve_on = red.graph

        sub_report = report_type() if report is not None else None
        with phase("process", "mcb", stage=stage, n=solve_on.n):
            sub_cycles = solver(solve_on, report=sub_report)

        with phase("postprocess", "mcb", stage="expand", cycles=len(sub_cycles)):
            for cyc in sub_cycles:
                sub_eids = red.expand_cycle(cyc.edge_ids) if red is not None else cyc.edge_ids
                basis.append(
                    Cycle(
                        edge_ids=np.sort(comp_eids[sub_eids]),
                        weight=cyc.weight,
                        meta={"component": cid, **cyc.meta},
                    )
                )
        if report is not None:
            report.n_solved_components += 1
            report.component_m.append(sub.m)
            report.solver_reports.append(sub_report)
            if red is not None:
                report.n_removed += red.n_removed
    if os.environ.get("REPRO_CHECK_INVARIANTS"):
        # Opt-in contract check: the composed, re-expanded basis must be a
        # genuine GF(2) cycle basis of the *original* graph (Lemma 3.1).
        from ..qa.invariants import maybe_check_cycle_basis

        maybe_check_cycle_basis(g, basis)
    return basis


def _has_loop(g: CSRGraph, eids: np.ndarray) -> bool:
    return bool(np.any(g.edge_u[eids] == g.edge_v[eids]))
