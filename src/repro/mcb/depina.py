"""De Pina's minimum cycle basis algorithm (Algorithm 2, exact reference).

Maintains witness vectors ``S_1..S_f`` over E'; each phase finds the
lightest cycle non-orthogonal to ``S_i`` (signed-graph search) and xors
``S_i`` into every later witness still non-orthogonal to the found cycle.
Weight-exact without any tie-breaking assumptions, hence the trusted
reference the faster Mehlhorn–Michail implementation is tested against,
and the "Sequential" row of Table 2.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..graph.csr import CSRGraph
from ..obs import metrics as _metrics
from ..obs.trace import span as _span
from . import gf2
from .cycle import Cycle
from .fvs import greedy_fvs
from .signed_graph import min_odd_cycle
from .spanning import spanning_structure

__all__ = ["DePinaReport", "depina_mcb"]

_C_SEARCHES = _metrics.counter("mcb.depina.searches")
_C_XORS = _metrics.counter("mcb.witness_xors")
_C_ORTHO = _metrics.counter("mcb.orthogonality_checks")


@dataclass
class DePinaReport:
    """Counts of one de Pina run; the ``depina.*`` spans time its steps."""

    f: int = 0
    searches: int = 0


def depina_mcb(
    g: CSRGraph,
    roots: str = "fvs",
    report: DePinaReport | None = None,
) -> list[Cycle]:
    """Minimum cycle basis of ``g`` (multigraphs and self-loops included).

    ``roots`` selects the signed-graph source set: ``"fvs"`` (default,
    every cycle contains a feedback vertex) or ``"all"`` (the textbook
    every-vertex formulation).
    """
    ss = spanning_structure(g)
    f = ss.f
    if report is not None:
        report.f = f
    if f == 0:
        return []
    if roots == "fvs":
        root_ids = greedy_fvs(g)
        if root_ids.size == 0:  # forest would mean f == 0; defensive
            root_ids = np.arange(g.n)
    elif roots == "all":
        root_ids = np.arange(g.n)
    else:
        raise ValueError(f"unknown roots mode {roots!r}")

    # Witness matrix: row i is S_i, initialised to the standard basis.
    witnesses = gf2.identity(f)

    cycles: list[Cycle] = []
    for i in range(f):
        with _span("depina.search", cat="mcb", phase=i):
            s_bits = gf2.unpack(witnesses[i], f)
            cyc = min_odd_cycle(g, ss, s_bits, root_ids)
        _C_SEARCHES.inc()
        if cyc is None:  # pragma: no cover - S_i != 0 guarantees a cycle
            raise RuntimeError("no odd cycle found for a nonzero witness")
        cycles.append(cyc)
        c_vec = ss.restricted_vector(cyc.edge_ids)
        assert gf2.dot(c_vec, witnesses[i]) == 1, "selected cycle not odd"
        if i + 1 < f:
            # Steps 4-6 as one batched GF(2) sweep over the witness block.
            with _span("depina.update", cat="mcb", phase=i, rows=f - i - 1):
                odd = gf2.pivot_update(witnesses[i + 1 :], c_vec, witnesses[i])
            _C_ORTHO.inc(f - i - 1)
            _C_XORS.inc(int(odd.sum()))
            if os.environ.get("REPRO_CHECK_INVARIANTS"):
                # De Pina's loop invariant: after the update, every pending
                # witness is orthogonal to the cycle just selected — this is
                # what makes each later selection independent of the basis
                # so far (see repro.qa.invariants for the knob).
                for row in witnesses[i + 1 :]:
                    if gf2.dot(row, c_vec) != 0:
                        from ..qa.invariants import InvariantViolation

                        raise InvariantViolation(
                            f"witness not orthogonal to cycle {i} after update"
                        )
        if report is not None:
            report.searches += 1
    return cycles
