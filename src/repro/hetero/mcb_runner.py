"""Heterogeneous MCB driver: Table 2 and Figures 5/6.

Runs the public ear-reduced Mehlhorn–Michail pipeline
(:func:`repro.mcb.minimum_cycle_basis`) once, builds a :class:`WorkTrace`
with memory-traffic estimates from the counts it reports, then replays
the trace on the four platforms (sequential / multicore / GPU / CPU+GPU).
Work-byte constants reflect the per-element traffic of each kernel:

* SPT construction touches each adjacency entry plus heap traffic
  (~40 B/edge);
* one Algorithm-3 label pass reads a parent edge index, a witness bit and
  writes a label (~24 B/vertex);
* a candidate test reads ids + two labels + a witness bit (~16 B);
* a witness xor sweep streams three packed rows (~24 B/word).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..graph.csr import CSRGraph
from ..mcb import gf2
from ..mcb.cycle import Cycle
from ..mcb.ear_mcb import EarMCBReport, minimum_cycle_basis
from ..obs import metrics as _metrics
from .executor import Platform
from .trace import SimulationResult, WorkTrace, simulate_trace

__all__ = [
    "BYTES_SPT_PER_EDGE",
    "BYTES_LABEL_PER_VERTEX",
    "BYTES_SCAN_PER_CANDIDATE",
    "BYTES_UPDATE_PER_WORD",
    "mcb_with_trace",
    "HeteroMCBResult",
    "run_mcb_on_platforms",
]

BYTES_SPT_PER_EDGE = 40.0
BYTES_LABEL_PER_VERTEX = 24.0
BYTES_SCAN_PER_CANDIDATE = 16.0
BYTES_UPDATE_PER_WORD = 24.0
BYTES_REDUCE_PER_EDGE = 24.0

# Per-run peaks of the GF(2) witness matrix and the Horton candidate
# store, in actual bytes: the largest over the run's solved components.
_G_WITNESS_BYTES = _metrics.gauge("memory.mcb.witness_bytes")
_G_STORE_BYTES = _metrics.gauge("memory.mcb.candidate_store_bytes")


def mcb_with_trace(
    g: CSRGraph,
    use_ear: bool = True,
    lca_filter: bool = True,
    block_size: int = 512,
) -> tuple[list[Cycle], WorkTrace]:
    """One :func:`minimum_cycle_basis` run plus its recorded work trace.

    The Section 2.4 phases (decompose / reduce, Mehlhorn–Michail, expand)
    are the ``obs.phase`` spans ``minimum_cycle_basis`` emits itself.
    """
    rep = EarMCBReport()
    cycles = minimum_cycle_basis(
        g, use_ear=use_ear, report=rep, lca_filter=lca_filter, block_size=block_size
    )
    trace = WorkTrace(meta={"n": g.n, "m": g.m, "use_ear": use_ear})
    trace.new_stage("decompose").add(g.m * BYTES_REDUCE_PER_EDGE, g.m)
    witness_bytes = store_bytes = 0
    for comp_m, mm in zip(rep.component_m, rep.solver_reports):
        if use_ear:
            trace.new_stage("reduce").add(comp_m * BYTES_REDUCE_PER_EDGE, comp_m)
        if mm.f == 0:
            continue
        n, f = mm.n, mm.f
        words = gf2.n_words(f)
        spt = trace.new_stage("spt")
        for _ in range(mm.n_fvs):
            spt.add(max(mm.m, 1) * BYTES_SPT_PER_EDGE, n)
        for i, tested in enumerate(mm.tested):
            labels = trace.new_stage("labels")
            for _ in range(mm.n_fvs):
                labels.add(n * BYTES_LABEL_PER_VERTEX, n)
            k = max(tested, 1)
            trace.new_stage("scan", divisible=True).add(k * BYTES_SCAN_PER_CANDIDATE, k)
            rows = f - i - 1
            if rows:
                # Parallel width is word-ops (each packed word is a lane on
                # the GPU's per-block reduce), not witness rows.
                trace.new_stage("update", divisible=True).add(
                    rows * words * BYTES_UPDATE_PER_WORD, rows * words
                )
        witness_bytes = max(witness_bytes, mm.witness_bytes)
        store_bytes = max(store_bytes, mm.store_bytes)
    _G_WITNESS_BYTES.set(witness_bytes)
    _G_STORE_BYTES.set(store_bytes)
    return cycles, trace


@dataclass
class HeteroMCBResult:
    """MCB output plus the virtual timings of all four implementations."""

    cycles: list[Cycle]
    trace: WorkTrace
    timings: dict[str, SimulationResult]

    @property
    def total_weight(self) -> float:
        return float(sum(c.weight for c in self.cycles))

    def speedups_vs_sequential(self) -> dict[str, float]:
        seq = self.timings["sequential"].total_time
        return {
            name: seq / r.total_time if r.total_time else float("inf")
            for name, r in self.timings.items()
        }


def run_mcb_on_platforms(
    g: CSRGraph,
    use_ear: bool = True,
    platforms: list[Platform] | None = None,
    **kwargs,
) -> HeteroMCBResult:
    """Execute once, replay on every platform (the Table 2 row builder)."""
    if platforms is None:
        platforms = [
            Platform.sequential(),
            Platform.multicore(),
            Platform.gpu(),
            Platform.heterogeneous(),
        ]
    cycles, trace = mcb_with_trace(g, use_ear=use_ear, **kwargs)
    timings = {p.name: simulate_trace(trace, p) for p in platforms}
    return HeteroMCBResult(cycles=cycles, trace=trace, timings=timings)
