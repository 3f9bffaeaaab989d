"""Experiment harness: one entry point per paper table/figure.

Each ``run_*`` function regenerates the corresponding artifact on the
Table-1 stand-ins and returns structured rows; the ``benchmarks/`` suite
and the ``repro-bench`` CLI are thin wrappers over these.  Every run
cross-checks its outputs (full-matrix distance equality for APSP, full
basis verification for MCB) before reporting a time, so a reported
speedup can never come from a wrong answer.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

import numpy as np

from .. import datasets
from ..apsp.bcc_apsp import bcc_apsp
from ..apsp.ear_apsp import EarAPSPReport, ear_apsp_full
from ..apsp.oracle import memory_model
from ..apsp.partition_apsp import partition_apsp
from ..graph.stats import table1_row
from ..hetero.executor import Platform
from ..hetero.mcb_runner import mcb_with_trace
from ..hetero.trace import simulate_trace
from ..mcb.verify import verify_cycle_basis
from ..obs.trace import span as _span
from ..sssp.engine import adjacency_cache
from .metrics import geomean, mteps, speedup as _speedup

__all__ = [
    "Table1Row",
    "run_table1",
    "Fig2Row",
    "run_fig2",
    "run_fig3",
    "Table2Row",
    "run_table2",
    "run_fig5",
    "run_fig6",
    "run_phase_breakdown",
]

PLATFORM_NAMES = ["sequential", "multicore", "gpu", "cpu+gpu"]


def _platforms() -> list[Platform]:
    return [
        Platform.sequential(),
        Platform.multicore(),
        Platform.gpu(),
        Platform.heterogeneous(),
    ]


def _check_matrices(name: str, ours: np.ndarray, base: np.ndarray) -> None:
    """Assert two full distance matrices agree entry for entry.

    ``inf`` must match ``inf``; finite entries may differ by summation
    order only (``atol`` 1e-8).
    """
    bad = ~np.isclose(ours, base, rtol=0.0, atol=1e-8)
    if bad.any():
        u, v = np.argwhere(bad)[0]
        raise AssertionError(
            f"{name}: APSP mismatch at pair ({u}, {v}): {ours[u, v]} vs {base[u, v]}"
        )


# --------------------------------------------------------------------- #
# Table 1 — dataset structure and the memory model
# --------------------------------------------------------------------- #


@dataclass
class Table1Row:
    name: str
    n: int
    m: int
    n_bcc: int
    largest_bcc_pct: float
    nodes_removed_pct: float
    ours_mb: float
    max_mb: float
    reduced_mb: float = 0.0


def run_table1(scale: float | None = None, names: list[str] | None = None) -> list[Table1Row]:
    """Structure + memory columns for every Table-1 stand-in.

    ``ours_mb`` is the per-BCC table model of Section 2.3; ``reduced_mb``
    additionally stores only the ear-reduced tables (see
    :func:`repro.apsp.memory_model`).
    """
    rows: list[Table1Row] = []
    for spec in datasets.TABLE1:
        if names is not None and spec.name not in names:
            continue
        g = spec.generate(scale)
        st = table1_row(g, spec.name)
        mm = memory_model(g)
        mm_red = memory_model(g, reduced=True)
        rows.append(
            Table1Row(
                name=spec.name,
                n=st.n,
                m=st.m,
                n_bcc=st.n_bcc,
                largest_bcc_pct=st.largest_bcc_edge_pct,
                nodes_removed_pct=st.nodes_removed_pct,
                ours_mb=mm.ours_mb,
                max_mb=mm.max_mb,
                reduced_mb=mm_red.ours_mb,
            )
        )
    return rows


# --------------------------------------------------------------------- #
# Figure 2 — APSP absolute times and speedups vs [4] and [12]
# --------------------------------------------------------------------- #


@dataclass
class Fig2Row:
    name: str
    kind: str           # "general" or "planar"
    n: int
    m: int
    t_ours: float
    t_baseline: float
    baseline: str       # "banerjee" or "djidjev"
    nodes_removed_pct: float = 0.0

    @property
    def speedup(self) -> float:
        return _speedup(self.t_baseline, self.t_ours)


#: Calls per Figure-2 / Table-2 leg; a leg reports its fastest call.
LEG_REPEATS = 5


def _fastest_alternating(legs) -> tuple[list, list[float]]:
    """``(outputs, seconds)``: each leg's last output and fastest call.

    Round ``i`` runs the legs forwards when ``i`` is even and backwards
    when odd, so neither always runs first on a cold interpreter.  Every
    call starts with an empty adjacency cache, as a one-shot caller does,
    and garbage is collected outside the timed region.
    """
    outs: list = [None] * len(legs)
    best = [float("inf")] * len(legs)
    for i in range(LEG_REPEATS):
        order = range(len(legs)) if i % 2 == 0 else reversed(range(len(legs)))
        for k in order:
            adjacency_cache().clear()
            gc.collect()
            t0 = time.perf_counter()
            outs[k] = legs[k]()
            best[k] = min(best[k], time.perf_counter() - t0)
    return outs, best


def run_fig2(
    scale: float | None = None,
    names: list[str] | None = None,
    check: bool = True,
) -> list[Fig2Row]:
    """Ours (Algorithm 1) vs Banerjee [4] on general graphs and Djidjev
    [12] on planar graphs: wall-clock full-matrix APSP.

    Each leg is timed as the fastest of :data:`LEG_REPEATS` calls (see
    :func:`_fastest_alternating`)."""
    rows: list[Fig2Row] = []
    for spec in datasets.TABLE1:
        if names is not None and spec.name not in names:
            continue
        g = spec.generate(scale)
        rep = EarAPSPReport()
        baseline = "djidjev" if spec.planar else "banerjee"

        # When a trace collector is live (repro.obs), each timed call gets
        # a span so bench runs produce span trees alongside the wall times.
        def ours():
            with _span("bench.fig2.ours", cat="bench", dataset=spec.name):
                return ear_apsp_full(g, report=rep)

        def base():
            with _span("bench.fig2.baseline", cat="bench", dataset=spec.name,
                       baseline=baseline):
                return partition_apsp(g, seed=1) if spec.planar else bcc_apsp(g, peel=True)

        (out_ours, out_base), (t_ours, t_base) = _fastest_alternating([ours, base])
        if check:
            _check_matrices(spec.name, out_ours, out_base)
        rows.append(
            Fig2Row(
                name=spec.name,
                kind="planar" if spec.planar else "general",
                n=g.n,
                m=g.m,
                t_ours=t_ours,
                t_baseline=t_base,
                baseline=baseline,
                nodes_removed_pct=100.0 * rep.n_removed / max(g.n, 1),
            )
        )
    return rows


def run_fig3(rows: list[Fig2Row]) -> list[dict]:
    """MTEPS series for the Figure 2 rows (Figure 3)."""
    return [
        {
            "name": r.name,
            "kind": r.kind,
            "mteps_ours": mteps(r.n, r.m, r.t_ours),
            "mteps_baseline": mteps(r.n, r.m, r.t_baseline),
            "baseline": r.baseline,
        }
        for r in rows
    ]


# --------------------------------------------------------------------- #
# Table 2 / Figures 5-6 — MCB on the four platforms, with/without ears
# --------------------------------------------------------------------- #


@dataclass
class Table2Row:
    name: str
    n: int
    m: int
    f: int
    #: virtual seconds: {platform: (with_ear, without_ear)}
    seconds: dict[str, tuple[float, float]] = field(default_factory=dict)
    wall_with_ear: float = 0.0
    wall_without_ear: float = 0.0
    basis_weight: float = 0.0


def run_table2(
    scale: float | None = None,
    names: list[str] | None = None,
    check: bool = True,
) -> list[Table2Row]:
    """The full Table 2: four implementations × with/without ear.

    The with-ear and without-ear legs are timed as the fastest of
    :data:`LEG_REPEATS` calls (see :func:`_fastest_alternating`); the
    virtual platform times replay each leg's last work trace."""
    use = names if names is not None else datasets.MCB_DATASETS
    rows: list[Table2Row] = []
    for name in use:
        g = datasets.load(name, scale)
        row = Table2Row(name=name, n=g.n, m=g.m, f=g.cycle_space_dimension())
        per_platform: dict[str, list[float]] = {p: [0.0, 0.0] for p in PLATFORM_NAMES}

        def leg(use_ear: bool):
            def call():
                with _span("bench.table2.mcb", cat="bench", dataset=name,
                           use_ear=use_ear):
                    return mcb_with_trace(g, use_ear=use_ear)
            return call

        outs, (row.wall_with_ear, row.wall_without_ear) = _fastest_alternating(
            [leg(True), leg(False)]
        )
        for k, (use_ear, (cycles, trace)) in enumerate(zip((True, False), outs)):
            if check:
                rep = verify_cycle_basis(g, cycles)
                assert rep.ok, f"{name}: invalid basis ({rep.message})"
                if use_ear:
                    row.basis_weight = rep.total_weight
                else:
                    assert abs(rep.total_weight - row.basis_weight) <= 1e-6 * max(
                        1.0, row.basis_weight
                    ), f"{name}: ear/no-ear weight mismatch"
            for p in _platforms():
                res = simulate_trace(trace, p)
                per_platform[p.name][k] = res.total_time
        row.seconds = {p: (v[0], v[1]) for p, v in per_platform.items()}
        rows.append(row)
    return rows


def run_fig5(rows: list[Table2Row]) -> dict[str, float]:
    """Average speedup of each implementation over sequential (with ear)."""
    out: dict[str, float] = {}
    for p in PLATFORM_NAMES[1:]:
        out[p] = geomean(
            r.seconds["sequential"][0] / r.seconds[p][0] for r in rows
        )
    return out


def run_fig6(rows: list[Table2Row]) -> list[dict]:
    """Absolute virtual times per implementation (with ear) — Figure 6."""
    return [
        {"name": r.name, **{p: r.seconds[p][0] for p in PLATFORM_NAMES}}
        for r in rows
    ]


def ear_speedup_by_impl(rows: list[Table2Row]) -> dict[str, float]:
    """Average speedup attributable to ear decomposition, per platform."""
    return {
        p: geomean(r.seconds[p][1] / r.seconds[p][0] for r in rows)
        for p in PLATFORM_NAMES
    }


def run_phase_breakdown(
    name: str = "cond_mat_2003", scale: float | None = None
) -> dict[str, float]:
    """Section 3.5's label/scan/update shares on one dataset.

    The paper's percentages describe its heterogeneous kernels, so the
    shares here come from the recorded kernel work trace (simulated
    sequential stage times), not from Python wall time — the vectorized
    Python label pass is disproportionately fast relative to the
    pure-Python candidate store walk.
    """
    g = datasets.load(name, scale)
    _, trace = mcb_with_trace(g, use_ear=True)
    res = simulate_trace(trace, Platform.sequential())
    keys = ("labels", "scan", "update")
    total = sum(res.stage_times.get(k, 0.0) for k in keys)
    if total == 0:
        return {k: 0.0 for k in keys}
    return {k: res.stage_times.get(k, 0.0) / total for k in keys}

