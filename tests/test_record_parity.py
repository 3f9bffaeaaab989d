"""The recorded work traces against the loops they replaced, unit for unit.

``mcb_with_trace`` records one ``spt`` unit and one ``labels`` unit per
FVS root by repeating a single unit; the reference below is the loop it
replaced, one ``Stage.add`` per unit.  ``apsp_with_trace`` records one
Dijkstra unit per 32 sources from a device-model constant; its reference
is the recording that took the unit size from the engine's 32-source
dispatch chunk.  Every stage's kind, ``divisible`` flag and units (work as
a float hex, items as an int, in order) must come out the same.  The
replay parity test cannot catch a drift here: both of its sides replay the
same trace.
"""

from __future__ import annotations

import dataclasses

import pytest

import numpy as np

from repro import datasets
from repro.apsp.composition import build_component_tables
from repro.apsp.ear_apsp import EarAPSPReport, ear_apsp_full
from repro.decomposition import biconnected_components
from repro.hetero import WorkTrace, apsp_with_trace, mcb_with_trace
from repro.hetero.apsp_runner import (
    BYTES_DIJKSTRA_PER_EDGE,
    BYTES_POSTPROCESS_PER_ENTRY,
)
from repro.hetero.mcb_runner import (
    BYTES_LABEL_PER_VERTEX,
    BYTES_REDUCE_PER_EDGE,
    BYTES_SCAN_PER_CANDIDATE,
    BYTES_SPT_PER_EDGE,
    BYTES_UPDATE_PER_WORD,
)
from repro.mcb import gf2
from repro.mcb.ear_mcb import EarMCBReport, minimum_cycle_basis
from repro.qa import strategies
from repro.sssp.engine import multi_source


def reference_trace(g, use_ear: bool) -> WorkTrace:
    rep = EarMCBReport()
    minimum_cycle_basis(g, use_ear=use_ear, report=rep)
    trace = WorkTrace()
    trace.new_stage("decompose").add(g.m * BYTES_REDUCE_PER_EDGE, g.m)
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
                trace.new_stage("update", divisible=True).add(
                    rows * words * BYTES_UPDATE_PER_WORD, rows * words
                )
    return trace


def _stages(trace: WorkTrace) -> list:
    return [
        (st.kind, st.divisible, [(w.hex(), type(i).__name__, i) for w, i in st.units])
        for st in trace.stages
    ]


@pytest.mark.parametrize("seed", [None, 101], ids=["spec", "101"])
@pytest.mark.parametrize("use_ear", [True, False], ids=["ear", "no-ear"])
def test_table2_trace_matches_the_per_unit_loop(seed, use_ear):
    spec = next(s for s in datasets.TABLE1 if s.name == "as-22july06")
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    g = spec.generate(0.02)
    _, trace = mcb_with_trace(g, use_ear=use_ear)
    ref = _stages(reference_trace(g, use_ear))
    assert any(len(units) > 1 for _, _, units in ref), "no stage repeats a unit"
    assert _stages(trace) == ref


def reference_apsp_trace(g, use_ear: bool) -> WorkTrace:
    chunk = 32

    def record_dijkstra(trace, n, m):
        stage = trace.new_stage("dijkstra", divisible=True)
        for lo in range(0, n, chunk):
            k = min(chunk, n - lo)
            stage.add(k * max(m, 1) * BYTES_DIJKSTRA_PER_EDGE, k * n)

    trace = WorkTrace()
    bcc = biconnected_components(g)
    trace.new_stage("decompose").add(g.m * BYTES_REDUCE_PER_EDGE, g.m)

    def traced_solver(sub):
        if not use_ear:
            record_dijkstra(trace, sub.n, sub.m)
            return multi_source(sub, np.arange(sub.n))
        rep = EarAPSPReport()
        full = ear_apsp_full(sub, report=rep)
        trace.new_stage("reduce").add(sub.m * BYTES_REDUCE_PER_EDGE, sub.m)
        record_dijkstra(trace, rep.n_reduced, rep.m_reduced)
        trace.new_stage("postprocess", divisible=True).add(
            sub.n * sub.n * BYTES_POSTPROCESS_PER_ENTRY, sub.n * sub.n
        )
        return full

    ct = build_component_tables(g, solver=traced_solver, bcc=bcc)
    a = len(ct.ap_ids)
    if a:
        trace.new_stage("ap_table", divisible=True).add(
            max(a * a, 1) * BYTES_POSTPROCESS_PER_ENTRY, a * a
        )
    return trace


@pytest.mark.parametrize("use_ear", [True, False], ids=["ear", "no-ear"])
def test_apsp_trace_matches_the_32_source_recording(use_ear):
    graphs = [datasets.load(name, 0.02) for name in ("OPF_3754", "Wordnet3", "as-22july06")]
    graphs += [g for _, g in strategies.corpus(120)]
    split = 0
    for g in graphs:
        _, trace = apsp_with_trace(g, use_ear=use_ear)
        ref = _stages(reference_apsp_trace(g, use_ear))
        split += sum(len(units) > 1 for kind, _, units in ref if kind == "dijkstra")
        assert _stages(trace) == ref
    assert split, "no Dijkstra stage spans more than one 32-source unit"
