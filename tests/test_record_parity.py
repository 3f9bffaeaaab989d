"""The recorded MCB work trace against the loop it replaced, unit for unit.

``mcb_with_trace`` records one ``spt`` unit and one ``labels`` unit per
FVS root by repeating a single unit; the reference below is the loop it
replaced, one ``Stage.add`` per unit.  Every stage's kind, ``divisible``
flag and units (work as a float hex, items as an int, in order) must come
out the same.  The replay parity test cannot catch a drift here: both of
its sides replay the same trace.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import datasets
from repro.hetero import WorkTrace, mcb_with_trace
from repro.hetero.mcb_runner import (
    BYTES_LABEL_PER_VERTEX,
    BYTES_REDUCE_PER_EDGE,
    BYTES_SCAN_PER_CANDIDATE,
    BYTES_SPT_PER_EDGE,
    BYTES_UPDATE_PER_WORD,
)
from repro.mcb import gf2
from repro.mcb.ear_mcb import EarMCBReport, minimum_cycle_basis


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
