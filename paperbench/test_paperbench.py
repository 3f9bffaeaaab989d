"""Tests of the paper-pipeline benchmark itself.

Run from the repository root with ``python3 -m pytest paperbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pipelines as P  # noqa: E402
import run  # noqa: E402


@pytest.fixture(scope="module")
def core():
    w = P.WORKLOADS["fig2-core"]
    g = w.graph()
    return w, g, P.Checker(w, g)


@pytest.fixture(scope="module")
def mcb():
    w = P.WORKLOADS["table2-mcb"]
    g = w.graph()
    return w, g, P.Checker(w, g)


def test_corrupted_apsp_output_counts_as_failure(core):
    w, g, check = core
    good = P.ear_apsp_full(g)
    assert check("ours", good)
    bad = good.copy()
    bad[3, 7] += 1e-6
    assert not check("ours", bad)
    lost = good.copy()
    lost[0, 1] = np.inf
    assert not check("ours", lost)

    def corrupt(g):
        out = P.ear_apsp_full(g)
        out[1, 2] *= 1.01
        return out

    def raises(g):
        raise RuntimeError("boom")

    legs = SimpleNamespace(legs=(P.Leg("ours", corrupt, None), P.Leg("baseline", raises, None)))
    tally = run.Tally()
    raw, scaled = run.run_timed(legs, g, check, 0.0, tally, run.Calibrator())
    assert tally.attempted == 2 and tally.failed == 2
    assert len(raw["ours"]) == len(scaled["baseline"]) == 1


def test_corrupted_basis_counts_as_failure(mcb):
    w, g, check = mcb
    basis = P.minimum_cycle_basis(g, use_ear=True)
    assert check("ours", basis)
    assert not check("ours", basis[:-1])
    heavier = basis[:-1] + [P.Cycle(basis[-1].edge_ids, basis[-1].weight + 1.0)]
    assert not check("ours", heavier)


@pytest.mark.parametrize("name", ["fig2-core", "fig2-chain", "table2-mcb"])
def test_staged_equals_whole(name):
    w = P.WORKLOADS[name]
    g = w.graph()
    for leg in w.legs:
        tr = P.Tracer()
        with tr.call(leg.name):
            staged = leg.staged(g, tr)
        assert P.same_output(staged, leg.call(g)), leg.name
        totals = P.call_totals(tr.spans)[0]
        assert totals["root_s"] > 0
        if w.kind == "mcb" and leg.name != "composed":
            assert totals["mcb.phases"] == g.cycle_space_dimension()


def test_staged_mcb_keeps_mm_checks(mcb, monkeypatch):
    _, g, _ = mcb
    monkeypatch.setattr(P.gf2, "dot", lambda a, b: 0)
    with pytest.raises(AssertionError):
        P.staged_mcb(g, P.Tracer(), use_ear=True)
    monkeypatch.undo()
    monkeypatch.setattr(P.MMContext, "new_store", lambda self: SimpleNamespace(
        stats=SimpleNamespace(candidates_tested=0), scan_and_remove=lambda pred: None))
    with pytest.raises(RuntimeError, match="does not span"):
        P.staged_mcb(g, P.Tracer(), use_ear=True)


def test_self_time_and_counts():
    tr = P.Tracer()
    with tr.call("ours") as root:
        with tr.span("decomposition.reduce") as s:
            s["removed"] = 3
        with tr.span("apsp.ap_closure"):
            with tr.span("sssp.all_pairs") as s:
                s["sources"] = 5
    root["sssp.adjacency_builds"] = 1
    t = P.call_totals(tr.spans)[0]
    assert t["decomposition.reduce.removed"] == 3
    assert t["sssp.all_pairs.sources"] == 5
    assert t["sssp.adjacency_builds"] == 1
    named = sum(v for k, v in t.items() if k.endswith(".self_s"))
    assert named + t["unattributed_s"] == pytest.approx(t["root_s"])
    assert 0.0 <= t["coverage"] <= 1.0


def test_tail_has_ten_calls_beyond():
    xs = [float(i) for i in range(100)]
    assert run.tail(xs) == (89.0, 89.0)
    value, pct = run.tail(xs[:30])
    assert value == 19.0 and sum(x > value for x in xs[:30]) == 10
    # Too few calls for a tail: the median stands in.
    assert run.tail(xs[:9]) == (4.0, 100.0 * 4 / 9)
    assert run.tail(xs[:10]) == (5.0, 50.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(P.per_layer_units())
    assert {w["name"] for w in spec["workloads"]} <= set(P.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert units == P.per_layer_units()


def test_traced_run_writes_valid_chrome_trace(core, tmp_path, capsys):
    from repro.obs.export import validate_chrome_trace

    w, g, _ = core
    tally = run.Tally()
    out = tmp_path / "t.json"
    metrics = run.per_layer(w, g, 0.0, tally, out, {"seed": 0})
    assert tally.failed == 0 and tally.attempted == 6
    assert set(metrics) == set(P.per_layer_units())
    doc = json.loads(out.read_text())
    assert validate_chrome_trace(doc) == []
    spans = {e["args"]["span"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
    for e in spans.values():
        parent = e["args"]["parent"]
        if parent is not None:
            assert spans[parent]["args"]["call"] == e["args"]["call"]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "critpath", "--trace", str(out)],
        cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "critical path" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig2-core",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
