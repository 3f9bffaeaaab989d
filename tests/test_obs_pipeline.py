"""End-to-end observability: pipeline spans, worker stitching, profile CLI.

Covers the ISSUE's integration criteria: the pipeline drivers emit the
paper's preprocess/process/post-process phases as top-level spans, the
parallel backend's worker spans merge into the parent trace as separate
pid tracks (and survive an injected worker crash uncorrupted), and
``repro-bench profile`` writes a schema-valid Chrome trace.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.graph import grid_graph
from repro.hetero.apsp_runner import apsp_with_trace
from repro.hetero.mcb_runner import mcb_with_trace
from repro.hetero.parallel import ParallelEngine
from repro.obs import tracing, validate_chrome_trace
from repro.qa import faultinject
from repro.sssp import engine as serial_engine

TINY = 0.012

PHASES = {"preprocess", "process", "postprocess"}


def _root_names(tr):
    return [n["span"].name for n in tr.span_tree()]


class TestPipelinePhases:
    def test_apsp_paper_phases_are_roots(self):
        g = grid_graph(6, 6)
        with tracing() as tr:
            apsp_with_trace(g)
        roots = _root_names(tr)
        assert PHASES <= set(roots)
        # Phase order follows the paper: decompose/reduce, then dijkstra,
        # then extend/assemble.
        assert roots.index("preprocess") < roots.index("process")
        assert roots.index("process") < roots.index("postprocess")
        stages = {
            (n["span"].name, n["span"].args.get("stage")) for n in tr.span_tree()
        }
        assert ("process", "dijkstra") in stages

    def test_mcb_paper_phases_are_roots(self):
        g = grid_graph(5, 5)
        with tracing() as tr:
            cycles, _ = mcb_with_trace(g)
        assert cycles
        roots = set(_root_names(tr))
        assert PHASES <= roots
        stages = {n["span"].args.get("stage") for n in tr.span_tree()}
        assert "mehlhorn_michail" in stages
        assert "expand" in stages

    def test_decomposition_spans_nest_under_preprocess(self):
        g = grid_graph(6, 6)
        with tracing() as tr:
            apsp_with_trace(g)
        assert "decomposition.reduce" in {s.name for s in tr.spans}
        pre = [n for n in tr.span_tree() if n["span"].name == "preprocess"]
        nested = {c["span"].name for node in pre for c in node["children"]}
        assert "decomposition.reduce" in nested


class TestWorkerStitching:
    def test_worker_spans_merge_as_pid_tracks(self):
        g = grid_graph(10, 10)
        sources = np.arange(g.n, dtype=np.int64)
        with ParallelEngine(g, workers=2) as eng:
            if not eng.is_parallel:
                pytest.skip("no live pool in this environment")
            with tracing() as tr:
                dist = eng.multi_source(sources)
        assert np.array_equal(dist, serial_engine.multi_source(g, sources))
        names = {s.name for s in tr.spans}
        assert "parallel.dispatch" in names
        assert "parallel.worker_chunk" in names
        pids = {s.pid for s in tr.spans}
        assert len(pids) >= 2, "worker spans should carry their own pid"
        doc = tr.chrome_trace()
        assert validate_chrome_trace(doc) == []
        labels = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "repro (parent)" in labels
        assert any(lb.startswith("repro worker ") for lb in labels)

    def test_untraced_dispatch_ships_no_span_payload(self):
        # With tracing off the worker protocol must stay lean: results come
        # back as bare arrays, not (result, spans) pairs.
        g = grid_graph(8, 8)
        sources = np.arange(g.n, dtype=np.int64)
        with ParallelEngine(g, workers=2) as eng:
            dist = eng.multi_source(sources)
        assert np.array_equal(dist, serial_engine.multi_source(g, sources))

    def test_injected_worker_crash_keeps_trace_valid(self):
        """REPRO_FAULTS worker crash must not corrupt the parent trace."""
        g = grid_graph(8, 8)
        sources = np.arange(g.n, dtype=np.int64)
        # Arm the fault before the pool forks so the workers inherit it.
        with faultinject.inject_worker_crash():
            with ParallelEngine(g, workers=2) as eng:
                if not eng.is_parallel:
                    pytest.skip("no live pool in this environment")
                with tracing() as tr:
                    with pytest.warns(RuntimeWarning, match="degrading"):
                        dist = eng.multi_source(sources)
        # The degraded path still returns the serial engine's matrices…
        assert np.array_equal(dist, serial_engine.multi_source(g, sources))
        # …and every span in the trace is complete and well-formed: the
        # crashed workers returned nothing, so nothing partial was ingested.
        assert validate_chrome_trace(tr.chrome_trace()) == []
        for s in tr.spans:
            assert s.dur_ns >= 0 and s.name

    def test_spt_forest_dispatch_traced(self):
        g = grid_graph(7, 7)
        sources = np.arange(g.n, dtype=np.int64)
        with ParallelEngine(g, workers=2) as eng:
            if not eng.is_parallel:
                pytest.skip("no live pool in this environment")
            with tracing() as tr:
                dist, pred = eng.spt_forest(sources)
        sd, sp = serial_engine.spt_forest(g, sources)
        assert np.array_equal(dist, sd) and np.array_equal(pred, sp)
        assert "parallel.dispatch" in {s.name for s in tr.spans}


class TestProfileCLI:
    def test_profile_apsp_writes_valid_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main([
            "profile", "apsp",
            "--scale", str(TINY),
            "--datasets", "nopoly",
            "--trace-out", str(out),
        ])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert PHASES <= names
        text = capsys.readouterr().out
        assert "phase" in text and "% total" in text
        assert "engine.adj_cache" in text  # counter table rides along
        rows = [l.split() for l in text.splitlines() if l.endswith("%")]
        assert {r[0] for r in rows} >= {"process", "sssp.chunk"}
        for name, _, wall, own, _ in rows:  # self never exceeds wall
            assert float(own) <= float(wall), name

    def test_profile_mcb_summary_only(self, capsys):
        rc = main(["profile", "mcb", "--scale", str(TINY), "--datasets", "nopoly"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "preprocess" in text and "process" in text
        assert "mcb.witness_xors" in text

    def test_bench_harness_records_span_tree(self):
        from repro.bench import run_table2

        with tracing() as tr:
            run_table2(scale=TINY, names=["nopoly"], check=False)
        assert "bench.table2.mcb" in {s.name for s in tr.spans}
        roots = {n["span"].name for n in tr.span_tree()}
        assert "bench.table2.mcb" in roots
