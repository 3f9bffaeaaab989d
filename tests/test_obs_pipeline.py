"""End-to-end observability: pipeline spans and the profile CLI.

The pipeline drivers emit the paper's preprocess/process/post-process
phases as top-level spans, and ``repro-bench profile`` writes a
schema-valid Chrome trace and prints only the instruments its run moved.
"""

from __future__ import annotations

import itertools
import json

from repro.cli import main
from repro.graph import grid_graph
from repro.hetero.apsp_runner import apsp_with_trace
from repro.hetero.mcb_runner import mcb_with_trace
from repro.obs import tracing, validate_chrome_trace
from repro.obs.metrics import gauge

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

    def test_profile_prints_only_moved_instruments(self, capsys):
        # The apsp workload never sets this gauge: a value it held before
        # the run did not move, so the table must leave it out.
        idle = gauge("memory.mcb.witness_bytes")
        kept = idle.value
        idle.set(kept + 1.0)
        try:
            rc = main(["profile", "apsp", "--scale", str(TINY), "--datasets", "nopoly"])
        finally:
            idle.set(kept)
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        start = next(i for i, l in enumerate(lines) if l.startswith("metric ")) + 2
        rows = dict(
            l.split(None, 1) for l in itertools.takewhile(str.strip, lines[start:])
        )
        assert "engine.chunks_dispatched" in rows
        assert [n for n, v in rows.items() if v.strip() in ("0", "n=0")] == []
        assert not any(n.startswith("bulk_query.") for n in rows)  # never touched
        assert "memory.mcb.witness_bytes" not in rows

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
