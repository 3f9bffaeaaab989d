"""repro.obs.report: the single-file HTML run report (REPORT_SECTIONS).

Every section must render (data or explicit "no data" note) from any
subset of inputs, the emitted document must pass ``validate_report`` (the
CI smoke contract: doctype, one anchor per section, balanced tags, no
network references), and the CLI must assemble reports from a ledgered
run's ``trace_path`` meta alone.  Wall-clock spans and the virtual
platform's simulated clocks never share an axis.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.obs.ledger import RunRecord
from repro.obs.report import (
    REPORT_SECTIONS,
    build_report,
    validate_report,
    write_report,
)


def _trace_doc():
    return {
        "traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "repro"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
             "args": {"name": "tid 0"}},
            {"name": "preprocess", "cat": "apsp", "ph": "X",
             "ts": 0.0, "dur": 500.0, "pid": 1, "tid": 0},
            {"name": "sssp.chunk", "cat": "sssp", "ph": "X",
             "ts": 100.0, "dur": 200.0, "pid": 1, "tid": 0},
            {"name": "process_name", "ph": "M", "pid": 9_999_999, "tid": 0,
             "args": {"name": "virtual platform"}},
            {"name": "thread_name", "ph": "M", "pid": 9_999_999, "tid": 0,
             "args": {"name": "virtual gpu"}},
            {"name": "dijkstra", "cat": "virtual", "ph": "X",
             "ts": 0.0, "dur": 300.0, "pid": 9_999_999, "tid": 0},
        ]
    }


def _section(doc: str, name: str) -> str:
    start = doc.index(f'id="section-{name}"')
    return doc[start:doc.index("</section>", start)]


def _record(**over):
    rec = RunRecord(
        kind="profile",
        phases={"preprocess": 0.1, "process": 0.5},
        git_sha="abcdef1234567890",
        counters={"engine.chunks_dispatched": 23, "queue.grabs.back": 4},
        memory={
            "gauges": {"memory.apsp.oracle_bytes": 1000.0,
                       "memory.apsp.dense_bytes": 2000.0},
            "table1_model": {"component_bytes": 900, "ap_bytes": 100,
                             "oracle_bytes": 1000, "reduced_oracle_bytes": 800,
                             "dense_bytes": 2000},
            "spans": {"apsp.process": {"count": 1, "delta_bytes": 1024,
                                       "peak_bytes": 4096,
                                       "rss_peak_bytes": None}},
        },
        meta={"workload": "apsp", "dataset": "OPF_3754"},
    )
    for k, v in over.items():
        setattr(rec, k, v)
    return rec


class TestBuildReport:
    def test_empty_inputs_still_yield_all_sections(self):
        doc = build_report()
        assert validate_report(doc) == []
        for name in REPORT_SECTIONS:
            assert f'id="section-{name}"' in doc
        assert doc.count("nodata") >= 4  # explicit notes, not silence

    def test_full_inputs_render_data(self):
        history = [
            _record(phases={"preprocess": 0.1, "process": 0.5 + 0.01 * i})
            for i in range(5)
        ]
        doc = build_report(
            title="test run",
            trace=_trace_doc(),
            record=history[-1],
            history=history,
        )
        assert validate_report(doc) == []
        assert "preprocess" in doc          # waterfall bars
        assert "virtual gpu" in doc         # occupancy lane
        assert "virtual makespan" in doc
        assert "a² + Σ nᵢ²" in doc          # memory shape line
        assert "engine.chunks_dispatched" in doc
        assert 'class="spark"' in doc       # history sparklines
        assert "regression gate" in doc

    def test_trace_alone_keeps_wall_and_virtual_time_apart(self):
        doc = build_report(trace=_trace_doc())
        waterfall = _section(doc, "waterfall")
        assert "virtual" not in waterfall and "dijkstra" not in waterfall
        assert "1 track(s)" in waterfall
        timeline = _section(doc, "timeline")
        assert "virtual gpu" in timeline
        assert "nodata" not in timeline

    def test_history_regression_verdict_flags_slowdown(self):
        history = [_record(phases={"process": 0.1}) for _ in range(6)]
        history.append(_record(phases={"process": 10.0}))  # 100x slower
        doc = build_report(history=history)
        assert "CONFIRMED REGRESSION" in doc

    def test_escapes_hostile_names(self):
        evil = {"traceEvents": [
            {"name": "<script>alert(1)</script>", "ph": "X",
             "ts": 0.0, "dur": 10.0, "pid": 1, "tid": 0},
        ]}
        doc = build_report(trace=evil)
        assert "<script>alert" not in doc
        assert "&lt;script&gt;" in doc


class TestValidateReport:
    def test_catches_missing_section(self):
        doc = build_report().replace('id="section-memory"', 'id="section-mem"')
        assert any("section-memory" in p for p in validate_report(doc))

    def test_catches_external_resources(self):
        doc = build_report().replace(
            "</body>", '<img src="http://evil.example/x.png"></body>'
        )
        assert any("external" in p for p in validate_report(doc))

    def test_catches_missing_doctype(self):
        assert any(
            "doctype" in p for p in validate_report("<html></html>")
        )


class TestWriteReport:
    def test_writes_single_file(self, tmp_path):
        out = tmp_path / "r.html"
        write_report(out, trace=_trace_doc())
        doc = out.read_text()
        assert validate_report(doc) == []


class TestDeterminism:
    def test_same_trace_same_document_across_hash_seeds(self, tmp_path):
        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(_trace_doc()))
        code = (
            "import json, sys\n"
            "from repro.obs.report import build_report\n"
            "sys.stdout.write(build_report(trace=json.load(open(sys.argv[1]))))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        docs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            docs.append(
                subprocess.run(
                    [sys.executable, "-c", code, str(trace_path)],
                    check=True, capture_output=True, env=env, cwd=root,
                ).stdout
            )
        assert docs[0] and docs[0] == docs[1]


class TestReportCLI:
    def test_report_from_ledger_meta(self, tmp_path, capsys):
        """`repro-bench report --ledger X` locates the run's trace from
        the ledgered record's meta alone."""
        from repro.cli import main
        from repro.obs.ledger import Ledger

        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(_trace_doc()))
        ledger = Ledger(tmp_path / "ledger.jsonl")
        rec = _record()
        rec.meta["trace_path"] = str(trace_path)
        ledger.append(rec)
        out = tmp_path / "report.html"
        rc = main([
            "report", "--ledger", str(tmp_path / "ledger.jsonl"),
            "--out", str(out),
        ])
        assert rc == 0
        doc = out.read_text()
        assert validate_report(doc) == []
        assert "virtual gpu" in doc           # the trace was found via meta
        assert "apsp on OPF_3754" in doc      # title from the record

    def test_report_with_no_inputs_still_valid(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = main(["report", "--out", "r.html"])
        assert rc == 0
        assert validate_report((tmp_path / "r.html").read_text()) == []

    def test_old_reader_tolerates_new_meta_fields(self, tmp_path):
        # The trace_path meta key rides in the free-form meta dict: a
        # reader that ignores it still parses the record.
        rec = _record()
        rec.meta["trace_path"] = "/somewhere"
        rec.meta["future_field"] = {"nested": True}
        doc = rec.to_dict()
        parsed = RunRecord.from_dict(json.loads(json.dumps(doc)))
        assert parsed.phases == rec.phases
        assert parsed.meta["trace_path"] == "/somewhere"
