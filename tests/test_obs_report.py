"""repro.obs.report: the single-file HTML run report (REPORT_SECTIONS).

Every section must render (data or explicit "no data" note) from any
subset of inputs, the emitted document must pass ``validate_report`` (the
CI smoke contract: doctype, one anchor per section, balanced tags, no
network references), and the CLI must assemble reports from a ledgered
run's ``events_dir``/``trace_path`` meta alone.
"""

from __future__ import annotations

import json

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
             "args": {"name": "repro (parent)"}},
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


def _events():
    return [
        {"v": 1, "seq": 0, "ts_ns": 10, "pid": 1, "kind": "phase.start",
         "phase": "process", "cat": "apsp"},
        {"v": 1, "seq": 1, "ts_ns": 20, "pid": 1, "kind": "queue.grab",
         "end": "back", "batch": 3, "device": "gpu", "remaining": 5},
        {"v": 1, "seq": 2, "ts_ns": 30, "pid": 2, "kind": "worker.heartbeat",
         "status": "chunk_done"},
        {"v": 1, "seq": 3, "ts_ns": 40, "pid": 1, "kind": "phase.finish",
         "phase": "process", "cat": "apsp"},
    ]


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
            events=_events(),
            record=history[-1],
            history=history,
        )
        assert validate_report(doc) == []
        assert "preprocess" in doc          # waterfall bars
        assert "virtual platform occupancy" in doc
        assert "queue · gpu" in doc         # timeline device lane
        assert "worker pid 2" in doc        # heartbeat lane
        assert "a² + Σ nᵢ²" in doc          # memory shape line
        assert "engine.chunks_dispatched" in doc
        assert 'class="spark"' in doc       # history sparklines
        assert "regression gate" in doc

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
        write_report(out, events=_events())
        doc = out.read_text()
        assert validate_report(doc) == []


class TestReportCLI:
    def test_report_from_ledger_meta(self, tmp_path, capsys):
        """`repro-bench report --ledger X` locates the run's trace and
        events from the ledgered record's meta alone."""
        from repro.cli import main
        from repro.obs.events import events_to
        from repro.obs.ledger import Ledger

        trace_path = tmp_path / "t.json"
        trace_path.write_text(json.dumps(_trace_doc()))
        ev_dir = tmp_path / "ev"
        with events_to(ev_dir):
            from repro.obs.events import emit

            emit("queue.grab", end="front", batch=1, device="cpu", remaining=0)
        ledger = Ledger(tmp_path / "ledger.jsonl")
        rec = _record()
        rec.meta["trace_path"] = str(trace_path)
        rec.meta["events_dir"] = str(ev_dir)
        ledger.append(rec)
        out = tmp_path / "report.html"
        rc = main([
            "report", "--ledger", str(tmp_path / "ledger.jsonl"),
            "--out", str(out),
        ])
        assert rc == 0
        doc = out.read_text()
        assert validate_report(doc) == []
        assert "queue · cpu" in doc           # events were found via meta
        assert "apsp on OPF_3754" in doc      # title from the record

    def test_report_with_no_inputs_still_valid(self, tmp_path, monkeypatch):
        from repro.cli import main

        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = main(["report", "--out", "r.html"])
        assert rc == 0
        assert validate_report((tmp_path / "r.html").read_text()) == []

    def test_old_reader_tolerates_new_meta_fields(self, tmp_path):
        # The events_dir/trace_path meta keys ride in the free-form meta
        # dict: a reader that ignores them still parses the record.
        rec = _record()
        rec.meta["events_dir"] = "/somewhere"
        rec.meta["future_field"] = {"nested": True}
        doc = rec.to_dict()
        parsed = RunRecord.from_dict(json.loads(json.dumps(doc)))
        assert parsed.phases == rec.phases
        assert parsed.meta["events_dir"] == "/somewhere"
