"""repro.obs.events: shard discipline, tolerant reads, zero-cost disabled mode.

The disabled-mode tests pin the subsystem's core contract (mirroring the
trace layer's null span): with no sink installed, ``emit()`` returns after
one module-global read and ``emitting()`` hands back a shared singleton,
so per-chunk instrumentation costs nothing unless ``REPRO_EVENTS`` is set.
"""

from __future__ import annotations

import json
import os
import tracemalloc

import numpy as np
import pytest

from repro.graph import grid_graph
from repro.obs import events
from repro.obs.events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    EventSink,
    emit,
    emitting,
    events_to,
)


class TestDisabledMode:
    def test_disabled_by_default(self):
        assert not events.enabled()
        assert events.current_sink() is None

    def test_emit_is_noop(self, tmp_path):
        emit("queue.grab", end="back", batch=4)  # no sink: must not raise
        assert list(tmp_path.iterdir()) == []

    def test_emitting_returns_shared_singleton(self):
        a = emitting("phase", phase="process", cat="apsp")
        b = emitting("completely.different")
        assert a is b is events._NULL_EMITTING

    def test_no_allocation_on_hot_path(self):
        # 50k disabled guard+emit cycles must not grow traced memory
        # beyond noise — same budget as the trace layer's null span.
        def burn():
            for _ in range(50_000):
                if events.enabled():
                    emit("chunk.start", sources=32)

        burn()  # warm caches outside the measurement window
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            burn()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 16_384, f"disabled emits allocated {after - before} B"


class TestEventSink:
    def test_emit_writes_schema_stamped_lines(self, tmp_path):
        sink = EventSink(tmp_path)
        sink.emit("queue.grab", end="back", batch=4, device="gpu")
        sink.emit("chunk.start", sources=32)
        sink.close()
        lines = sink.shard_path().read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["v"] == EVENT_SCHEMA_VERSION
        assert first["pid"] == os.getpid()
        assert first["kind"] == "queue.grab"
        assert first["device"] == "gpu"
        assert first["seq"] == 0
        assert json.loads(lines[1])["seq"] == 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_shard_is_per_pid(self, tmp_path):
        sink = EventSink(tmp_path)
        assert sink.shard_path().name == f"events-{os.getpid()}.jsonl"
        sink.emit("k", side="parent")
        # A forked child inherits the open shard; its first emit must
        # re-open a shard under its own pid rather than share the parent's.
        child = os.fork()
        if child == 0:
            try:
                sink.emit("k", side="child")
            finally:
                os._exit(0)
        os.waitpid(child, 0)
        sink.emit("k", side="parent")
        sink.close()
        log = EventLog(tmp_path)
        assert sorted(p.name for p in log.shards()) == sorted(
            f"events-{pid}.jsonl" for pid in (os.getpid(), child)
        )
        evs = log.read()
        assert [(e["pid"], e["side"]) for e in evs if e["side"] == "child"] == [
            (child, "child")
        ]
        parent = [e for e in evs if e["pid"] == os.getpid()]
        assert [e["seq"] for e in parent] == [0, 1]  # the child never wrote here

    def test_shard_cap_counts_drops(self, tmp_path, monkeypatch):
        monkeypatch.setattr(events, "MAX_EVENTS_PER_SHARD", 3)
        sink = EventSink(tmp_path)
        for i in range(5):
            sink.emit("k", i=i)
        sink.close()
        assert sink.dropped == 2
        assert len(EventLog(tmp_path).read()) == 3

    def test_non_serializable_fields_coerced(self, tmp_path):
        sink = EventSink(tmp_path)
        sink.emit("k", arr=np.int64(7))  # default=str coerces
        sink.close()
        assert EventLog(tmp_path).read()[0]["arr"] in (7, "7")


class TestEventLog:
    def test_merged_read_is_timestamp_sorted(self, tmp_path):
        # Fake two pids' shards with interleaved timestamps.
        (tmp_path / "events-100.jsonl").write_text(
            '{"v":1,"seq":0,"ts_ns":30,"pid":100,"kind":"b"}\n'
            '{"v":1,"seq":1,"ts_ns":50,"pid":100,"kind":"d"}\n'
        )
        (tmp_path / "events-200.jsonl").write_text(
            '{"v":1,"seq":0,"ts_ns":20,"pid":200,"kind":"a"}\n'
            '{"v":1,"seq":1,"ts_ns":40,"pid":200,"kind":"c"}\n'
        )
        log = EventLog(tmp_path)
        assert [e["kind"] for e in log.read()] == ["a", "b", "c", "d"]
        assert log.skipped == 0

    def test_tolerant_of_garbage_and_future_schema(self, tmp_path):
        (tmp_path / "events-1.jsonl").write_text(
            '{"v":1,"seq":0,"ts_ns":1,"pid":1,"kind":"good"}\n'
            "not json at all\n"
            '{"v":999,"seq":0,"ts_ns":2,"pid":1,"kind":"future"}\n'
            '{"v":1,"ts_ns":"not-an-int","pid":1,"kind":"bad-ts"}\n'
            '{"truncated": tru\n'
            '{"v":1,"seq":1,"ts_ns":3,"pid":1,"kind":"good2"}\n'
        )
        log = EventLog(tmp_path)
        assert [e["kind"] for e in log.read()] == ["good", "good2"]
        assert log.skipped == 4

    def test_kind_filter_and_kinds_summary(self, tmp_path):
        sink = EventSink(tmp_path)
        sink.emit("a")
        sink.emit("b")
        sink.emit("a")
        sink.close()
        log = EventLog(tmp_path)
        assert len(log.read(kinds={"a"})) == 2
        assert log.kinds() == {"a": 2, "b": 1}

    def test_missing_dir_reads_empty(self, tmp_path):
        log = EventLog(tmp_path / "never-created")
        assert log.read() == []
        assert log.shards() == []

    def test_skewed_shards_clamped_monotonic(self, tmp_path):
        # Two shards from hosts with skewed clocks: pid 100's timestamps
        # run far behind pid 200's, and pid 200's file itself contains a
        # backwards step (a suspended-VM artifact).  The merged stream
        # must still come out non-decreasing — backwards steps inside one
        # shard's append order are clamped up to the shard's running max
        # and flagged, never silently reordered.
        (tmp_path / "events-100.jsonl").write_text(
            '{"v":1,"seq":0,"ts_ns":10,"pid":100,"kind":"a"}\n'
            '{"v":1,"seq":1,"ts_ns":1000,"pid":100,"kind":"b"}\n'
        )
        (tmp_path / "events-200.jsonl").write_text(
            '{"v":1,"seq":0,"ts_ns":500,"pid":200,"kind":"c"}\n'
            '{"v":1,"seq":1,"ts_ns":400,"pid":200,"kind":"d"}\n'
            '{"v":1,"seq":2,"ts_ns":600,"pid":200,"kind":"e"}\n'
        )
        log = EventLog(tmp_path)
        evs = log.read()
        ts = [e["ts_ns"] for e in evs]
        assert ts == sorted(ts), ts
        assert log.clamped == 1
        by_kind = {e["kind"]: e for e in evs}
        # the backwards event was clamped up to its shard's running max
        assert by_kind["d"]["ts_ns"] == 500
        assert by_kind["d"].get("ts_clamped") is True
        # in-order events are untouched and unflagged
        assert "ts_clamped" not in by_kind["c"]
        assert by_kind["e"]["ts_ns"] == 600

    def test_clamped_counter_resets_per_read(self, tmp_path):
        (tmp_path / "events-1.jsonl").write_text(
            '{"v":1,"seq":0,"ts_ns":5,"pid":1,"kind":"a"}\n'
            '{"v":1,"seq":1,"ts_ns":3,"pid":1,"kind":"b"}\n'
        )
        log = EventLog(tmp_path)
        log.read()
        assert log.clamped == 1
        log.read()
        assert log.clamped == 1  # re-counted, not accumulated


class TestEventsTo:
    def test_installs_and_restores(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EVENTS", raising=False)
        assert not events.enabled()
        with events_to(tmp_path) as sink:
            assert events.enabled()
            assert events.current_sink() is sink
            # Exported for spawn-method worker processes.
            assert os.environ["REPRO_EVENTS"] == str(tmp_path)
            emit("k")
        assert not events.enabled()
        assert "REPRO_EVENTS" not in os.environ
        assert len(EventLog(tmp_path).read()) == 1

    def test_nesting_restores_outer_sink(self, tmp_path):
        outer, inner = tmp_path / "outer", tmp_path / "inner"
        with events_to(outer) as s_outer:
            with events_to(inner):
                emit("inner.event")
            assert events.current_sink() is s_outer
            emit("outer.event")
        assert EventLog(inner).kinds() == {"inner.event": 1}
        assert EventLog(outer).kinds() == {"outer.event": 1}

    def test_emitting_brackets_with_duration(self, tmp_path):
        with events_to(tmp_path):
            with emitting("phase", phase="process", cat="apsp"):
                pass
        evs = EventLog(tmp_path).read()
        assert [e["kind"] for e in evs] == ["phase.start", "phase.finish"]
        assert evs[1]["dur_ns"] >= 0
        assert evs[1]["phase"] == "process"

    def test_emitting_tags_exceptions(self, tmp_path):
        with events_to(tmp_path):
            with pytest.raises(ValueError):
                with emitting("phase", phase="process"):
                    raise ValueError("boom")
        evs = EventLog(tmp_path).read()
        assert evs[1]["kind"] == "phase.finish"
        assert evs[1]["error"] == "ValueError"

    def test_resolve_dir_flag_vs_path(self):
        assert events._resolve_dir("0") is None
        assert events._resolve_dir("") is None
        assert events._resolve_dir("off") is None
        assert events._resolve_dir("1") == events.DEFAULT_EVENTS_DIR
        assert events._resolve_dir("/some/dir") == "/some/dir"


class TestPipelineEmission:
    def test_apsp_run_emits_phases_and_chunks(self, tmp_path):
        from repro.hetero.apsp_runner import apsp_with_trace

        g = grid_graph(5, 5)
        with events_to(tmp_path):
            apsp_with_trace(g)
        kinds = EventLog(tmp_path).kinds()
        assert kinds.get("phase.start", 0) >= 1
        assert kinds["phase.start"] == kinds["phase.finish"]
        assert kinds.get("chunk.start", 0) >= 1
        assert kinds["chunk.start"] == kinds["chunk.finish"]

    def test_simulated_stage_emits_device_grabs(self, tmp_path):
        from repro.hetero.apsp_runner import apsp_with_trace
        from repro.hetero.executor import Platform
        from repro.hetero.trace import simulate_trace

        g = grid_graph(6, 6)
        with events_to(tmp_path):
            _, trace = apsp_with_trace(g)
            simulate_trace(trace, Platform.heterogeneous())
        grabs = EventLog(tmp_path).read(kinds={"queue.grab"})
        assert grabs
        for ev in grabs:
            assert ev["end"] in ("front", "back")
            assert ev["batch"] >= 1
            assert ev["device"]
            assert isinstance(ev["remaining"], int)
