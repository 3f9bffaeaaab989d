"""repro.obs.export: the per-track self-time table and the trace loader.

``summary()`` is the one answer to "where did this run's time go, per
layer": ``repro-bench profile`` prints it from its live collector and
``repro-bench critpath --trace`` from any recorded Chrome trace, read
through ``load_chrome_trace``.  The synthetic geometries pin every
nanosecond; the paperbench-shaped trace checks the table against the
benchmark's own self-time arithmetic (duration minus direct children).
"""

from __future__ import annotations

import json

import pytest

from repro.hetero.timing import ClockSample
from repro.obs import span, tracing
from repro.obs.export import (
    VIRTUAL_PID,
    chrome_trace,
    load_chrome_trace,
    self_times,
    summary,
    traced_window,
)
from repro.obs.trace import Span, TraceCollector

MS = 1_000_000  # ns per millisecond — keeps the geometries readable


def _collector(*spans: tuple) -> TraceCollector:
    """Build a collector from (name, start_ms, dur_ms[, pid[, tid]])."""
    tr = TraceCollector()
    tr.spans.extend(
        Span(
            name=s[0], cat="t", start_ns=s[1] * MS, dur_ns=s[2] * MS,
            pid=s[3] if len(s) > 3 else 1, tid=s[4] if len(s) > 4 else 1,
            depth=0,
        )
        for s in spans
    )
    return tr


def _rows(text: str) -> dict[str, dict[str, tuple[int, float, float, float]]]:
    """Parse summary() output: track label -> span -> (count, wall, self, %)."""
    out: dict[str, dict] = {}
    track = None
    for line in text.splitlines():
        if "root span(s)" in line:
            track = line.split(" (pid ")[0]
            out[track] = {}
        elif not line:
            track = None  # a blank line ends each table
        elif track is not None and not line.startswith(("span", "-")):
            name, cnt, wall, own, pct = line.split()
            out[track][name] = (int(cnt), float(wall), float(own), float(pct[:-1]))
    return out


class TestSelfTimesExport:
    def test_self_times_subtract_child_union(self):
        with tracing() as tr:
            with span("outer", cat="t"):
                with span("inner", cat="t"):
                    pass
        durs = {s.name: s.dur_ns for s in tr.spans}
        times = self_times(tr)
        assert times["inner"] == (1, durs["inner"])  # leaf: self == wall
        out_count, out_self = times["outer"]
        assert out_count == 1
        assert out_self == durs["outer"] - durs["inner"]
        assert out_self >= 0

    def test_overlapping_children_clip_via_union(self):
        tr = _collector(
            ("parallel.dispatch", 0, 100),
            ("parallel.worker_chunk", 0, 60),
            ("parallel.worker_chunk", 40, 60),
        )
        # Same-track containment: both chunks nest inside the dispatch;
        # their union covers [0,100], so dispatch self clamps to 0 — a
        # plain sum (120) would have gone negative.
        times = self_times(tr)
        assert times["parallel.dispatch"] == (1, 0)

    def test_summary_prints_self_column(self):
        with tracing() as tr:
            with span("phase.a", cat="t"):
                with span("phase.b", cat="t"):
                    pass
        text = summary(tr)
        assert "self ms" in text


class TestSummaryTable:
    def test_self_never_exceeds_wall_for_a_name_at_two_depths(self):
        # ``x`` runs once as a root and once nested under ``p``: wall and
        # self must both sum over the same two spans.
        tr = _collector(("x", 0, 10), ("p", 20, 100), ("x", 30, 80))
        (rows,) = _rows(summary(tr)).values()
        assert rows["x"] == (2, 90.0, 90.0, 81.8)
        assert rows["p"] == (1, 100.0, 20.0, 18.2)
        for cnt, wall, own, _ in rows.values():
            assert own <= wall

    def test_self_time_uses_union_of_overlapping_children(self):
        # Dispatch [0,100] holding two overlapping chunks [0,60] and
        # [40,100]: their union is 100, so the dispatch row shows self 0
        # (not -20) beside its 100 ms wall, and the chunks keep all 120 ms.
        tr = _collector(
            ("parallel.dispatch", 0, 100),
            ("parallel.worker_chunk", 0, 60),
            ("parallel.worker_chunk", 40, 60),
        )
        (rows,) = _rows(summary(tr)).values()
        assert rows["parallel.dispatch"][:3] == (1, 100.0, 0.0)
        assert rows["parallel.worker_chunk"][:3] == (2, 120.0, 120.0)

    def test_nested_layers_get_rows_and_shares_add_up(self):
        tr = _collector(
            ("process", 0, 100), ("sssp.chunk", 10, 30), ("mm.scan", 50, 40),
            ("process", 200, 50), ("sssp.chunk", 210, 20),
        )
        (rows,) = _rows(summary(tr)).values()
        assert set(rows) == {"process", "sssp.chunk", "mm.scan"}
        assert rows["sssp.chunk"] == (2, 50.0, 50.0, pytest.approx(33.3))
        assert rows["process"][2] == 60.0  # 150 root ms minus 90 nested
        assert sum(r[3] for r in rows.values()) == pytest.approx(100.0, abs=0.2)

    def test_one_table_per_track_labelled(self):
        tr = _collector(("a", 0, 5, 1, 1), ("b", 0, 7, 1, 2), ("c", 0, 3, 2, 1))
        tr.track_names[(1, 2)] = "composed"
        text = summary(tr, {"engine.adj_cache.hits": 4})
        assert set(_rows(text)) == {"tid 1", "composed"}
        assert text.count("root span(s)") == 3  # (1,1), (1,2) and (2,1)
        assert "(pid 2)" in text
        assert "engine.adj_cache.hits" in text  # counters follow the tables

    def test_empty_collector(self):
        assert summary(TraceCollector()) == "no spans recorded"


def _paperbench_doc() -> tuple[dict, dict[str, dict[str, int]]]:
    """A trace shaped like ``paperbench/run.py --trace 1`` output.

    One ``thread_name`` track per leg, two calls per leg, nested layers
    carrying ``call``/``span``/``parent`` ids, plus one virtual-pid
    track.  Returns the document and, per leg, the self ns per layer as
    paperbench's ``call_totals`` computes it (duration minus the
    durations of direct children, summed over the leg's calls).
    """
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
               "args": {"name": "paperbench"}}]
    legs = {"ours": 1, "composed": 2, "baseline": 3}
    events += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                "args": {"name": leg}} for leg, tid in legs.items()]
    # (name, parent index or None, start µs, dur µs) per call of each leg
    shapes = {
        "ours": [("ours", None, 0.0, 500.25), ("decomposition.reduce", 0, 1.5, 60.125),
                 ("sssp.all_pairs", 0, 70.0, 400.5), ("apsp.extend", 0, 471.0, 25.75)],
        "composed": [("composed", None, 0.0, 800.5), ("decomposition.bcc", 0, 2.0, 100.0),
                     ("apsp.ap_closure", 0, 110.0, 600.0),
                     ("sssp.all_pairs", 2, 120.0, 450.25),
                     ("decomposition.bcc", 2, 580.0, 20.5),
                     ("apsp.assemble", 0, 720.0, 70.0)],
        "baseline": [("baseline", None, 0.0, 900.0), ("apsp.peel", 0, 5.0, 30.0),
                     ("sssp.all_pairs", 0, 40.0, 800.75)],
    }
    expected: dict[str, dict[str, int]] = {}
    sid = 0
    t0 = 0.0
    for call in range(2):
        for leg, tid in legs.items():
            base = sid
            child_ns: dict[int, int] = {}
            shape = shapes[leg]
            for name, parent, start, dur in shape:
                parent_sid = None if parent is None else base + parent
                events.append({
                    "name": name, "cat": name.split(".")[0], "ph": "X", "pid": 1,
                    "tid": tid, "ts": t0 + start, "dur": dur,
                    "args": {"call": call * 3 + tid, "span": sid, "parent": parent_sid},
                })
                if parent_sid is not None:
                    child_ns[parent_sid] = child_ns.get(parent_sid, 0) + round(dur * 1e3)
                sid += 1
            for i, (name, _, _, dur) in enumerate(shape):
                own = round(dur * 1e3) - child_ns.get(base + i, 0)
                leg_rows = expected.setdefault(leg, {})
                leg_rows[name] = leg_rows.get(name, 0) + own
            t0 += 1000.0
    events += [
        {"name": "process_name", "ph": "M", "pid": VIRTUAL_PID, "tid": 0,
         "args": {"name": "virtual platform"}},
        {"name": "thread_name", "ph": "M", "pid": VIRTUAL_PID, "tid": 0,
         "args": {"name": "virtual gpu"}},
        {"name": "sssp.all_pairs", "cat": "virtual", "ph": "X",
         "pid": VIRTUAL_PID, "tid": 0, "ts": 0.0, "dur": 5e6},
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}, expected


class TestLoadChromeTrace:
    def test_paperbench_shaped_trace_gives_exact_per_track_self_sums(self):
        doc, expected = _paperbench_doc()
        tr = load_chrome_trace(doc)
        assert {s.pid for s in tr.spans} == {1}  # virtual track skipped
        assert tr.track_names == {(1, 1): "ours", (1, 2): "composed",
                                  (1, 3): "baseline"}
        for track, leg in tr.track_names.items():
            one = TraceCollector()
            one.spans = [s for s in tr.spans if (s.pid, s.tid) == track]
            assert {k: ns for k, (_, ns) in self_times(one).items()} == expected[leg]
        rows = _rows(summary(tr))
        assert list(rows) == ["ours", "composed", "baseline"]
        for leg, layers in expected.items():
            assert set(rows[leg]) == set(layers)
            for name, self_ns in layers.items():
                assert rows[leg][name][2] == round(self_ns / 1e6, 3), (leg, name)
        # decomposition.bcc at two depths in composed: both rows summed.
        assert rows["composed"]["decomposition.bcc"][0] == 4
        assert rows["ours"]["ours"][0] == 2

    def test_collector_round_trips_summary_exactly(self, tmp_path):
        with tracing() as tr:
            for _ in range(2):
                with span("preprocess", cat="apsp"):
                    with span("decomposition.reduce", cat="apsp"):
                        pass
                with span("process", cat="apsp"):
                    with span("sssp.chunk", cat="sssp"):
                        with span("engine.adjacency_build", cat="sssp"):
                            pass
                    with span("sssp.chunk", cat="sssp"):
                        pass
            with span("engine.adjacency_build", cat="sssp"):
                pass
        clocks = {"gpu": [ClockSample("dijkstra", 0.0, 0.5)]}
        path = tmp_path / "t.json"
        path.write_text(json.dumps(chrome_trace(tr, clocks=clocks)))
        loaded = load_chrome_trace(json.loads(path.read_text()))
        assert len(loaded) == len(tr)
        metrics = {"engine.adj_cache.misses": 3}
        assert summary(loaded, metrics) == summary(tr, metrics)
        assert traced_window(loaded) == traced_window(tr)


class TestCritpathCLI:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        with tracing() as tr, span("run.cli", cat="test"):
            with span("work", cat="test"):
                pass
        path = tmp_path / "trace.json"
        tr.write_chrome(str(path))
        return path

    def test_text_output(self, trace_file, capsys):
        from repro.cli import main

        assert main(["critpath", "--trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "critical path:" in out and "run.cli" in out

    def test_header_reports_window_cover_and_gap(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.json"
        tr = _collector(("a", 0, 10), ("b", 20, 10), ("inner", 22, 5))
        path.write_text(json.dumps(chrome_trace(tr)))
        assert main(["critpath", "--trace", str(path)]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            "critical path: 0.030000 s traced window over 3 span(s); "
            "root spans cover 0.020000 s, untraced gap 0.010000 s"
        )

    def test_missing_trace_exits_with_message(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["critpath", "--trace", str(tmp_path / "absent.json"),
                  "--ledger", str(tmp_path / "no-ledger.jsonl")])
        assert "no Chrome trace" in str(exc.value)

    def test_spanless_trace_exits_2(self, tmp_path):
        from repro.cli import main

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"traceEvents": []}))
        with pytest.raises(SystemExit) as exc:
            main(["critpath", "--trace", str(empty)])
        assert exc.value.code == 2
