"""repro.obs.trace: nesting, exception safety, disabled-mode cost, export.

The disabled-mode tests pin the subsystem's core contract: with no
collector installed, ``span(...)`` must return one shared singleton (no
per-call allocation), so instrumented per-chunk loops cost nothing when
``REPRO_TRACE`` is unset.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from repro.obs import (
    Span,
    TraceCollector,
    chrome_trace,
    current_collector,
    span,
    tracing,
    tracing_enabled,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.trace import _NULL_SPAN, phase


class TestDisabledMode:
    def test_disabled_by_default(self):
        assert not tracing_enabled()
        assert current_collector() is None

    def test_null_span_singleton(self):
        # The no-allocation property: every disabled span() or phase()
        # call returns the *same* object, so the hot path never
        # constructs anything.
        a = span("engine.chunk", cat="sssp", sources=32)
        b = span("completely.different")
        c = phase("process", "apsp", stage="dijkstra", n=3)
        assert a is b is c is _NULL_SPAN

    def test_null_span_is_inert(self):
        with span("x", cat="y", k=1) as s:
            assert s.set(more=2) is s  # set() chains but records nothing

    def test_no_allocation_on_hot_path(self):
        # 50k disabled spans and phases must not grow traced memory beyond
        # noise (interned ints, tracemalloc bookkeeping).
        def burn():
            for _ in range(50_000):
                with span("hot.loop", cat="bench"):
                    pass
                with phase("process", "bench", stage="hot"):
                    pass

        burn()  # warm caches outside the measurement window
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            burn()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 16_384, f"disabled spans allocated {after - before} B"


class TestNesting:
    def test_depths_and_order(self):
        with tracing() as tr:
            with span("outer", cat="t"):
                with span("inner", cat="t"):
                    pass
                with span("inner2", cat="t"):
                    pass
        names = {s.name: s for s in tr.spans}
        assert names["outer"].depth == 0
        assert names["inner"].depth == 1
        assert names["inner2"].depth == 1
        # Children close before their parent, so they are recorded first.
        assert [s.name for s in tr.spans] == ["inner", "inner2", "outer"]

    def test_span_tree_containment(self):
        with tracing() as tr:
            with span("root"):
                with span("child"):
                    with span("grandchild"):
                        pass
            with span("root2"):
                pass
        roots = tr.span_tree()
        assert [n["span"].name for n in roots] == ["root", "root2"]
        child = roots[0]["children"][0]
        assert child["span"].name == "child"
        assert child["children"][0]["span"].name == "grandchild"

    def test_set_attaches_args(self):
        with tracing() as tr:
            with span("work", cat="t", fixed=1) as s:
                s.set(late=2)
        (sp,) = tr.spans
        assert sp.args == {"fixed": 1, "late": 2}

    def test_by_name_and_total(self):
        with tracing() as tr:
            for _ in range(3):
                with span("phase"):
                    pass
        assert len(tr.by_name()["phase"]) == 3
        assert tr.total_ns("phase") == sum(s.dur_ns for s in tr.spans)
        assert tr.total_ns("absent") == 0


class TestSpanTreeEdgeCases:
    """Degenerate geometries the containment sweep must not mangle.

    The self-time table (``repro.obs.export.summary``) walks this tree,
    so the contract here is what keeps its rows exact on odd traces.
    """

    @staticmethod
    def _collect(*spans: Span) -> TraceCollector:
        tr = TraceCollector()
        tr.spans.extend(spans)
        return tr

    @staticmethod
    def _mk(name, start, dur, pid=1, tid=1, depth=0, args=None):
        return Span(name=name, cat="t", start_ns=start, dur_ns=dur,
                    pid=pid, tid=tid, depth=depth, args=args or {})

    def test_zero_duration_span_nests_inside_cover(self):
        tr = self._collect(
            self._mk("cover", 0, 100),
            self._mk("instant", 50, 0),
        )
        (root,) = tr.span_tree()
        assert root["span"].name == "cover"
        (child,) = root["children"]
        assert child["span"].name == "instant"
        assert child["span"].dur_ns == 0

    def test_zero_duration_span_alone_is_a_root(self):
        tr = self._collect(self._mk("instant", 7, 0))
        (root,) = tr.span_tree()
        assert root["span"].name == "instant"
        assert root["children"] == []

    def test_identical_start_times_longer_span_contains_shorter(self):
        # Same start on one track: the (start, -dur) sort makes the
        # longer span the parent, never a sibling overlap.
        tr = self._collect(
            self._mk("long", 10, 100),
            self._mk("short", 10, 40),
        )
        (root,) = tr.span_tree()
        assert root["span"].name == "long"
        assert [c["span"].name for c in root["children"]] == ["short"]

    def test_identical_start_and_duration_nest_deterministically(self):
        tr = self._collect(
            self._mk("twin_a", 10, 50),
            self._mk("twin_b", 10, 50),
        )
        roots = tr.span_tree()
        assert len(roots) == 1  # one nests under the other, no fork
        (child,) = roots[0]["children"]
        assert {roots[0]["span"].name, child["span"].name} == {
            "twin_a", "twin_b"
        }

    def test_orphan_worker_span_stays_own_root(self):
        # A chunk on a second pid whose enclosing phase is not in the
        # trace — a torn file, or two processes' spans read back from one
        # Chrome trace by load_chrome_trace: its track has no cover, so
        # it must surface as a root rather than attach anywhere.
        tr = self._collect(
            self._mk("process", 0, 100, pid=1),
            self._mk("sssp.chunk", 200, 50, pid=2, args={"sources": 32}),
        )
        roots = tr.span_tree()
        assert {n["span"].name for n in roots} == {"process", "sssp.chunk"}


class TestExceptionSafety:
    def test_raising_span_is_recorded_with_error_tag(self):
        with tracing() as tr:
            with pytest.raises(RuntimeError):
                with span("doomed", cat="t"):
                    raise RuntimeError("boom")
        (sp,) = tr.spans
        assert sp.name == "doomed"
        assert sp.args["error"] == "RuntimeError"

    def test_stack_unwinds_once(self):
        # A crashing inner phase must not shift its siblings' depths.
        with tracing() as tr:
            with span("outer"):
                with pytest.raises(ValueError):
                    with span("bad"):
                        raise ValueError
                with span("sibling"):
                    pass
        names = {s.name: s for s in tr.spans}
        assert names["bad"].depth == 1
        assert names["sibling"].depth == 1
        assert names["outer"].depth == 0


class TestPhase:
    """``obs.trace.phase``: the span and the memory span from one call."""

    def test_records_span_and_memory_span(self):
        from repro.obs.memory import memory_profiling

        with tracing() as tr, memory_profiling() as mp:
            with phase("preprocess", "apsp", stage="decompose", n=7):
                pass
        (sp,) = tr.spans
        assert (sp.name, sp.cat) == ("preprocess", "apsp")
        assert sp.args == {"stage": "decompose", "n": 7}
        assert [m.name for m in mp.spans] == ["apsp.preprocess"]

    def test_each_layer_arms_alone(self):
        from repro.obs.memory import memory_profiling

        with tracing() as tr:
            with phase("process", "mcb", stage="expand"):
                pass
        assert [s.name for s in tr.spans] == ["process"]
        with memory_profiling() as mp:
            with phase("process", "mcb", stage="expand"):
                pass
        assert [m.name for m in mp.spans] == ["mcb.process"]

    def test_raising_phase_tags_span(self):
        from repro.obs.memory import memory_profiling

        with tracing() as tr, memory_profiling() as mp:
            with pytest.raises(KeyError):
                with phase("postprocess", "apsp", stage="extend"):
                    raise KeyError("x")
        (sp,) = tr.spans
        assert sp.args["error"] == "KeyError"
        assert [m.name for m in mp.spans] == ["apsp.postprocess"]


class TestTracingContextManager:
    def test_installs_and_restores(self):
        assert current_collector() is None
        with tracing() as tr:
            assert tracing_enabled()
            assert current_collector() is tr
        assert current_collector() is None

    def test_nesting_restores_previous(self):
        with tracing() as outer_tr:
            with tracing() as inner_tr:
                with span("inner.only"):
                    pass
            assert current_collector() is outer_tr
            with span("outer.only"):
                pass
        assert [s.name for s in inner_tr.spans] == ["inner.only"]
        assert [s.name for s in outer_tr.spans] == ["outer.only"]


class TestChromeExport:
    def test_schema_valid_and_rebased(self, tmp_path):
        with tracing() as tr:
            with span("a", cat="t", k=1):
                with span("b", cat="t"):
                    pass
        doc = chrome_trace(tr)
        assert validate_chrome_trace(doc) == []
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["name"] for e in xs} == {"a", "b"}
        assert all(e["ts"] >= 0 for e in xs)  # re-based to the origin
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in metas)
        path = write_chrome_trace(tr, str(tmp_path / "trace.json"))
        on_disk = json.loads(open(path).read())
        assert validate_chrome_trace(on_disk) == []

    def test_validator_rejects_garbage(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        bad = {"traceEvents": [{"name": "x", "ph": "X", "pid": 1, "tid": 1,
                                "ts": -5, "dur": "long"}]}
        problems = validate_chrome_trace(bad)
        assert any("ts" in p for p in problems)
        assert any("dur" in p for p in problems)
        bad_ph = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1, "tid": 1}]}
        assert any("phase" in p for p in problems) or validate_chrome_trace(bad_ph)


class TestEnvKnob:
    def test_repro_trace_path_dumps_at_exit(self, tmp_path):
        out = tmp_path / "ambient.json"
        code = (
            "from repro.obs import tracing_enabled, span\n"
            "assert tracing_enabled()\n"
            "with span('env.phase', cat='t'):\n"
            "    pass\n"
        )
        env = dict(os.environ, REPRO_TRACE=str(out))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        assert any(e["name"] == "env.phase" for e in doc["traceEvents"])

    def test_repro_trace_falsy_stays_disabled(self):
        code = (
            "from repro.obs import tracing_enabled\n"
            "assert not tracing_enabled()\n"
        )
        env = dict(os.environ, REPRO_TRACE="0")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
