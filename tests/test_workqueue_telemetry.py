"""Work-queue telemetry: per-device counters and ``queue.grab`` events.

Covers both paths that drive the double-ended queue — the trace-replay
simulator (:func:`repro.hetero.trace.simulate_trace`) and a directly
drained executor stage — and the virtual-clock bridge that turns replay
samples into Chrome-trace device tracks.
"""

from __future__ import annotations

from repro.hetero.executor import HeterogeneousExecutor, Platform
from repro.hetero.trace import WorkTrace, simulate_trace
from repro.hetero.workqueue import DequeWorkQueue, WorkUnit
from repro.obs import metrics as _metrics
from repro.obs.events import EventLog, events_to
from repro.obs.export import (
    VIRTUAL_PID,
    chrome_trace,
    validate_chrome_trace,
    virtual_clock_events,
)
from repro.obs.trace import TraceCollector


def _units(n=6):
    return [
        WorkUnit(uid=i, fn=lambda: None, work=float(i + 1), items=1)
        for i in range(n)
    ]


class TestGrabCounters:
    def test_end_counters_and_device_units(self):
        front = _metrics.counter("queue.grabs.front")
        back = _metrics.counter("queue.grabs.back")
        dev = _metrics.counter("queue.device.testdev.units")
        f0, b0, d0 = front.value, back.value, dev.value
        q = DequeWorkQueue(_units(6))
        q.grab(2, from_back=True, device="testdev")
        q.grab(1, from_back=False, device="testdev")
        q.grab(10, from_back=False)  # drains; anonymous grab
        assert back.value == b0 + 1
        assert front.value == f0 + 2
        assert dev.value == d0 + 3  # 2 back + 1 front units for testdev
        # Empty-queue grabs count nothing.
        b1 = back.value
        assert q.grab(4, from_back=True, device="testdev") == []
        assert back.value == b1

    def test_batch_histogram_observes(self):
        hist = _metrics.histogram("queue.grab.batch")
        n0 = hist.count
        DequeWorkQueue(_units(4)).grab(3, from_back=True)
        assert hist.count == n0 + 1

    def test_grab_event_payload(self, tmp_path):
        q = DequeWorkQueue(_units(5))
        with events_to(tmp_path):
            q.grab(2, from_back=True, device="gpu")
            q.grab(1, from_back=False, device="cpu")
        evs = EventLog(tmp_path).read(kinds={"queue.grab"})
        assert [(e["device"], e["end"], e["batch"], e["remaining"]) for e in evs] == [
            ("gpu", "back", 2, 3),
            ("cpu", "front", 1, 2),
        ]


class TestSimulatedPath:
    def test_replay_attributes_grabs_to_device_names(self, tmp_path):
        trace = WorkTrace()
        stage = trace.new_stage("dijkstra")
        for i in range(12):
            stage.add(1000.0 * (i + 1), 8)
        platform = Platform.heterogeneous()
        dev_counters = {
            d.name: _metrics.counter(f"queue.device.{d.name}.units")
            for d in platform.devices
        }
        before = {name: c.value for name, c in dev_counters.items()}
        with events_to(tmp_path):
            simulate_trace(trace, platform)
        grabbed = {
            name: c.value - before[name] for name, c in dev_counters.items()
        }
        assert sum(grabbed.values()) == 12  # every unit attributed
        evs = EventLog(tmp_path).read(kinds={"queue.grab"})
        assert {e["device"] for e in evs} <= set(dev_counters)
        # The [19] discipline: the GPU grabs from the big end (back),
        # the CPU from the small end (front).
        for e in evs:
            assert e["end"] == ("back" if e["device"] == "gpu" else "front")

    def test_executor_run_stage_threads_device_name(self, tmp_path):
        ex = HeterogeneousExecutor(Platform.sequential())
        with events_to(tmp_path):
            ex.run_stage(_units(3))
        evs = EventLog(tmp_path).read(kinds={"queue.grab"})
        assert evs
        assert all(e["device"] == "sequential" for e in evs)


class TestVirtualClockBridge:
    def _clocks(self):
        trace = WorkTrace()
        stage = trace.new_stage("dijkstra")
        for i in range(8):
            stage.add(1000.0 * (i + 1), 4)
        platform = Platform.heterogeneous()
        simulate_trace(trace, platform, record_samples=True)
        return {d.name: d.clock for d in platform.devices}

    def test_record_samples_flag(self):
        clocks = self._clocks()
        assert any(c.samples for c in clocks.values())

    def test_virtual_tracks_render_under_synthetic_pid(self):
        clocks = self._clocks()
        evs = virtual_clock_events(clocks)
        assert all(e["pid"] == VIRTUAL_PID for e in evs)
        names = {
            e["args"]["name"] for e in evs
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {f"virtual {n}" for n in clocks}
        xs = [e for e in evs if e["ph"] == "X"]
        assert xs
        for e in xs:
            assert e["cat"] == "virtual"
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_merged_chrome_trace_validates(self):
        col = TraceCollector()
        doc = chrome_trace(col, clocks=self._clocks())
        assert validate_chrome_trace(doc) == []
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert VIRTUAL_PID in pids

    def test_raw_sample_lists_accepted(self):
        from repro.hetero.timing import ClockSample

        evs = virtual_clock_events({"dev": [ClockSample("k", 0.0, 1.0)]})
        assert any(e["ph"] == "X" and e["name"] == "k" for e in evs)

    def test_without_clocks_no_virtual_tracks(self):
        doc = chrome_trace(TraceCollector())
        assert VIRTUAL_PID not in {e.get("pid") for e in doc["traceEvents"]}
