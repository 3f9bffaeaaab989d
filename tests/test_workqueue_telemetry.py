"""Work-queue telemetry: per-end and per-device grab counters.

Covers the queue's own grabs, the trace-replay simulator
(:func:`repro.hetero.trace.simulate_trace`) that drives it, and the
virtual-clock bridge that turns replay samples into Chrome-trace device
tracks.
"""

from __future__ import annotations

from _support import GrabRecorder

from repro.hetero.trace import Platform, WorkTrace, simulate_trace
from repro.hetero.workqueue import DequeWorkQueue, count_grabs
from repro.obs import metrics as _metrics
from repro.obs.export import (
    VIRTUAL_PID,
    chrome_trace,
    validate_chrome_trace,
    virtual_clock_events,
)
from repro.obs.trace import TraceCollector


def _units(n=6):
    return [(float(i + 1), 1) for i in range(n)]


class TestGrabCounters:
    def test_end_counters_and_device_units(self):
        front = _metrics.counter("queue.grabs.front")
        back = _metrics.counter("queue.grabs.back")
        dev = _metrics.counter("queue.device.testdev.units")
        f0, b0, d0 = front.value, back.value, dev.value
        q = DequeWorkQueue(_units(6))
        n = len(q.take(2, from_back=True)) + len(q.take(1, from_back=False))
        q.take(10, from_back=False)  # drains
        # Empty-queue grabs count nothing.
        assert q.take(4, from_back=True) == []
        count_grabs(q.grabs_front, q.grabs_back, {"testdev": n, "idle": 0})
        assert back.value == b0 + 1
        assert front.value == f0 + 2
        assert dev.value == d0 + 3  # 2 back + 1 front units for testdev
        assert "queue.device.idle.units" not in _metrics.snapshot("queue.device.idle")

    def test_batch_histogram_observes(self):
        hist = _metrics.histogram("queue.grab.batch")
        n0 = hist.count
        DequeWorkQueue(_units(4)).take(3, from_back=True)
        assert hist.count == n0 + 1


class TestSimulatedPath:
    def test_replay_attributes_grabs_to_device_names(self, monkeypatch):
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
        rec = GrabRecorder().install(monkeypatch)
        simulate_trace(trace, platform)
        grabbed = {
            name: c.value - before[name] for name, c in dev_counters.items()
        }
        assert sum(grabbed.values()) == 12  # every unit attributed
        assert {device for _, _, device, _ in rec.grabs} == set(dev_counters)
        # The [19] discipline: the GPU grabs from the big end (back),
        # the CPU from the small end (front).
        for end, _, device, _ in rec.grabs:
            assert end == ("back" if device == "gpu" else "front")

    def test_executor_run_stage_threads_device_name(self, monkeypatch):
        # One device: the race loop's single-device branch still names it.
        units = _metrics.counter("queue.device.sequential.units")
        before = units.value
        trace = WorkTrace()
        trace.new_stage("dijkstra").units = _units(3)
        rec = GrabRecorder().install(monkeypatch)
        simulate_trace(trace, Platform.sequential())
        assert rec.grabs
        assert all(device == "sequential" for _, _, device, _ in rec.grabs)
        assert units.value == before + 3


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

    def test_without_clocks_no_virtual_tracks(self):
        doc = chrome_trace(TraceCollector())
        assert VIRTUAL_PID not in {e.get("pid") for e in doc["traceEvents"]}
