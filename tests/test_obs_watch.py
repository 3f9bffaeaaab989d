"""repro.obs.watch: stall detection semantics and hang detection.

The integration test arms the ``worker.hang`` fault with a deterministic
spec and asserts the watchdog flags the stall (``watch.stalls``,
``engine.stall_detected``) *before* the dispatch timeout degrades the
engine — the liveness gap the watchdog exists to close.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np
import pytest

from repro.graph import grid_graph
from repro.obs import metrics as _metrics
from repro.obs.events import EventLog, EventSink, events_to
from repro.obs.watch import (
    DEFAULT_STALL_AFTER,
    Watchdog,
    heartbeats_from_events,
    resolve_stall_after,
)


class TestResolveStallAfter:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WATCH_STALL", raising=False)
        assert resolve_stall_after() == DEFAULT_STALL_AFTER

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCH_STALL", "9.0")
        assert resolve_stall_after(1.5) == 1.5

    def test_env_beats_timeout(self, monkeypatch):
        monkeypatch.setenv("REPRO_WATCH_STALL", "0.25")
        assert resolve_stall_after(None, timeout=10.0) == 0.25

    def test_timeout_derived_half(self, monkeypatch):
        # Detection must precede the timeout's pool teardown.
        monkeypatch.delenv("REPRO_WATCH_STALL", raising=False)
        assert resolve_stall_after(None, timeout=3.0) == 1.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_stall_after(0.0)


class TestWatchdogCheck:
    def test_fresh_beats_never_stall(self):
        now = time.perf_counter_ns()
        beats = {7: now}
        wd = Watchdog(lambda: beats, stall_after=1.0, since_ns=0)
        assert wd.check(now_ns=now + int(0.5e9)) == []
        assert wd.stalled == {}

    def test_stale_beat_stalls_once_per_episode(self):
        stalls = _metrics.counter("watch.stalls")
        before = stalls.value
        now = time.perf_counter_ns()
        beats = {7: now}
        wd = Watchdog(lambda: beats, stall_after=1.0, since_ns=0)
        late = now + int(2e9)
        assert wd.check(now_ns=late) == [7]
        assert wd.check(now_ns=late + 1) == []  # same episode: counted once
        assert stalls.value == before + 1
        # A fresh beat clears the episode; going stale again re-counts.
        beats[7] = late
        assert wd.check(now_ns=late + int(0.1e9)) == []
        assert 7 not in wd.stalled
        assert wd.check(now_ns=late + int(3e9)) == [7]
        assert stalls.value == before + 2

    def test_ignores_beats_before_arming(self):
        # A shared event dir carries beats from earlier dispatches; they
        # must not produce phantom stalls for this watchdog.
        old_beat = 100
        wd = Watchdog(lambda: {7: old_beat}, stall_after=0.001, since_ns=10_000)
        assert wd.check(now_ns=20_000_000_000) == []

    def test_stall_emits_event(self, tmp_path):
        now = time.perf_counter_ns()
        with events_to(tmp_path):
            wd = Watchdog(lambda: {7: now}, stall_after=1.0, since_ns=0)
            wd.check(now_ns=now + int(5e9))
        evs = EventLog(tmp_path).read(kinds={"engine.stall_detected"})
        assert len(evs) == 1
        assert evs[0]["worker"] == 7
        assert evs[0]["heartbeat_age_s"] > 1.0

    def test_thread_lifecycle(self):
        wd = Watchdog(lambda: {}, stall_after=1.0, poll_interval=0.01)
        with wd:
            time.sleep(0.05)
        assert wd.checks >= 1
        assert wd._thread is None


class TestHeartbeatsFromEvents:
    def test_latest_beat_per_pid(self, tmp_path):
        sink = EventSink(tmp_path)
        sink.emit("worker.heartbeat", status="chunk_start")
        sink.emit("worker.heartbeat", status="chunk_done")
        sink.emit("queue.grab", batch=1)  # other kinds ignored
        sink.close()
        read = heartbeats_from_events(tmp_path)
        beats = read()
        assert set(beats) == {os.getpid()}
        evs = EventLog(tmp_path).read(kinds={"worker.heartbeat"})
        assert beats[os.getpid()] == evs[-1]["ts_ns"]

    def test_empty_dir(self, tmp_path):
        assert heartbeats_from_events(tmp_path / "nope")() == {}


class TestHangDetectionIntegration:
    def test_watchdog_flags_hang_before_timeout(self, tmp_path, monkeypatch):
        """An injected worker hang is detected mid-dispatch, before the
        timeout fires the serial degradation, and the degraded result is
        still bit-identical to the serial engine."""
        from repro.hetero.parallel import ParallelEngine
        from repro.qa.faultinject import inject_worker_hang
        from repro.sssp import engine as serial_engine

        # Deterministic seeds: hang 30s (forever at test scale), flag
        # stalls at 0.3s, time the dispatch out at 1.5s.
        monkeypatch.setenv("REPRO_WATCH_STALL", "0.3")
        stalls = _metrics.counter("watch.stalls")
        before = stalls.value
        g = grid_graph(6, 7)
        sources = np.arange(16, dtype=np.int64)
        with events_to(tmp_path), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with inject_worker_hang(30.0):
                with ParallelEngine(g, workers=2, chunk_size=8, timeout=1.5) as eng:
                    if not eng.is_parallel:
                        pytest.skip("no process pool in this sandbox")
                    dist = eng.multi_source(sources)
        np.testing.assert_array_equal(
            dist, serial_engine.multi_source(g, sources)
        )
        assert stalls.value > before
        evs = EventLog(tmp_path).read()
        stall_evs = [e for e in evs if e["kind"] == "engine.stall_detected"]
        degraded = [e for e in evs if e["kind"] == "engine.degraded"]
        fired = [e for e in evs if e["kind"] == "fault.fired"]
        assert stall_evs and degraded and fired
        assert fired[0]["site"] == "worker.hang"
        # The whole point: detection strictly precedes degradation.
        assert stall_evs[0]["ts_ns"] < degraded[0]["ts_ns"]
