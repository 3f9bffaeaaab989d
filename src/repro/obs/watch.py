"""Stall watchdog over the structured event stream.

The parallel backend's only liveness defence used to be the blunt
``REPRO_PARALLEL_TIMEOUT`` on a whole dispatch: a single hung worker was
invisible until the entire fan-out expired.  The watchdog closes that gap
by consuming the ``worker.heartbeat`` events of
:mod:`repro.obs.events` — a worker whose last heartbeat is older than
``stall_after`` seconds is flagged *while the dispatch is still in
flight*, counted on ``watch.stalls``, and published as an
``engine.stall_detected`` event.  :class:`~repro.hetero.parallel.
ParallelEngine` runs one watchdog thread per dispatch whenever events are
enabled; the deterministic test path arms the ``worker.hang`` seam of
:mod:`repro.qa.faultinject` and asserts the stall is seen before the
dispatch timeout fires.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

from . import metrics as _metrics
from .events import EventLog, emit as _emit

__all__ = [
    "DEFAULT_STALL_AFTER",
    "DEFAULT_POLL_INTERVAL",
    "resolve_stall_after",
    "heartbeats_from_events",
    "Watchdog",
]

#: Heartbeat age (seconds) past which a worker counts as stalled when
#: neither ``REPRO_WATCH_STALL`` nor a dispatch timeout narrows it.
DEFAULT_STALL_AFTER = 5.0

#: Watchdog poll cadence (seconds).
DEFAULT_POLL_INTERVAL = 0.05

_C_STALLS = _metrics.counter("watch.stalls")
_C_CHECKS = _metrics.counter("watch.checks")
_G_WORKERS = _metrics.gauge("watch.workers")
_G_MAX_AGE = _metrics.gauge("watch.max_heartbeat_age_s")


def resolve_stall_after(
    stall_after: float | None = None, timeout: float | None = None
) -> float:
    """Effective stall threshold: argument > ``REPRO_WATCH_STALL`` > timeout-derived.

    With a dispatch ``timeout`` configured the default is half of it, so a
    hung worker is flagged *before* the timeout tears the pool down — the
    stall diagnosis then accompanies the degradation warning instead of
    arriving too late to matter.
    """
    if stall_after is None:
        env = os.environ.get("REPRO_WATCH_STALL", "").strip()
        if env:
            stall_after = float(env)
    if stall_after is None:
        stall_after = timeout / 2.0 if timeout else DEFAULT_STALL_AFTER
    if stall_after <= 0:
        raise ValueError(f"stall_after must be positive, got {stall_after}")
    return float(stall_after)


def heartbeats_from_events(dir_path) -> Callable[[], dict[int, int]]:
    """A heartbeat source reading ``worker.heartbeat`` events from a directory.

    Returns a callable producing ``{pid: last_heartbeat_ts_ns}``.  Reads
    go through the tolerant :class:`EventLog`, so racing live writers is
    safe (a torn final line is skipped, not fatal).
    """
    log = EventLog(dir_path)

    def read() -> dict[int, int]:
        out: dict[int, int] = {}
        for ev in log.read(kinds={"worker.heartbeat"}):
            ts = ev["ts_ns"]
            if ts > out.get(ev["pid"], 0):
                out[ev["pid"]] = ts
        return out

    return read


class Watchdog:
    """Flags workers whose last heartbeat is older than ``stall_after``.

    ``heartbeats`` is any zero-argument callable returning
    ``{worker_key: last_heartbeat_ts_ns}`` (perf-counter nanoseconds);
    :func:`heartbeats_from_events` builds one over an event directory.
    Heartbeats older than the watchdog's own start time are ignored, so a
    shared event directory carrying beats from earlier dispatches never
    produces phantom stalls.

    Use either programmatically (:meth:`check` once per poll — what the
    deterministic tests do) or as a daemon thread (:meth:`start` /
    :meth:`stop` — what :class:`~repro.hetero.parallel.ParallelEngine`
    does around each pool dispatch).  A worker is counted on
    ``watch.stalls`` once per stall episode: a fresh heartbeat clears it
    and a later stall counts again.
    """

    def __init__(
        self,
        heartbeats: Callable[[], dict[int, int]],
        stall_after: float | None = None,
        poll_interval: float = DEFAULT_POLL_INTERVAL,
        since_ns: int | None = None,
    ) -> None:
        self._heartbeats = heartbeats
        self.stall_after = resolve_stall_after(stall_after)
        self.poll_interval = float(poll_interval)
        self.since_ns = time.perf_counter_ns() if since_ns is None else int(since_ns)
        #: worker_key -> perf-counter ns at which the stall was detected.
        self.stalled: dict = {}
        self.checks = 0
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def check(self, now_ns: int | None = None) -> list:
        """One poll; returns the workers that *newly* stalled this poll."""
        beats = self._heartbeats()
        now = time.perf_counter_ns() if now_ns is None else now_ns
        self.checks += 1
        _C_CHECKS.inc()
        newly: list = []
        max_age = 0.0
        tracked = 0
        for key, ts in beats.items():
            if ts < self.since_ns:
                continue  # a beat from before this watchdog armed
            tracked += 1
            age = (now - ts) / 1e9
            if age > max_age:
                max_age = age
            if age > self.stall_after:
                if key not in self.stalled:
                    self.stalled[key] = now
                    _C_STALLS.inc()
                    newly.append(key)
                    _emit(
                        "engine.stall_detected",
                        worker=key,
                        heartbeat_age_s=age,
                        stall_after_s=self.stall_after,
                    )
            else:
                self.stalled.pop(key, None)
        _G_WORKERS.set(tracked)
        _G_MAX_AGE.set(max_age)
        return newly

    # -- thread lifecycle ---------------------------------------------- #

    def start(self) -> "Watchdog":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-watchdog", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.poll_interval):
            try:
                self.check()
            except Exception:  # pragma: no cover - racing reader, never fatal
                continue

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
