"""Structured event stream: per-pid JSONL shards + tolerant merged reader.

Spans (:mod:`repro.obs.trace`) answer "how long did each phase take";
events answer "what happened, in what order, across every process" — the
runtime dynamics the paper's heterogeneous story is built on (the
double-ended queue grabs of Indarapu et al., device occupancy, phase
transitions).  Each event is one small JSON object appended to a
per-process shard file, so a run can be read while it executes and
reconstructed afterwards (``repro-bench report``).

Design constraints, mirroring the rest of ``repro.obs``:

1. **Disabled is free.**  With ``REPRO_EVENTS`` unset there is no sink:
   :func:`emit` is one module-global read and an ``is None`` test, and
   hot loops guard with :func:`enabled` so not even an argument dict is
   built.  The test-suite pins this with the same tracemalloc budget as
   the trace null span.
2. **Multi-process safe by construction.**  Every process writes only its
   own shard (``events-<pid>.jsonl``), opened ``O_APPEND`` and written as
   one ``os.write`` per line — no cross-process locks, no interleaved
   partial lines.  A forked child notices the pid change and re-opens
   its own shard; a spawned child re-arms from the inherited environment
   variable.
3. **Tolerant reader.**  :class:`EventLog` merges every shard, skipping
   (and counting) malformed or future-schema lines — the same
   old-reader/new-writer contract as :mod:`repro.obs.ledger`.
4. **Bounded.**  Emission sites are per *chunk / grab / phase*, never per
   edge, and each shard stops (counting drops) at
   :data:`MAX_EVENTS_PER_SHARD` as a runaway backstop.

Event schema (one JSON object per line)::

    {"v": 1, "seq": 17, "ts_ns": 123456789, "pid": 4242,
     "kind": "queue.grab", ...kind-specific fields...}

``ts_ns`` is ``time.perf_counter_ns()`` — CLOCK_MONOTONIC on Linux, one
clock for every process on the host, directly comparable with trace-span
timestamps.  See ``docs/OBSERVABILITY.md`` for the kind catalogue.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

__all__ = [
    "EVENT_SCHEMA_VERSION",
    "MAX_EVENTS_PER_SHARD",
    "EventSink",
    "EventLog",
    "emit",
    "emitting",
    "enabled",
    "current_sink",
    "events_to",
]

#: Bump when a reader would misinterpret older events.  Readers accept
#: events with ``v <= EVENT_SCHEMA_VERSION`` and skip newer ones.
EVENT_SCHEMA_VERSION = 1

#: Per-shard hard cap — a runaway emission loop degrades to counted drops,
#: never an unbounded file.
MAX_EVENTS_PER_SHARD = 200_000

_FALSY = {"", "0", "false", "no", "off"}
_FLAGGY = {"1", "true", "yes", "on"}

#: Directory used when ``REPRO_EVENTS`` is a bare flag rather than a path.
DEFAULT_EVENTS_DIR = "repro-events"


class EventSink:
    """Appends events to this process's shard under one directory.

    The shard file (``events-<pid>.jsonl``) is opened lazily on first
    emit *in the emitting process*: a child process — fork and spawn
    alike — therefore writes its own shard, keyed by its own pid, and the
    parent's shard is never shared.  Each line is a single ``O_APPEND``
    ``os.write``, so even threads racing within one process never
    interleave partial lines.
    """

    def __init__(self, dir_path: str | os.PathLike) -> None:
        self.dir = Path(dir_path)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.dropped = 0
        self._fd: int | None = None
        self._fd_pid: int | None = None
        self._seq = 0
        self._lock = threading.Lock()

    def shard_path(self, pid: int | None = None) -> Path:
        return self.dir / f"events-{pid if pid is not None else os.getpid()}.jsonl"

    def _ensure_fd(self, pid: int) -> int:
        if self._fd is None or self._fd_pid != pid:
            if self._fd is not None:
                # Forked child: drop the inherited descriptor (its copy
                # only; the parent's stays open) and start a fresh shard.
                try:
                    os.close(self._fd)
                except OSError:  # pragma: no cover - already closed
                    pass
            self._fd = os.open(
                self.shard_path(pid), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
            )
            self._fd_pid = pid
            self._seq = 0
        return self._fd

    def emit(self, kind: str, **fields) -> None:
        """Append one event (schema-stamped, timestamped) to this pid's shard."""
        pid = os.getpid()
        with self._lock:
            if self._seq >= MAX_EVENTS_PER_SHARD:
                self.dropped += 1
                return
            doc = {
                "v": EVENT_SCHEMA_VERSION,
                "seq": self._seq,
                "ts_ns": time.perf_counter_ns(),
                "pid": pid,
                "kind": kind,
            }
            # The envelope always wins: a payload field that collides with
            # a schema key (a query endpoint named ``v``, a worker field
            # named ``pid``) is dropped rather than allowed to corrupt the
            # envelope and get the whole line skipped by the reader.
            for key, val in fields.items():
                doc.setdefault(key, val)
            line = json.dumps(doc, separators=(",", ":"), default=str) + "\n"
            os.write(self._ensure_fd(pid), line.encode())
            self._seq += 1

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:  # pragma: no cover - already closed
                    pass
                self._fd = None
                self._fd_pid = None


class EventLog:
    """Tolerant merged reader over every shard in an event directory.

    ``skipped`` counts lines the last :meth:`read` could not interpret
    (corrupt JSON, missing fields, future schema) — reported, never
    fatal, so an old checkout can read a stream written by a newer one
    and a live reader can race the writers safely.

    ``clamped`` counts events whose ``ts_ns`` ran *backwards* within
    their own shard.  ``perf_counter_ns`` is monotonic per host, but a
    shard copied from another machine (or a VM suspend/resume) can carry
    skewed clocks; a backwards step inside one pid's append-ordered file
    is physically impossible, so the reader clamps the timestamp up to
    the shard's running maximum and flags the event ``ts_clamped`` —
    making the merged stream honestly ordered instead of silently
    interleaving skewed shards wrongly.
    """

    def __init__(self, dir_path: str | os.PathLike) -> None:
        self.dir = Path(dir_path)
        self.skipped = 0
        self.clamped = 0

    def shards(self) -> list[Path]:
        if not self.dir.is_dir():
            return []
        return sorted(self.dir.glob("events-*.jsonl"))

    def read(self, kinds: set[str] | None = None) -> list[dict]:
        """Every parseable event, merged across shards, in timestamp order.

        Within each shard, file order is emission order (O_APPEND), so a
        timestamp below the shard's running maximum is clamped to it and
        the event gains ``ts_clamped: True`` — clamping runs before any
        ``kinds`` filter so skew tracking sees every event.
        """
        self.skipped = 0
        self.clamped = 0
        out: list[dict] = []
        for shard in self.shards():
            try:
                with open(shard) as fh:
                    lines = fh.readlines()
            except OSError:  # pragma: no cover - shard vanished mid-read
                continue
            high = None  # running max ts_ns of this shard, in file order
            for line in lines:
                line = line.strip()
                if not line:
                    continue
                try:
                    ev = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped += 1
                    continue
                if not self._valid(ev):
                    self.skipped += 1
                    continue
                if high is not None and ev["ts_ns"] < high:
                    ev["ts_ns"] = high
                    ev["ts_clamped"] = True
                    self.clamped += 1
                else:
                    high = ev["ts_ns"]
                if kinds is None or ev["kind"] in kinds:
                    out.append(ev)
        out.sort(key=lambda e: (e["ts_ns"], e["pid"], e.get("seq", 0)))
        return out

    @staticmethod
    def _valid(ev) -> bool:
        if not isinstance(ev, dict):
            return False
        v = ev.get("v")
        if not isinstance(v, int) or v > EVENT_SCHEMA_VERSION:
            return False
        return (
            isinstance(ev.get("kind"), str)
            and isinstance(ev.get("ts_ns"), int)
            and isinstance(ev.get("pid"), int)
        )

    def kinds(self) -> dict[str, int]:
        """Event count per kind (one full read)."""
        out: dict[str, int] = {}
        for ev in self.read():
            out[ev["kind"]] = out.get(ev["kind"], 0) + 1
        return out


# --------------------------------------------------------------------- #
# Module-global enablement (the hot-path contract)
# --------------------------------------------------------------------- #

_sink: EventSink | None = None
_sink_lock = threading.Lock()


def current_sink() -> EventSink | None:
    """The active sink, or ``None`` while event emission is disabled."""
    return _sink


def enabled() -> bool:
    """True when a sink is installed.

    Hot loops guard with this so a disabled run does not even build the
    event's field dict: one module-global read, one ``is None`` test.
    """
    return _sink is not None


def emit(kind: str, **fields) -> None:
    """Emit one event if a sink is installed; a no-op otherwise."""
    sink = _sink
    if sink is None:
        return
    sink.emit(kind, **fields)


class _NullEmitting:
    """Shared no-op context manager returned while events are disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullEmitting":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_EMITTING = _NullEmitting()


class _LiveEmitting:
    """Emits ``<kind>.start`` on entry and ``<kind>.finish`` on exit.

    The finish event carries ``dur_ns`` and, when the block raised,
    ``error=<ExceptionType>`` — so a crashed phase is visible in the
    stream, mirroring the trace layer's exception tagging.
    """

    __slots__ = ("_sink", "_kind", "_fields", "_t0")

    def __init__(self, sink: EventSink, kind: str, fields: dict) -> None:
        self._sink = sink
        self._kind = kind
        self._fields = fields
        self._t0 = 0

    def __enter__(self) -> "_LiveEmitting":
        self._t0 = time.perf_counter_ns()
        self._sink.emit(f"{self._kind}.start", **self._fields)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter_ns() - self._t0
        if exc_type is not None:
            self._fields["error"] = exc_type.__name__
        self._sink.emit(f"{self._kind}.finish", dur_ns=dur, **self._fields)
        return False


def emitting(kind: str, **fields):
    """Bracket a block with ``<kind>.start`` / ``<kind>.finish`` events.

    Disabled mode returns the shared null singleton (no allocation beyond
    the transient call frame); the pipeline runners use this for their
    Section 2.4 phase transitions.
    """
    sink = _sink
    if sink is None:
        return _NULL_EMITTING
    return _LiveEmitting(sink, kind, fields)


def _resolve_dir(val: str) -> str | None:
    """Map a ``REPRO_EVENTS`` value to an event directory (or None)."""
    val = val.strip()
    if val.lower() in _FALSY:
        return None
    if val.lower() in _FLAGGY:
        return DEFAULT_EVENTS_DIR
    return val


class events_to:
    """Install an :class:`EventSink` on ``dir_path`` for a ``with`` block.

    Also exports ``REPRO_EVENTS=<dir>`` for the duration, so child
    processes started under the ``spawn`` method (which re-import rather
    than inherit globals) arm their own sinks on the same directory.
    Nestable; the previous sink and environment value are restored on
    exit.  Yields the sink (``sink.dir`` is the directory to read back).
    """

    def __init__(self, dir_path: str | os.PathLike) -> None:
        self.sink = EventSink(dir_path)
        self._prev: EventSink | None = None
        self._prev_env: str | None = None

    def __enter__(self) -> EventSink:
        global _sink
        with _sink_lock:
            self._prev = _sink
            _sink = self.sink
        self._prev_env = os.environ.get("REPRO_EVENTS")
        os.environ["REPRO_EVENTS"] = str(self.sink.dir)
        return self.sink

    def __exit__(self, *exc) -> bool:
        global _sink
        with _sink_lock:
            _sink = self._prev
        if self._prev_env is None:
            os.environ.pop("REPRO_EVENTS", None)
        else:
            os.environ["REPRO_EVENTS"] = self._prev_env
        self.sink.close()
        return False


def _install_from_env() -> None:
    """Arm the ambient sink when ``REPRO_EVENTS`` is truthy.

    A bare flag value (``1``/``true``/...) writes shards under
    ``repro-events/``; anything else is the directory path.  Child
    processes inherit the variable, so their sinks arm automatically
    under both ``fork`` and ``spawn``.
    """
    global _sink
    d = _resolve_dir(os.environ.get("REPRO_EVENTS", ""))
    if d is None:
        return
    _sink = EventSink(d)


_install_from_env()
