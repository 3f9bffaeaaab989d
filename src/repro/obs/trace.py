"""Nested wall-clock spans with near-zero overhead when disabled.

Design constraints, in order:

1. **Disabled is free.**  Instrumented hot paths call ``span(...)`` per
   chunk / per phase; with no collector installed that call is one
   module-global read, one ``is None`` test, and the return of a shared
   singleton — no allocation, no clock read, no dict work.  The same
   singleton is returned for every disabled span, which the test-suite
   uses to assert the no-allocation property.
2. **Exception safe.**  A span that exits via an exception is still
   recorded (tagged ``error=<ExceptionType>``), and the thread-local
   stack is unwound exactly once, so a crashing phase never corrupts the
   nesting of its siblings.
3. **Cross-process stitchable.**  Spans carry ``pid``/``tid`` and a
   monotonic timestamp (``time.perf_counter_ns``, CLOCK_MONOTONIC on
   Linux — shared by every process on the host), so worker-recorded
   spans can be shipped back over a pool boundary and merged into the
   parent trace as per-worker tracks (:meth:`TraceCollector.ingest`).

Enablement is either programmatic (the :func:`tracing` context manager)
or ambient via ``REPRO_TRACE``: any truthy value installs a process-wide
collector at import time; a value that looks like a path additionally
writes the Chrome trace there at interpreter exit.

:func:`phase` is the one timer for the paper's Section 2.4 phases: a span,
the memory delta under ``memory_profiling()`` and the ``phase.start`` /
``phase.finish`` events, each recorded only while its own layer is armed.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from dataclasses import dataclass, field

from . import events as _events
from . import memory as _memory

__all__ = [
    "Span",
    "TraceCollector",
    "phase",
    "span",
    "tracing",
    "tracing_enabled",
    "current_collector",
]

_FALSY = {"", "0", "false", "no", "off"}


@dataclass(frozen=True)
class Span:
    """One finished span (a closed interval of wall time)."""

    name: str
    cat: str
    start_ns: int  # perf_counter_ns at entry
    dur_ns: int
    pid: int
    tid: int
    depth: int  # nesting depth within its thread at record time
    args: dict = field(default_factory=dict)

    def to_tuple(self) -> tuple:
        """Compact picklable form for crossing process boundaries."""
        return (self.name, self.cat, self.start_ns, self.dur_ns,
                self.pid, self.tid, self.depth, self.args)

    @staticmethod
    def from_tuple(t: tuple) -> "Span":
        return Span(name=t[0], cat=t[1], start_ns=t[2], dur_ns=t[3],
                    pid=t[4], tid=t[5], depth=t[6], args=t[7])


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager recording one span into a collector."""

    __slots__ = ("_col", "_name", "_cat", "_args", "_t0")

    def __init__(self, col: "TraceCollector", name: str, cat: str, args: dict) -> None:
        self._col = col
        self._name = name
        self._cat = cat
        self._args = args
        self._t0 = 0

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes to the span (shows up under ``args``)."""
        self._args.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._col._push()
        self._t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter_ns() - self._t0
        if exc_type is not None:
            self._args["error"] = exc_type.__name__
        self._col._record(self._name, self._cat, self._t0, dur, self._args)
        return False


class TraceCollector:
    """Accumulates finished spans; thread-safe, mergeable across processes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.t_origin_ns = time.perf_counter_ns()
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- recording ----------------------------------------------------- #

    def _depth(self) -> int:
        return getattr(self._tls, "depth", 0)

    def _push(self) -> None:
        self._tls.depth = self._depth() + 1

    def _record(self, name: str, cat: str, t0: int, dur: int, args: dict) -> None:
        depth = self._depth()
        self._tls.depth = depth - 1
        sp = Span(
            name=name,
            cat=cat,
            start_ns=t0,
            dur_ns=dur,
            pid=os.getpid(),
            tid=threading.get_ident(),
            depth=depth - 1,
            args=args,
        )
        with self._lock:
            self.spans.append(sp)

    def ingest(self, payload: list[tuple]) -> None:
        """Merge spans exported by another process (see :meth:`export_spans`).

        Spans keep their own ``pid``/``tid``, which the Chrome export maps
        to separate tracks — this is how the parallel backend's per-worker
        activity is stitched into the parent trace.
        """
        incoming = [Span.from_tuple(t) for t in payload]
        with self._lock:
            self.spans.extend(incoming)

    def export_spans(self) -> list[tuple]:
        """Picklable span payload for shipping across a process boundary."""
        with self._lock:
            return [s.to_tuple() for s in self.spans]

    # -- views --------------------------------------------------------- #

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        with self._lock:
            for s in self.spans:
                out.setdefault(s.name, []).append(s)
        return out

    def total_ns(self, name: str) -> int:
        """Summed duration of every span named ``name``."""
        with self._lock:
            return sum(s.dur_ns for s in self.spans if s.name == name)

    def span_tree(self) -> list[dict]:
        """Spans nested by containment, per ``(pid, tid)`` track.

        Returns a list of root nodes ``{"span": Span, "children": [...]}``
        sorted by start time.  Containment is computed from intervals, so
        ingested cross-process spans nest correctly inside their track.
        """
        with self._lock:
            spans = sorted(self.spans, key=lambda s: (s.pid, s.tid, s.start_ns, -s.dur_ns))
        roots: list[dict] = []
        stack: list[dict] = []
        track: tuple[int, int] | None = None
        for s in spans:
            node = {"span": s, "children": []}
            if (s.pid, s.tid) != track:
                track = (s.pid, s.tid)
                stack = []
            while stack and not _contains(stack[-1]["span"], s):
                stack.pop()
            if stack:
                stack[-1]["children"].append(node)
            else:
                roots.append(node)
            stack.append(node)
        roots.sort(key=lambda nd: nd["span"].start_ns)
        return roots

    # -- export (delegates) -------------------------------------------- #

    def chrome_trace(self) -> dict:
        from .export import chrome_trace

        return chrome_trace(self)

    def write_chrome(self, path: str, clocks: dict | None = None) -> str:
        from .export import write_chrome_trace

        return write_chrome_trace(self, path, clocks=clocks)


def _contains(outer: Span, inner: Span) -> bool:
    return (
        outer.start_ns <= inner.start_ns
        and inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
    )


# --------------------------------------------------------------------- #
# Module-global enablement
# --------------------------------------------------------------------- #

_collector: TraceCollector | None = None
_collector_lock = threading.Lock()


def current_collector() -> TraceCollector | None:
    """The active collector, or ``None`` while tracing is disabled."""
    return _collector


def tracing_enabled() -> bool:
    """True when a collector is installed (env knob or :func:`tracing`)."""
    return _collector is not None


def span(name: str, cat: str = "repro", **args):
    """Start a span; returns a context manager.

    The disabled path is the hot-path contract: one global read, one
    comparison, and the shared :data:`_NULL_SPAN` singleton — callers may
    sprinkle spans on per-chunk loops without measurable cost.
    """
    col = _collector
    if col is None:
        return _NULL_SPAN
    return _LiveSpan(col, name, cat, args)


class _LivePhase:
    """A :func:`phase` with at least one of its three layers armed."""

    __slots__ = ("_span", "_emitting", "_prof", "_mem_name", "_mem_before")

    def __init__(self, name: str, cat: str, attrs: dict, prof) -> None:
        self._span = span(name, cat, **attrs)
        fields = {"phase": name, "cat": cat}
        if "stage" in attrs:
            fields["stage"] = attrs["stage"]
        self._emitting = _events.emitting("phase", **fields)
        self._prof = prof
        self._mem_name = f"{cat}.{name}"
        self._mem_before = 0

    def __enter__(self) -> "_LivePhase":
        self._span.__enter__()
        if self._prof is not None:
            self._mem_before = self._prof._enter()
        self._emitting.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._emitting.__exit__(exc_type, exc, tb)
        if self._prof is not None:
            self._prof._exit(self._mem_name, self._mem_before)
        self._span.__exit__(exc_type, exc, tb)
        return False


def phase(name: str, cat: str, **attrs):
    """Time one paper phase (``preprocess`` / ``process`` / ``postprocess``).

    Records, each only while its layer is armed: the span ``name`` with
    ``attrs`` as args; the tracemalloc delta and peak as memory span
    ``<cat>.<name>`` inside a ``memory_profiling()`` block (never merely
    because tracemalloc is running); and ``phase.start`` / ``phase.finish``
    events carrying ``phase``, ``cat`` and ``stage``.  With none armed it
    returns the shared :data:`_NULL_SPAN`, the same hot-path contract as
    :func:`span`.
    """
    prof = _memory._profile
    if _collector is None and prof is None and _events._sink is None:
        return _NULL_SPAN
    return _LivePhase(name, cat, attrs, prof)


class tracing:
    """Install a fresh collector for the duration of a ``with`` block.

    Nestable: the previous collector (possibly the ``REPRO_TRACE``-installed
    ambient one) is restored on exit.  Yields the :class:`TraceCollector`,
    which stays readable after the block closes::

        with tracing() as tr:
            run_pipeline()
        tr.write_chrome("trace.json")
    """

    def __init__(self, collector: TraceCollector | None = None) -> None:
        self.collector = collector if collector is not None else TraceCollector()
        self._prev: TraceCollector | None = None

    def __enter__(self) -> TraceCollector:
        global _collector
        with _collector_lock:
            self._prev = _collector
            _collector = self.collector
        return self.collector

    def __exit__(self, *exc) -> bool:
        global _collector
        with _collector_lock:
            _collector = self._prev
        return False


def _install_from_env() -> None:
    """Arm the ambient collector when ``REPRO_TRACE`` is truthy.

    A value that is not a plain boolean flag is treated as an output path:
    the Chrome trace is written there at interpreter exit.  Worker
    processes inherit the variable, so their own ambient collectors arm
    automatically under both ``fork`` and ``spawn``.
    """
    global _collector
    val = os.environ.get("REPRO_TRACE", "")
    if val.strip().lower() in _FALSY:
        return
    col = TraceCollector()
    _collector = col
    if val.strip().lower() not in {"1", "true", "yes", "on"}:
        path = val.strip()

        def _dump() -> None:  # pragma: no cover - exercised via subprocess
            if len(col):
                col.write_chrome(path)

        atexit.register(_dump)


_install_from_env()
