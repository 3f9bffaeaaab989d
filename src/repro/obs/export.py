"""Chrome ``trace_event`` export, its loader, and the self-time summary.

The Chrome trace format (the JSON consumed by ``chrome://tracing`` and
https://ui.perfetto.dev) wants complete events (``"ph": "X"``) with
microsecond timestamps plus optional metadata events naming each
process/thread track.  Span timestamps are re-based to the collector's
origin so traces start near zero, and every distinct ``(pid, tid)`` pair
becomes its own named track.

:func:`validate_chrome_trace` is the schema check the test-suite (and any
downstream consumer) runs against emitted files.  :func:`summary` answers
"where did the time go" for the paper's Section 2.4 phase accounting: one
count / wall / self table per track, plus the counter table from
:mod:`repro.obs.metrics`.  :func:`load_chrome_trace` turns any recorded
trace back into a collector, so ``repro-bench profile`` (live) and
``repro-bench critpath --trace`` (recorded) print the same table.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hetero.timing import VirtualClock
    from .trace import TraceCollector

__all__ = [
    "VIRTUAL_PID",
    "chrome_trace",
    "virtual_clock_events",
    "write_chrome_trace",
    "validate_chrome_trace",
    "load_chrome_trace",
    "self_times",
    "traced_window",
    "summary",
]

#: Synthetic pid under which simulated-platform device clocks render as
#: tracks.  Far above any real pid (kernel pid_max is < 2^22), so virtual
#: tracks can never collide with a real pid track.
VIRTUAL_PID = 9_999_999


def virtual_clock_events(
    clocks: "dict[str, VirtualClock | list]", pid: int = VIRTUAL_PID
) -> list[dict]:
    """Per-device Chrome tracks from simulated-platform virtual clocks.

    ``clocks`` maps device name to a :class:`~repro.hetero.timing.
    VirtualClock` (recorded with ``record_samples=True``) or directly to a
    list of :class:`~repro.hetero.timing.ClockSample`.  Each device
    becomes a thread track under one synthetic "virtual platform"
    process, every accounted interval a complete event — so a
    trace-replay's queue dynamics (Figures 5/6) render next to the real
    pid tracks of the same Chrome trace.  Virtual seconds map to trace
    microseconds 1:1 starting at zero.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "virtual platform"}}
    ]
    for tid, (name, clk) in enumerate(sorted(clocks.items())):
        samples = getattr(clk, "samples", clk)
        events.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": f"virtual {name}"}}
        )
        for s in samples:
            events.append(
                {
                    "name": s.label or name,
                    "cat": "virtual",
                    "ph": "X",
                    "ts": s.start * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": pid,
                    "tid": tid,
                    "args": {"device": name},
                }
            )
    return events


def chrome_trace(collector: "TraceCollector", clocks: dict | None = None) -> dict:
    """The collector's spans as a Chrome ``trace_event`` JSON object.

    ``clocks`` optionally merges simulated-platform device tracks (see
    :func:`virtual_clock_events`) into the same document, so one trace
    carries both the real run and its virtual-platform replay.
    """
    origin = collector.t_origin_ns
    events: list[dict] = []
    tracks: set[tuple[int, int]] = set()
    pids: set[int] = set()
    for s in sorted(collector.spans, key=lambda s: s.start_ns):
        tracks.add((s.pid, s.tid))
        pids.add(s.pid)
        ev = {
            "name": s.name,
            "cat": s.cat,
            "ph": "X",
            "ts": (s.start_ns - origin) / 1e3,  # microseconds
            "dur": s.dur_ns / 1e3,
            "pid": s.pid,
            "tid": s.tid,
        }
        if s.args:
            ev["args"] = s.args
        events.append(ev)
    meta: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "repro"}}
        for pid in sorted(pids)
    ]
    for pid, tid in sorted(tracks):
        label = collector.track_names.get((pid, tid), f"tid {tid}")
        meta.append(
            {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": label}}
        )
    virtual = virtual_clock_events(clocks) if clocks else []
    return {"traceEvents": meta + events + virtual, "displayTimeUnit": "ms"}


def write_chrome_trace(
    collector: "TraceCollector", path: str, clocks: dict | None = None
) -> str:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(collector, clocks=clocks), fh, indent=1)
        fh.write("\n")
    return path


def validate_chrome_trace(doc: dict) -> list[str]:
    """Schema-check a trace document; returns a list of problems (empty = valid).

    Checks the subset of the ``trace_event`` spec the viewers actually
    require: a ``traceEvents`` array, per-event ``name``/``ph``/``pid``/
    ``tid``, non-negative numeric ``ts``/``dur`` on complete events, and
    JSON-serializable ``args``.
    """
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        for key in ("name", "ph", "pid", "tid"):
            if key not in ev:
                problems.append(f"event {i}: missing {key!r}")
        ph = ev.get("ph")
        if ph not in {"X", "M", "B", "E", "i", "C"}:
            problems.append(f"event {i}: unknown phase {ph!r}")
        if ph == "X":
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)) or v < 0:
                    problems.append(f"event {i}: bad {key}={v!r}")
        if "args" in ev:
            try:
                json.dumps(ev["args"])
            except TypeError:
                problems.append(f"event {i}: args not JSON-serializable")
    return problems


def _union_len_ns(intervals: "list[tuple[int, int]]") -> int:
    """Total length of the union of (possibly overlapping) intervals."""
    total = 0
    hi: int | None = None
    for lo, end in sorted(intervals):
        if hi is None or lo > hi:
            total += end - lo
            hi = end
        elif end > hi:
            total += end - hi
            hi = end
    return total


def load_chrome_trace(doc: dict) -> "TraceCollector":
    """A recorded Chrome trace as a collector, ready for :func:`summary`.

    Reads complete (``"X"``) events only, skips the :data:`VIRTUAL_PID`
    device tracks (virtual seconds are not wall clock), converts
    microseconds back to integer nanoseconds, and keeps each track's
    ``thread_name`` as its label.  Depth is not recorded in the format,
    so every loaded span has depth 0; :meth:`TraceCollector.span_tree`
    recovers nesting from the intervals.
    """
    from .trace import Span, TraceCollector

    col = TraceCollector()
    col.t_origin_ns = 0
    for ev in doc.get("traceEvents", []):
        if not isinstance(ev, dict) or ev.get("pid") == VIRTUAL_PID:
            continue
        track = (ev.get("pid"), ev.get("tid"))
        if ev.get("ph") == "M" and ev.get("name") == "thread_name":
            col.track_names[track] = str((ev.get("args") or {}).get("name", ""))
        elif ev.get("ph") == "X":
            col.spans.append(
                Span(
                    name=str(ev.get("name")),
                    cat=str(ev.get("cat", "")),
                    start_ns=round(ev["ts"] * 1e3),
                    dur_ns=round(ev["dur"] * 1e3),
                    pid=track[0],
                    tid=track[1],
                    depth=0,
                    args=ev.get("args") or {},
                )
            )
    return col


def _span_selfs(tree: "list[dict]"):
    """Every span of a span tree with its self time: ``(span, self_ns)``.

    Self time is a span's duration minus the *union* of its children's
    intervals (clipped to the span).  Union, not sum: a loaded trace may
    carry overlapping children on one track, and a plain subtraction would
    push the parent's self time negative.
    """
    stack = list(tree)
    while stack:
        node = stack.pop()
        s = node["span"]
        end = s.start_ns + s.dur_ns
        covered = _union_len_ns(
            [
                (
                    max(c["span"].start_ns, s.start_ns),
                    min(c["span"].start_ns + c["span"].dur_ns, end),
                )
                for c in node["children"]
            ]
        )
        yield s, max(0, s.dur_ns - covered)
        stack.extend(node["children"])


def self_times(collector: "TraceCollector") -> "dict[str, tuple[int, int]]":
    """Per span name: ``(count, self_ns)`` — exclusive time over the tree."""
    out: dict[str, tuple[int, int]] = {}
    for s, self_ns in _span_selfs(collector.span_tree()):
        cnt, tot = out.get(s.name, (0, 0))
        out[s.name] = (cnt + 1, tot + self_ns)
    return out


def traced_window(collector: "TraceCollector") -> "tuple[int, int]":
    """``(window_ns, covered_ns)``: first span start to last span end, and
    how much of that window the root spans cover (their union)."""
    roots = [(n["span"].start_ns, n["span"].start_ns + n["span"].dur_ns)
             for n in collector.span_tree()]
    if not roots:
        return 0, 0
    window = max(end for _, end in roots) - min(lo for lo, _ in roots)
    return window, _union_len_ns(roots)


def summary(collector: "TraceCollector", metrics: dict | None = None) -> str:
    """Where the time went: one self-time table per track, then counters.

    Per ``(pid, tid)`` track, every span name gets its count, wall time
    (summed durations) and self time (children removed; see
    :func:`self_times`), both summed over the same spans, so self never
    exceeds wall.  ``% total`` is self time as a share of the track's
    root-span time, so each track's column adds up to 100%.  Tracks are
    labelled by ``collector.track_names`` (a loaded trace's
    ``thread_name``), else ``tid <tid>`` as :func:`chrome_trace` names
    them.  Pass ``metrics=obs.snapshot()`` to append counters.
    """
    tree = collector.span_tree()
    tracks: dict[tuple, dict] = {}
    for node in tree:
        s = node["span"]
        t = tracks.setdefault((s.pid, s.tid), {"roots": 0, "root_ns": 0, "rows": {}})
        t["roots"] += 1
        t["root_ns"] += s.dur_ns
    for s, self_ns in _span_selfs(tree):
        rows = tracks[(s.pid, s.tid)]["rows"]
        cnt, wall, own = rows.get(s.name, (0, 0, 0))
        rows[s.name] = (cnt + 1, wall + s.dur_ns, own + self_ns)
    lines: list[str] = []
    if not tracks:
        lines.append("no spans recorded")
    for (pid, tid), t in sorted(tracks.items()):
        label = collector.track_names.get((pid, tid), f"tid {tid}")
        root_ns = t["root_ns"]
        if lines:
            lines.append("")
        lines.append(
            f"{label} (pid {pid}): {t['roots']} root span(s), "
            f"{root_ns / 1e6:.3f} ms"
        )
        lines.append(
            f"{'span':<32} {'count':>7} {'wall ms':>12} {'self ms':>12} "
            f"{'% total':>8}"
        )
        lines.append("-" * 75)
        for name, (cnt, wall, own) in sorted(
            t["rows"].items(), key=lambda kv: (-kv[1][2], kv[0])
        ):
            pct = 100.0 * own / root_ns if root_ns else 0.0
            lines.append(
                f"{name:<32} {cnt:>7} {wall / 1e6:>12.3f} {own / 1e6:>12.3f} "
                f"{pct:>7.1f}%"
            )
    if metrics:
        lines.append("")
        lines.append(f"{'metric':<44} {'value':>12}")
        lines.append("-" * 58)
        for name, val in metrics.items():
            if isinstance(val, dict):  # histogram
                val = (
                    f"n={val['count']} sum={val['sum']:.6g}"
                    if val.get("count")
                    else "n=0"
                )
                lines.append(f"{name:<44} {val:>12}")
            elif isinstance(val, float):
                lines.append(f"{name:<44} {val:>12.4f}")
            else:
                lines.append(f"{name:<44} {val:>12}")
    return "\n".join(lines)
