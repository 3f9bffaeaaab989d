"""Critical-path attribution over recorded traces (``repro-bench critpath``).

The rest of :mod:`repro.obs` *records* what happened — spans, events,
counters.  This module answers the question those recordings exist for:
**which spans actually bound end-to-end latency, and what would make the
run faster?**  It is a pure offline analyzer: input is a recorded trace
(a live :class:`~repro.obs.trace.TraceCollector` or a Chrome
``trace_event`` document written by ``repro-bench profile``) plus,
optionally, the merged :mod:`repro.obs.events` stream for fault/degrade
annotations.

The analysis reconstructs the execution DAG and derives four views:

1. **Critical path** — the longest chain of causally-ordered spans from
   run start to run end.  Within one ``(pid, tid)`` track causality is
   interval containment (the same nesting :meth:`TraceCollector.span_tree`
   computes); across processes the ``parallel.worker_chunk`` spans link
   to their ``parallel.dispatch`` bracket through the ``dispatch``/
   ``chunk`` ids :mod:`repro.hetero.parallel` stamps on both sides (with
   an interval-containment fallback for traces recorded before the ids
   existed).  The path is found by a backward greedy sweep: starting at
   the window end, repeatedly step into the child that finished last,
   then continue from that child's start.  Each path node is attributed
   the time not covered by its own chosen children, so the per-entry
   contributions sum to the window length *exactly* — gaps no span covers
   surface as an explicit ``(untraced)`` entry rather than vanishing.
2. **Inclusive vs self time per span name** — inclusive sums raw
   durations; self subtracts the union of child intervals (union, not
   sum: parallel chunk children overlap inside their dispatch bracket),
   so nested spans stop double-counting.
3. **Per-worker / per-dispatch stats** — busy, idle, utilisation, and
   stragglers.  A chunk straggles when its dispatch-relative finish
   exceeds ``median + k·MAD`` of its dispatch's finishes (MAD = median
   absolute deviation), with a small absolute floor so near-identical
   finishes are never flagged on scheduler noise.
4. **What-if estimates** — Amdahl-style bounds: how much shorter the
   critical path gets if dispatches on it balanced perfectly over their
   workers, if stragglers finished at the median, or if worker counts
   doubled.  Savings only count for dispatches that are actually *on*
   the critical path; shaving a dispatch the run never waited for does
   not move end-to-end time.

Results are JSON-able (:meth:`CritPathResult.as_dict`, schema-versioned)
and renderable as terminal tables (:func:`render_text`); ``critpath.*``
metrics are emitted on every analysis so profile/bench runs can ledger
``critpath.length_ns`` / ``critpath.parallel_efficiency`` and the
regression gate can hold the line on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import metrics as _metrics

__all__ = [
    "CRITPATH_SCHEMA_VERSION",
    "DEFAULT_STRAGGLER_K",
    "STRAGGLER_FLOOR_NS",
    "CritPathResult",
    "analyze_collector",
    "analyze_chrome",
    "render_text",
    "validate_critpath_doc",
]

#: Stamped into :meth:`CritPathResult.as_dict` so downstream consumers
#: (CI validation, archived artifacts) can detect layout changes.
CRITPATH_SCHEMA_VERSION = 1

#: Straggler band width: a chunk straggles when its dispatch-relative
#: finish exceeds ``median + k * MAD``.
DEFAULT_STRAGGLER_K = 4.0

#: Absolute slack under which a chunk is never called a straggler, even
#: when the MAD band is razor thin (near-identical finishes make
#: ``MAD ~ 0``, and scheduler jitter must not produce false positives).
STRAGGLER_FLOOR_NS = 1_000_000  # 1 ms

#: The synthetic entry name for window time no recorded span covers.
UNTRACED = "(untraced)"

_C_ANALYSES = _metrics.counter("critpath.analyses")
_C_STRAGGLERS = _metrics.counter("critpath.stragglers")
_C_ORPHANS = _metrics.counter("critpath.orphans")
_G_LENGTH = _metrics.gauge("critpath.length_ns")
_G_EFFICIENCY = _metrics.gauge("critpath.parallel_efficiency")


class _Node:
    """One span in the reconstructed DAG (containment + causal children)."""

    __slots__ = ("name", "cat", "start_ns", "end_ns", "pid", "tid",
                 "args", "children", "linked_by")

    def __init__(self, name, cat, start_ns, dur_ns, pid, tid, args):
        self.name = str(name)
        self.cat = str(cat)
        self.start_ns = int(start_ns)
        self.end_ns = int(start_ns) + max(0, int(dur_ns))
        self.pid = pid
        self.tid = tid
        self.args = args if isinstance(args, dict) else {}
        self.children: list[_Node] = []
        self.linked_by: str | None = None  # "id" | "time" for causal links

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class CritPathResult:
    """The full analysis of one recorded run (all times in ns, rebased)."""

    total_ns: int
    span_count: int
    parallel_efficiency: float
    path: list[dict] = field(default_factory=list)
    attribution: dict[str, int] = field(default_factory=dict)
    rollup: list[dict] = field(default_factory=list)
    dispatches: list[dict] = field(default_factory=list)
    workers: list[dict] = field(default_factory=list)
    whatif: list[dict] = field(default_factory=list)
    orphans: int = 0
    annotations: list[dict] = field(default_factory=list)
    straggler_k: float = DEFAULT_STRAGGLER_K

    @property
    def stragglers(self) -> int:
        return sum(len(d["stragglers"]) for d in self.dispatches)

    def as_dict(self) -> dict:
        return {
            "schema_version": CRITPATH_SCHEMA_VERSION,
            "total_ns": self.total_ns,
            "span_count": self.span_count,
            "parallel_efficiency": self.parallel_efficiency,
            "straggler_k": self.straggler_k,
            "path": self.path,
            "attribution": self.attribution,
            "rollup": self.rollup,
            "dispatches": self.dispatches,
            "workers": self.workers,
            "whatif": self.whatif,
            "orphans": self.orphans,
            "stragglers": self.stragglers,
            "annotations": self.annotations,
        }


# --------------------------------------------------------------------- #
# Input normalization
# --------------------------------------------------------------------- #


def _nodes_from_collector(collector) -> list[_Node]:
    return [
        _Node(s.name, s.cat, s.start_ns, s.dur_ns, s.pid, s.tid, s.args)
        for s in collector.spans
    ]


def _nodes_from_chrome(doc: dict) -> list[_Node]:
    """Complete ("X") events as nodes; virtual-platform tracks excluded.

    The simulated device clocks of :func:`repro.obs.export.
    virtual_clock_events` replay the run in *virtual* seconds — mixing
    them into the real run's causal DAG would be nonsense.
    """
    from .export import VIRTUAL_PID

    nodes = []
    for ev in doc.get("traceEvents", []):
        if not isinstance(ev, dict) or ev.get("ph") != "X":
            continue
        if ev.get("pid") == VIRTUAL_PID:
            continue
        ts, dur = ev.get("ts"), ev.get("dur")
        if not isinstance(ts, (int, float)) or not isinstance(dur, (int, float)):
            continue
        nodes.append(
            _Node(
                ev.get("name", "?"), ev.get("cat", "?"),
                int(round(ts * 1e3)), int(round(dur * 1e3)),
                ev.get("pid"), ev.get("tid"), ev.get("args") or {},
            )
        )
    return nodes


# --------------------------------------------------------------------- #
# DAG reconstruction
# --------------------------------------------------------------------- #


def _containment_forest(nodes: list[_Node]) -> list[_Node]:
    """Nest nodes per ``(pid, tid)`` track; returns the forest roots.

    Same stack sweep as :meth:`TraceCollector.span_tree`: sort by
    ``(pid, tid, start, -dur)`` so an enclosing span precedes its
    children (zero-duration spans and identical start times included —
    the longer span wins the tie and contains the shorter one).
    """
    roots: list[_Node] = []
    stack: list[_Node] = []
    track = object()
    for n in sorted(
        nodes, key=lambda n: (str(n.pid), str(n.tid), n.start_ns, -n.dur_ns)
    ):
        if (n.pid, n.tid) != track:
            track = (n.pid, n.tid)
            stack = []
        while stack and not (
            stack[-1].start_ns <= n.start_ns and n.end_ns <= stack[-1].end_ns
        ):
            stack.pop()
        if stack:
            stack[-1].children.append(n)
        else:
            roots.append(n)
        stack.append(n)
    return roots


def _link_causal(roots: list[_Node], all_nodes: list[_Node]) -> int:
    """Attach worker-chunk roots to their dispatch bracket; returns orphans.

    Primary key is the ``dispatch`` id stamped on both sides by
    :mod:`repro.hetero.parallel`.  Traces recorded before the ids existed
    fall back to interval containment (a chunk that ran inside exactly
    the window of one dispatch belongs to it).  A chunk that matches
    neither — typically a crash-degraded run whose dispatch bracket never
    closed, or a torn trace — stays a DAG root and is counted as an
    orphan; the analysis degrades gracefully instead of inventing edges.
    """
    dispatches = [n for n in all_nodes if n.name == "parallel.dispatch"]
    by_id = {
        n.args.get("dispatch"): n
        for n in dispatches
        if n.args.get("dispatch") is not None
    }
    orphans = 0
    still_roots: list[_Node] = []
    for root in roots:
        if root.name != "parallel.worker_chunk":
            still_roots.append(root)
            continue
        did = root.args.get("dispatch")
        parent = by_id.get(did)
        if parent is not None:
            root.linked_by = "id"
        else:
            # Legacy traces: containment in time, unique match required.
            hits = [
                d for d in dispatches
                if d.start_ns <= root.start_ns and root.end_ns <= d.end_ns
            ]
            if len(hits) == 1:
                parent, root.linked_by = hits[0], "time"
        if parent is None:
            orphans += 1
            still_roots.append(root)
        else:
            parent.children.append(root)
    roots[:] = still_roots
    return orphans


# --------------------------------------------------------------------- #
# Critical path
# --------------------------------------------------------------------- #


def _walk_path(node: _Node, entries: list[dict], origin: int) -> None:
    """Backward greedy sweep from ``node``'s end; appends path entries.

    The child that finished last (ending at or before the cursor) is the
    one the node waited for; recurse into it, move the cursor to its
    start, repeat.  The node's own contribution is its duration minus the
    chosen children's clipped coverage — by construction the chosen
    windows are disjoint, so contributions sum to the node's duration.
    """
    cursor = node.end_ns
    covered = 0
    for child in sorted(node.children, key=lambda c: (-c.end_ns, c.start_ns)):
        if child.end_ns > cursor or child.end_ns <= node.start_ns:
            continue
        _walk_path(child, entries, origin)
        lo = max(child.start_ns, node.start_ns)
        covered += child.end_ns - lo
        cursor = lo
    entries.append(
        {
            "name": node.name,
            "cat": node.cat,
            "pid": node.pid,
            "tid": node.tid,
            "start_ns": node.start_ns - origin,
            "dur_ns": node.dur_ns,
            "path_ns": node.dur_ns - covered,
        }
    )


# --------------------------------------------------------------------- #
# Rollups and worker stats
# --------------------------------------------------------------------- #


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of (possibly overlapping) intervals."""
    total = 0
    hi = None
    for lo, end in sorted(intervals):
        if hi is None or lo > hi:
            total += end - lo
            hi = end
        elif end > hi:
            total += end - hi
            hi = end
    return total


def _rollup(all_nodes: list[_Node]) -> list[dict]:
    """Per-name inclusive and self (exclusive) time over the whole DAG.

    Self subtracts the *union* of child coverage: a dispatch whose chunk
    children overlap (they ran in parallel) only loses the covered wall
    time once, never more than its own duration.
    """
    rows: dict[tuple[str, str], dict] = {}
    for n in all_nodes:
        covered = _union_ns(
            [
                (max(c.start_ns, n.start_ns), min(c.end_ns, n.end_ns))
                for c in n.children
                if c.end_ns > n.start_ns and c.start_ns < n.end_ns
            ]
        )
        row = rows.setdefault(
            (n.name, n.cat),
            {"name": n.name, "cat": n.cat, "count": 0,
             "inclusive_ns": 0, "self_ns": 0},
        )
        row["count"] += 1
        row["inclusive_ns"] += n.dur_ns
        row["self_ns"] += max(0, n.dur_ns - covered)
    return sorted(rows.values(), key=lambda r: -r["self_ns"])


def _median(values: list[float]) -> float:
    vals = sorted(values)
    k = len(vals) // 2
    if len(vals) % 2:
        return float(vals[k])
    return 0.5 * (vals[k - 1] + vals[k])


def _dispatch_stats(
    all_nodes: list[_Node], k: float, origin: int
) -> tuple[list[dict], list[dict], float]:
    """Per-dispatch and per-worker tables plus overall parallel efficiency."""
    dispatch_rows: list[dict] = []
    per_worker: dict = {}
    busy_total = 0
    capacity_total = 0
    for d in (n for n in all_nodes if n.name == "parallel.dispatch"):
        chunks = [c for c in d.children if c.name == "parallel.worker_chunk"]
        workers = int(d.args.get("workers") or 0) or len({c.pid for c in chunks})
        wall = max(1, d.dur_ns)
        busy = sum(c.dur_ns for c in chunks)
        finishes = [c.end_ns - d.start_ns for c in chunks]
        stragglers: list[dict] = []
        med = mad = 0.0
        if len(finishes) >= 2:
            med = _median([float(f) for f in finishes])
            mad = _median([abs(f - med) for f in finishes])
            cut = med + max(k * mad, float(STRAGGLER_FLOOR_NS))
            for c, fin in zip(chunks, finishes):
                if fin > cut:
                    stragglers.append(
                        {
                            "pid": c.pid,
                            "chunk": c.args.get("chunk"),
                            "finish_ns": fin,
                            "excess_ns": int(fin - med),
                        }
                    )
        if chunks:
            busy_total += busy
            capacity_total += wall * max(1, workers)
        dispatch_rows.append(
            {
                "dispatch": d.args.get("dispatch"),
                "start_ns": d.start_ns - origin,
                "wall_ns": d.dur_ns,
                "busy_ns": busy,
                "workers": workers,
                "chunks": len(chunks),
                "utilisation": busy / (wall * max(1, workers)),
                "median_finish_ns": int(med),
                "mad_ns": int(mad),
                "finishes_ns": sorted(finishes),
                "longest_chunk_ns": max(
                    (c.dur_ns for c in chunks), default=0
                ),
                "stragglers": stragglers,
            }
        )
        for c in chunks:
            w = per_worker.setdefault(
                c.pid, {"pid": c.pid, "chunks": 0, "busy_ns": 0, "window_ns": 0}
            )
            w["chunks"] += 1
            w["busy_ns"] += c.dur_ns
        for pid in {c.pid for c in chunks}:
            per_worker[pid]["window_ns"] += d.dur_ns
    worker_rows = []
    straggler_pids = {
        s["pid"] for row in dispatch_rows for s in row["stragglers"]
    }
    for w in sorted(per_worker.values(), key=lambda w: str(w["pid"])):
        w["idle_ns"] = max(0, w["window_ns"] - w["busy_ns"])
        w["utilisation"] = w["busy_ns"] / max(1, w["window_ns"])
        w["straggler"] = w["pid"] in straggler_pids
        worker_rows.append(w)
    efficiency = busy_total / capacity_total if capacity_total else 1.0
    return dispatch_rows, worker_rows, efficiency


# --------------------------------------------------------------------- #
# What-if estimates
# --------------------------------------------------------------------- #


def _whatif(
    dispatch_rows: list[dict], path: list[dict], total_ns: int
) -> list[dict]:
    """Amdahl-style bounds over the dispatches on the critical path.

    Each estimate recomputes a hypothetical wall per dispatch and only
    credits the saving when that dispatch is on the critical path — the
    run never waited on off-path dispatches, so shrinking them cannot
    shorten it.  Per-dispatch walls are floored at the longest single
    chunk: no worker count makes one chunk finish faster than itself.
    """
    if not total_ns:
        return []
    on_path_starts = {
        e["start_ns"] for e in path if e["name"] == "parallel.dispatch"
    }

    def saving(row: dict, new_wall: float) -> int:
        if row["start_ns"] not in on_path_starts:
            return 0
        return max(0, int(row["wall_ns"] - new_wall))

    scenarios = [
        (
            "perfect balance across current workers",
            lambda row: max(
                row["busy_ns"] / max(1, row["workers"]),
                row["longest_chunk_ns"],
            ),
        ),
        (
            "slowest chunk finishes at the dispatch median",
            lambda row: _median_wall(row),
        ),
        (
            "2x workers, perfect balance",
            lambda row: max(
                row["busy_ns"] / max(1, 2 * row["workers"]),
                row["longest_chunk_ns"],
            ),
        ),
    ]
    estimates = []
    for label, new_wall_of in scenarios:
        saved = sum(
            saving(row, new_wall_of(row))
            for row in dispatch_rows
            if row["chunks"]
        )
        estimates.append(
            {
                "label": label,
                "saving_ns": saved,
                "new_length_ns": total_ns - saved,
                "improvement_pct": 100.0 * saved / total_ns,
            }
        )
    return estimates


def _median_wall(row: dict) -> float:
    """Hypothetical dispatch wall if every straggler finished at the
    dispatch-median finish; non-stragglers keep their real finishes."""
    if row["chunks"] < 2 or not row["stragglers"]:
        return float(row["wall_ns"])
    straggler_finishes = {s["finish_ns"] for s in row["stragglers"]}
    kept = [f for f in row["finishes_ns"] if f not in straggler_finishes]
    return float(max(kept + [row["median_finish_ns"]]))


# --------------------------------------------------------------------- #
# Event-stream annotations
# --------------------------------------------------------------------- #


def _annotations(events: list[dict] | None) -> list[dict]:
    """Fault/degrade/stall context from the merged event stream.

    The trace shows *where* time went; the events say *why* — an injected
    fault, a degradation to serial, a watchdog-flagged stall.  Only the
    kinds that explain latency are surfaced.
    """
    if not events:
        return []
    out = []
    for ev in events:
        kind = ev.get("kind")
        if kind == "fault.fired":
            out.append(
                {
                    "kind": kind,
                    "detail": f"{ev.get('site')}"
                    + (f":{ev.get('arg')}" if ev.get("arg") else "")
                    + f" at seam {ev.get('seam')}",
                    "pid": ev.get("pid"),
                    "ts_ns": ev.get("ts_ns"),
                }
            )
        elif kind == "engine.degraded":
            out.append(
                {
                    "kind": kind,
                    "detail": f"degraded to serial ({ev.get('error')})",
                    "pid": ev.get("pid"),
                    "ts_ns": ev.get("ts_ns"),
                }
            )
        elif kind == "engine.stall_detected":
            out.append(
                {
                    "kind": kind,
                    "detail": f"watchdog flagged worker {ev.get('worker')} "
                    f"(heartbeat age {ev.get('age_s', '?')}s)",
                    "pid": ev.get("pid"),
                    "ts_ns": ev.get("ts_ns"),
                }
            )
    return out


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #


def _analyze(
    nodes: list[_Node],
    events: list[dict] | None,
    straggler_k: float,
) -> CritPathResult:
    _C_ANALYSES.inc()
    if not nodes:
        return CritPathResult(
            total_ns=0, span_count=0, parallel_efficiency=1.0,
            annotations=_annotations(events), straggler_k=straggler_k,
        )
    roots = _containment_forest(nodes)
    orphans = _link_causal(roots, nodes)
    origin = min(n.start_ns for n in nodes)
    window_end = max(n.end_ns for n in nodes)
    total_ns = window_end - origin

    # Synthetic root spanning the whole window: the critical path always
    # reaches from run start to run end, and time no root span covers is
    # attributed to the explicit UNTRACED entry.
    root = _Node(UNTRACED, "critpath", origin, total_ns, None, None, {})
    root.children = list(roots)
    entries: list[dict] = []
    _walk_path(root, entries, origin)
    entries.sort(key=lambda e: (e["start_ns"], -e["dur_ns"]))
    if total_ns == 0:
        # A trace of only zero-duration spans still reports its spans —
        # the backward walk cannot step into zero-width children, so the
        # path is synthesized from the nodes directly.
        entries = [
            {"name": n.name, "cat": n.cat, "pid": n.pid, "tid": n.tid,
             "start_ns": n.start_ns - origin, "dur_ns": 0, "path_ns": 0}
            for n in nodes
        ]
    else:
        entries = [
            e for e in entries if e["path_ns"] > 0 or e["name"] != UNTRACED
        ]

    attribution: dict[str, int] = {}
    for e in entries:
        attribution[e["cat"]] = attribution.get(e["cat"], 0) + e["path_ns"]

    dispatch_rows, worker_rows, efficiency = _dispatch_stats(
        nodes, straggler_k, origin
    )
    result = CritPathResult(
        total_ns=total_ns,
        span_count=len(nodes),
        parallel_efficiency=efficiency,
        path=entries,
        attribution=attribution,
        rollup=_rollup(nodes),
        dispatches=dispatch_rows,
        workers=worker_rows,
        whatif=_whatif(dispatch_rows, entries, total_ns),
        orphans=orphans,
        annotations=_annotations(events),
        straggler_k=straggler_k,
    )
    if orphans:
        _C_ORPHANS.inc(orphans)
    if result.stragglers:
        _C_STRAGGLERS.inc(result.stragglers)
    _G_LENGTH.set(float(total_ns))
    _G_EFFICIENCY.set(efficiency)
    return result


def analyze_collector(
    collector,
    events: list[dict] | None = None,
    straggler_k: float = DEFAULT_STRAGGLER_K,
) -> CritPathResult:
    """Analyze a live :class:`~repro.obs.trace.TraceCollector`."""
    return _analyze(_nodes_from_collector(collector), events, straggler_k)


def analyze_chrome(
    doc: dict,
    events: list[dict] | None = None,
    straggler_k: float = DEFAULT_STRAGGLER_K,
) -> CritPathResult:
    """Analyze a Chrome ``trace_event`` document (the offline path)."""
    return _analyze(_nodes_from_chrome(doc), events, straggler_k)


# --------------------------------------------------------------------- #
# Rendering and validation
# --------------------------------------------------------------------- #


def _ms(ns) -> str:
    return f"{float(ns) / 1e6:.3f}"


def render_text(result: CritPathResult, top: int = 12) -> str:
    """Terminal tables for ``repro-bench critpath``."""
    from ..bench.reporting import format_table

    lines: list[str] = []
    lines.append(
        f"critical path: {_ms(result.total_ns)} ms end to end over "
        f"{result.span_count} span(s); parallel efficiency "
        f"{result.parallel_efficiency:.3f}"
    )
    if result.orphans:
        lines.append(
            f"({result.orphans} orphan worker span(s) without a dispatch "
            "bracket — crash-degraded or torn trace; kept as DAG roots)"
        )
    lines.append("")
    path_rows = sorted(result.path, key=lambda e: -e["path_ns"])[:top]
    lines.append(
        format_table(
            ["span", "cat", "pid", "start ms", "dur ms", "on-path ms", "share"],
            [
                (
                    e["name"], e["cat"], e["pid"] if e["pid"] is not None else "-",
                    _ms(e["start_ns"]), _ms(e["dur_ns"]), _ms(e["path_ns"]),
                    f"{100.0 * e['path_ns'] / max(1, result.total_ns):.1f}%",
                )
                for e in path_rows
            ],
            title=(
                f"critical path — heaviest {len(path_rows)} of "
                f"{len(result.path)} entr(ies), contributions sum to the window"
            ),
        )
    )
    if result.attribution:
        lines.append("")
        lines.append(
            "attribution by category: "
            + ", ".join(
                f"{cat} {100.0 * ns / max(1, result.total_ns):.1f}%"
                for cat, ns in sorted(
                    result.attribution.items(), key=lambda kv: -kv[1]
                )
            )
        )
    if result.rollup:
        lines.append("")
        lines.append(
            format_table(
                ["span name", "cat", "count", "inclusive ms", "self ms"],
                [
                    (r["name"], r["cat"], r["count"],
                     _ms(r["inclusive_ns"]), _ms(r["self_ns"]))
                    for r in result.rollup[:top]
                ],
                title="inclusive vs self time per span name",
            )
        )
    if result.dispatches:
        lines.append("")
        lines.append(
            format_table(
                ["dispatch", "chunks", "workers", "wall ms", "busy ms",
                 "util", "stragglers"],
                [
                    (
                        d["dispatch"] if d["dispatch"] is not None else "-",
                        d["chunks"], d["workers"], _ms(d["wall_ns"]),
                        _ms(d["busy_ns"]), f"{d['utilisation']:.2f}",
                        ", ".join(
                            f"pid {s['pid']} chunk {s['chunk']} "
                            f"(+{_ms(s['excess_ns'])} ms)"
                            for s in d["stragglers"]
                        ) or "-",
                    )
                    for d in result.dispatches
                ],
                title=(
                    f"dispatches — straggler = finish > median + "
                    f"{result.straggler_k:g}*MAD"
                ),
            )
        )
    if result.workers:
        lines.append("")
        lines.append(
            format_table(
                ["worker pid", "chunks", "busy ms", "idle ms", "util",
                 "straggled"],
                [
                    (w["pid"], w["chunks"], _ms(w["busy_ns"]),
                     _ms(w["idle_ns"]), f"{w['utilisation']:.2f}",
                     "yes" if w["straggler"] else "-")
                    for w in result.workers
                ],
                title="per-worker busy/idle over their dispatch windows",
            )
        )
    if result.whatif:
        lines.append("")
        lines.append(
            format_table(
                ["what-if", "saving ms", "new length ms", "improvement"],
                [
                    (
                        w["label"], _ms(w["saving_ns"]),
                        _ms(w["new_length_ns"]),
                        f"{w['improvement_pct']:.1f}%",
                    )
                    for w in result.whatif
                ],
                title="what-if estimates (savings only for on-path dispatches)",
            )
        )
    if result.annotations:
        lines.append("")
        lines.append("event annotations:")
        for a in result.annotations:
            lines.append(f"  - [{a['kind']}] {a['detail']}")
    return "\n".join(lines)


def validate_critpath_doc(doc: dict) -> list[str]:
    """Schema-check an exported analysis; returns problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["not an object"]
    if doc.get("schema_version") != CRITPATH_SCHEMA_VERSION:
        problems.append(
            f"schema_version {doc.get('schema_version')!r} != "
            f"{CRITPATH_SCHEMA_VERSION}"
        )
    for key, typ in (
        ("total_ns", int), ("span_count", int),
        ("parallel_efficiency", (int, float)), ("orphans", int),
        ("stragglers", int),
    ):
        if not isinstance(doc.get(key), typ) or isinstance(doc.get(key), bool):
            problems.append(f"missing or mistyped {key!r}")
    for key in ("path", "rollup", "dispatches", "workers", "whatif",
                "annotations"):
        if not isinstance(doc.get(key), list):
            problems.append(f"missing or mistyped list {key!r}")
    if not isinstance(doc.get("attribution"), dict):
        problems.append("missing or mistyped 'attribution'")
    for i, e in enumerate(doc.get("path") or []):
        if not isinstance(e, dict) or not {
            "name", "cat", "start_ns", "dur_ns", "path_ns"
        } <= set(e):
            problems.append(f"path entry {i} lacks required keys")
            break
    path = doc.get("path") or []
    total = doc.get("total_ns")
    if path and isinstance(total, int) and total > 0:
        covered = sum(int(e.get("path_ns", 0)) for e in path)
        if abs(covered - total) > max(1, total // 100):
            problems.append(
                f"path contributions ({covered}) do not sum to total_ns "
                f"({total}) within 1%"
            )
    return problems
