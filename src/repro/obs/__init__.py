"""``repro.obs`` — unified tracing + metrics for the whole pipeline.

The paper's argument is *phase accounting*: every speedup claim is a
preprocess / process / post-process split (Section 2.4, Figures 2/5/6).
This package makes that accounting first-class for the reproduction:

* :mod:`repro.obs.trace` — nested wall-clock spans with a thread-local
  stack, exported as span trees, JSON, or Chrome ``trace_event`` files
  that open directly in ``chrome://tracing`` / Perfetto.  Disabled by
  default; the guarded no-op path costs one module-global read per span.
* :mod:`repro.obs.metrics` — process-wide named counters / gauges /
  histograms with a snapshot/diff API.  The hot paths (adjacency cache,
  chunk dispatch, witness updates, invariant checks) increment counters
  unconditionally — integer adds are cheap enough to always stay on.
* :mod:`repro.obs.export` — Chrome-trace serialization and the
  ``summary()`` pretty-printer (per-phase wall time, % of total, counter
  table).
* :mod:`repro.obs.memory` — per-phase memory accounting (tracemalloc
  current/peak + peak RSS, recorded by :func:`phase`) and the exact byte
  accounting behind the paper's Table 1 (``a² + Σ nᵢ²`` vs dense ``n²``).
* :mod:`repro.obs.ledger` — the append-only JSONL run database: every
  benchmark run stamped with git SHA, host fingerprint, knobs, per-phase
  times, counters, and memory stats.
* :mod:`repro.obs.regress` — the noise-aware regression gate over the
  ledger (median + MAD bands, per-phase attribution) plus the
  Chrome-trace differ; surfaced as ``repro-bench regress``.
* :mod:`repro.obs.sampler` — zero-dependency continuous profiling: a
  thread-based stack sampler with collapsed-stack (flamegraph) export,
  armed via ``REPRO_SAMPLER`` / ``repro-bench profile --sample-hz``.
* :mod:`repro.obs.critpath` — offline critical-path attribution over a
  recorded trace: the span-DAG (causal dispatch/chunk links included),
  the longest causally-ordered chain with per-category attribution,
  inclusive-vs-self rollups, per-worker straggler stats, and
  Amdahl-style what-if estimates; surfaced as ``repro-bench critpath``
  and the report's "critical path & stragglers" section.

Enable tracing with the ``REPRO_TRACE`` environment variable (``1`` to
collect, a ``*.json`` path to also write a Chrome trace at process exit)
or programmatically::

    from repro import obs

    with obs.tracing() as tr:
        ear_apsp_full(g)
    tr.write_chrome("trace.json")
    print(obs.summary(tr))

See ``docs/OBSERVABILITY.md`` for span naming conventions and how to
open the traces in Perfetto.
"""

from __future__ import annotations

from .events import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    EventSink,
    current_sink,
    default_events_dir,
    emit,
    emitting,
    events_to,
)
from .events import enabled as events_enabled
from .critpath import (
    CRITPATH_SCHEMA_VERSION,
    CritPathResult,
    analyze_chrome,
    analyze_collector,
    validate_critpath_doc,
)
from .critpath import render_text as render_critpath
from .export import (
    VIRTUAL_PID,
    chrome_trace,
    summary,
    validate_chrome_trace,
    virtual_clock_events,
    write_chrome_trace,
)
from .ledger import (
    SCHEMA_VERSION,
    Ledger,
    LedgerError,
    RunRecord,
    default_ledger_path,
    git_sha,
    host_fingerprint,
    repro_knobs,
)
from .memory import (
    MemoryProfile,
    MemSpan,
    Table1Bytes,
    current_memory_profile,
    format_bytes,
    measured_component_bytes,
    memory_profiling,
    memory_profiling_enabled,
    peak_rss_bytes,
    table1_bytes,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    metrics_diff,
    registry,
    reset_metrics,
    snapshot,
)
from .regress import (
    PhaseVerdict,
    RegressionReport,
    compare,
    diff_chrome_traces,
    extract_phases,
    is_higher_better_phase,
    measure_profile_phases,
    phase_totals,
)
from .report import REPORT_SECTIONS, build_report, validate_report, write_report
from .sampler import (
    DEFAULT_HZ,
    DEFAULT_PROFILE_DIR,
    StackSampler,
    active_sampler,
    parse_collapsed,
    read_profile,
    sampling_to,
    top_stacks,
)
from .trace import (
    Span,
    TraceCollector,
    current_collector,
    phase,
    span,
    tracing,
    tracing_enabled,
)
from .watch import Watchdog, heartbeats_from_events, resolve_stall_after

__all__ = [
    # trace
    "Span",
    "TraceCollector",
    "current_collector",
    "phase",
    "span",
    "tracing",
    "tracing_enabled",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "metrics_diff",
    "registry",
    "reset_metrics",
    "snapshot",
    # events
    "EVENT_SCHEMA_VERSION",
    "EventLog",
    "EventSink",
    "current_sink",
    "default_events_dir",
    "emit",
    "emitting",
    "events_enabled",
    "events_to",
    # watch
    "Watchdog",
    "heartbeats_from_events",
    "resolve_stall_after",
    # sampler
    "DEFAULT_HZ",
    "DEFAULT_PROFILE_DIR",
    "StackSampler",
    "active_sampler",
    "parse_collapsed",
    "read_profile",
    "sampling_to",
    "top_stacks",
    # report
    "REPORT_SECTIONS",
    "build_report",
    "validate_report",
    "write_report",
    # export
    "VIRTUAL_PID",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "virtual_clock_events",
    "summary",
    # memory
    "MemSpan",
    "MemoryProfile",
    "memory_profiling",
    "memory_profiling_enabled",
    "current_memory_profile",
    "peak_rss_bytes",
    "Table1Bytes",
    "table1_bytes",
    "measured_component_bytes",
    "format_bytes",
    # ledger
    "SCHEMA_VERSION",
    "Ledger",
    "LedgerError",
    "RunRecord",
    "default_ledger_path",
    "git_sha",
    "host_fingerprint",
    "repro_knobs",
    # regress
    "PhaseVerdict",
    "RegressionReport",
    "compare",
    "diff_chrome_traces",
    "extract_phases",
    "is_higher_better_phase",
    "measure_profile_phases",
    "phase_totals",
    # critpath
    "CRITPATH_SCHEMA_VERSION",
    "CritPathResult",
    "analyze_chrome",
    "analyze_collector",
    "render_critpath",
    "validate_critpath_doc",
]
