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
* :mod:`repro.obs.export` — Chrome-trace serialization, the trace loader
  and ``summary()``: one count / wall / self-time table per track, the
  answer to "where did this run's time go, per layer".  Printed live by
  ``repro-bench profile`` and from any recorded trace by
  ``repro-bench critpath --trace``.
* :mod:`repro.obs.memory` — per-phase memory accounting (tracemalloc
  current/peak + peak RSS, recorded by :func:`repro.obs.trace.phase`) and
  the exact byte accounting behind the paper's Table 1 (``a² + Σ nᵢ²`` vs
  dense ``n²``).
* :mod:`repro.obs.ledger` — the append-only JSONL run database: every
  benchmark run stamped with git SHA, host fingerprint, knobs, per-phase
  times, counters, and memory stats.
* :mod:`repro.obs.regress` — the noise-aware regression gate over the
  ledger (median + MAD bands, per-phase attribution) plus the
  Chrome-trace differ; surfaced as ``repro-bench regress``.
* :mod:`repro.obs.report` — the self-contained single-file HTML run
  report built from a recorded Chrome trace and the ledger; surfaced as
  ``repro-bench report``.

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

from .export import chrome_trace, summary, validate_chrome_trace, write_chrome_trace
from .memory import format_bytes, memory_profiling
from .metrics import counter, metrics_diff, reset_metrics, snapshot
from .regress import phase_totals
from .report import REPORT_SECTIONS, validate_report
from .trace import Span, TraceCollector, current_collector, span, tracing, tracing_enabled

# The names callers import through the package; everything else is
# imported from its submodule (``from repro.obs.ledger import Ledger``).
__all__ = [
    # trace
    "Span",
    "TraceCollector",
    "current_collector",
    "span",
    "tracing",
    "tracing_enabled",
    # metrics
    "counter",
    "metrics_diff",
    "reset_metrics",
    "snapshot",
    # export
    "chrome_trace",
    "summary",
    "validate_chrome_trace",
    "write_chrome_trace",
    # memory
    "format_bytes",
    "memory_profiling",
    # regress
    "phase_totals",
    # report
    "REPORT_SECTIONS",
    "validate_report",
]
