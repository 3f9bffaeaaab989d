"""Per-phase memory accounting: tracemalloc spans + measured table bytes.

The paper's headline Table 1 claim is about *memory*, not only speed: the
ear-reduced APSP oracle stores ``O(a² + Σᵢ nᵢ²)`` distance entries instead
of the dense ``O(n²)`` matrix.  :func:`repro.graph.stats.table1_row`
models those entries from the decompositions alone; this module measures
what a run allocates:

* :func:`memory_profiling` — arms per-phase memory spans: inside the
  block every :func:`repro.obs.trace.phase` records the tracemalloc
  current-allocation delta, the allocation *peak* inside the phase
  (segmented so nested phases attribute peaks correctly), and the process
  peak RSS where the platform exposes it.
* :func:`measured_component_bytes` — the ``a²`` / ``Σ nᵢ²`` split
  measured off an actually-built
  :class:`~repro.apsp.composition.ComponentTables` (real
  ``ndarray.nbytes``), which the pipeline drivers publish as
  ``memory.apsp.*`` gauges.

``peak_rss_bytes`` returns ``None`` rather than guessing on platforms
without ``resource`` (Windows); everything else is pure stdlib.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import metrics as _metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..apsp.composition import ComponentTables

try:  # pragma: no cover - import guard exercised only on Windows
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

__all__ = [
    "MemSpan",
    "MemoryProfile",
    "memory_profiling",
    "memory_profiling_enabled",
    "peak_rss_bytes",
    "measured_component_bytes",
    "format_bytes",
]


def peak_rss_bytes() -> int | None:
    """Process peak RSS in bytes, or ``None`` where unavailable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalised to bytes.  The value is a high-water mark for the whole
    process lifetime — useful as an upper envelope per phase, not a delta.
    """
    if _resource is None:
        return None
    rss = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(rss)
    return int(rss) * 1024


@dataclass(frozen=True)
class MemSpan:
    """One finished memory span (allocation accounting over an interval)."""

    name: str
    alloc_before: int  # tracemalloc current bytes at entry
    alloc_after: int   # tracemalloc current bytes at exit
    peak: int          # peak traced bytes observed inside the span
    rss_peak: int | None  # process peak RSS at exit (whole-process high-water)

    @property
    def delta(self) -> int:
        """Net traced bytes retained across the span (can be negative)."""
        return self.alloc_after - self.alloc_before


class MemoryProfile:
    """Accumulates finished :class:`MemSpan` records; thread-safe."""

    def __init__(self) -> None:
        self.spans: list[MemSpan] = []
        self._lock = threading.Lock()
        self._tls = threading.local()

    # -- peak segmentation --------------------------------------------- #
    # tracemalloc exposes one process-global peak, reset with reset_peak().
    # To attribute peaks per span, every reset point first folds the
    # prior segment's peak into the enclosing frame, so an outer span's
    # recorded peak is max(own segments, every child's peak).

    def _stack(self) -> list[int]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _enter(self) -> int:
        cur, prior_peak = tracemalloc.get_traced_memory()
        st = self._stack()
        if st:
            st[-1] = max(st[-1], prior_peak)
        tracemalloc.reset_peak()
        st.append(0)
        return cur

    def _exit(self, name: str, alloc_before: int) -> MemSpan:
        cur, own_peak = tracemalloc.get_traced_memory()
        st = self._stack()
        child_peak = st.pop() if st else 0
        peak = max(own_peak, child_peak)
        tracemalloc.reset_peak()
        if st:
            st[-1] = max(st[-1], peak)
        sp = MemSpan(
            name=name,
            alloc_before=alloc_before,
            alloc_after=cur,
            peak=peak,
            rss_peak=peak_rss_bytes(),
        )
        with self._lock:
            self.spans.append(sp)
        return sp

    # -- views --------------------------------------------------------- #

    def __len__(self) -> int:
        with self._lock:
            return len(self.spans)

    def by_name(self) -> dict[str, list[MemSpan]]:
        out: dict[str, list[MemSpan]] = {}
        with self._lock:
            for sp in self.spans:
                out.setdefault(sp.name, []).append(sp)
        return out

    def as_dict(self) -> dict:
        """JSON-ready per-name aggregate: count, summed delta, max peak."""
        out: dict = {}
        for name, spans in sorted(self.by_name().items()):
            rss = [sp.rss_peak for sp in spans if sp.rss_peak is not None]
            out[name] = {
                "count": len(spans),
                "delta_bytes": sum(sp.delta for sp in spans),
                "peak_bytes": max(sp.peak for sp in spans),
                "rss_peak_bytes": max(rss) if rss else None,
            }
        return out


_profile: MemoryProfile | None = None
_profile_lock = threading.Lock()


def memory_profiling_enabled() -> bool:
    return _profile is not None


class memory_profiling:
    """Install a fresh :class:`MemoryProfile` for a ``with`` block.

    Starts ``tracemalloc`` if it is not already tracing and stops it again
    on exit only if this block started it, so nesting inside an external
    tracemalloc session is safe.  Nestable like ``obs.tracing``; yields
    the profile, which stays readable after the block closes.
    """

    def __init__(self, profile: MemoryProfile | None = None) -> None:
        self.profile = profile if profile is not None else MemoryProfile()
        self._prev: MemoryProfile | None = None
        self._started_tracing = False

    def __enter__(self) -> MemoryProfile:
        global _profile
        if not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True
        with _profile_lock:
            self._prev = _profile
            _profile = self.profile
        return self.profile

    def __exit__(self, *exc) -> bool:
        global _profile
        with _profile_lock:
            _profile = self._prev
        if self._started_tracing:
            tracemalloc.stop()
        return False


def measured_component_bytes(ct: "ComponentTables") -> dict:
    """Actual ``ndarray.nbytes`` held by a built component-table set.

    This is the *measured* counterpart of the model in
    :func:`repro.graph.stats.table1_row`: real storage of the
    per-component tables plus the articulation-point matrix, as built by
    :func:`repro.apsp.composition.build_component_tables`.
    """
    comp = sum(int(t.nbytes) for t in ct.tables)
    ap = int(ct.ap_matrix.nbytes)
    return {
        "component_table_bytes": comp,
        "ap_table_bytes": ap,
        "total_bytes": comp + ap,
    }


def publish_apsp_table_gauges(ct: "ComponentTables", n: int) -> dict:
    """Set the ``memory.apsp.*`` gauges from a built table set.

    Returns the measured dict for callers that also want the numbers.
    The dense figure uses the same 8-byte entries the tables hold, so the
    reduced-vs-dense comparison is entry-for-entry fair.
    """
    meas = measured_component_bytes(ct)
    _metrics.gauge("memory.apsp.component_table_bytes").set(meas["component_table_bytes"])
    _metrics.gauge("memory.apsp.ap_table_bytes").set(meas["ap_table_bytes"])
    _metrics.gauge("memory.apsp.oracle_bytes").set(meas["total_bytes"])
    _metrics.gauge("memory.apsp.dense_bytes").set(n * n * 8)
    return meas


def format_bytes(b: float) -> str:
    """Human-readable byte count (``1.5 KiB``, ``3.2 MiB``, …)."""
    b = float(b)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(b) < 1024.0 or unit == "GiB":
            return f"{b:.0f} {unit}" if unit == "B" else f"{b:.2f} {unit}"
        b /= 1024.0
    return f"{b:.2f} GiB"  # pragma: no cover - unreachable
