"""Process-wide named counters, gauges, and histograms.

A single :class:`MetricsRegistry` instance backs the module-level helpers;
instruments are created on first use and live for the process (the usual
Prometheus-style model).  The increments on the pipeline's hot paths —
adjacency-cache hits, chunk dispatches, witness xors, invariant checks —
are unconditional: an integer add through a preresolved instrument is far
below the cost of the work it counts, so unlike spans there is no
enable/disable knob to get wrong.

:func:`snapshot` returns a plain ``{name: value}`` dict (histograms as
``{count, sum, min, max}`` sub-dicts) suitable for JSON reports;
:func:`metrics_diff` subtracts two snapshots so a benchmark can report
exactly the activity of its own window, and :func:`moved_metrics` keeps
only the instruments that window moved.
"""

from __future__ import annotations

import math
import os
import random
import threading
import zlib

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "metrics_diff",
    "moved_metrics",
    "reset_metrics",
]


class Counter:
    """Monotonically increasing integer (resettable only via the registry)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name}: cannot add negative {n}")
        self.value += n


class Gauge:
    """Last-write-wins float (byte footprints of the last run)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)


class Histogram:
    """Streaming count / sum / min / max of observed values.

    **Retention-cap semantics.**  The first :data:`RETAIN_CAP`
    observations are retained verbatim, so :meth:`percentile` answers
    exactly.  Beyond the cap, the aggregates (count/sum/min/max/mean)
    stay exact while the retained set switches to *reservoir sampling*
    (Vitter's Algorithm R): each subsequent observation replaces a
    random retained sample with probability ``RETAIN_CAP / count``, so
    the reservoir remains a uniform sample of the whole stream and
    :meth:`percentile` stays an unbiased estimate of the true tail —
    rather than silently describing only the first 4096 observations.
    The reservoir's RNG is seeded from ``REPRO_SEED`` and the instrument
    name, so runs with a pinned seed retain bit-identical samples.
    """

    __slots__ = ("name", "count", "sum", "min", "max", "samples", "_rng")

    #: Retention cap: exact percentiles below it, uniform reservoir above.
    RETAIN_CAP = 4096
    #: Backwards-compatible alias for the cap's historical name.
    MAX_SAMPLES = RETAIN_CAP

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self._rng: random.Random | None = None  # armed at first overflow

    def _reservoir_rng(self) -> random.Random:
        if self._rng is None:
            seed = int(os.environ.get("REPRO_SEED", "0") or "0")
            self._rng = random.Random((seed << 32) ^ zlib.crc32(self.name.encode()))
        return self._rng

    def observe(self, v: float) -> None:
        v = float(v)
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v
        if len(self.samples) < self.RETAIN_CAP:
            self.samples.append(v)
        else:
            j = self._reservoir_rng().randrange(self.count)
            if j < self.RETAIN_CAP:
                self.samples[j] = v

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0–100) with linear interpolation.

        A single sample answers every ``p`` with itself; all-equal samples
        answer with the common value.  Raises :class:`ValueError` for an
        empty histogram or ``p`` outside [0, 100].
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p!r} outside [0, 100]")
        if not self.samples:
            raise ValueError(f"histogram {self.name!r} has no samples")
        ordered = sorted(self.samples)
        rank = (len(ordered) - 1) * (p / 100.0)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class MetricsRegistry:
    """Name → instrument map with snapshot/diff/reset.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name with a different kind raises, catching
    copy-paste instrumentation mistakes early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, cls):
        inst = self._instruments.get(name)
        if inst is not None:
            if not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = cls(name)
                self._instruments[name] = inst
            elif not isinstance(inst, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(inst).__name__}, not {cls.__name__}"
                )
            return inst

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self, prefix: str = "") -> dict:
        """``{name: value}`` for every instrument (histograms as dicts)."""
        with self._lock:
            items = list(self._instruments.items())
        out: dict = {}
        for name, inst in sorted(items):
            if prefix and not name.startswith(prefix):
                continue
            out[name] = inst.as_dict() if isinstance(inst, Histogram) else inst.value
        return out

    def reset(self) -> None:
        """Zero every instrument (the instruments themselves survive)."""
        with self._lock:
            for inst in self._instruments.values():
                if isinstance(inst, Counter):
                    inst.value = 0
                elif isinstance(inst, Gauge):
                    inst.value = 0.0
                else:
                    inst.count, inst.sum = 0, 0.0
                    inst.min, inst.max = math.inf, -math.inf
                    inst.samples.clear()
                    inst._rng = None  # re-derive the reservoir seed next overflow


def metrics_diff(before: dict, after: dict) -> dict:
    """Activity between two :func:`snapshot` calls.

    Counters subtract; gauges report the ``after`` value; histograms
    subtract count/sum (min/max are window-insensitive and pass through
    from ``after``).  Instruments absent from ``before`` count from zero.
    """
    out: dict = {}
    for name, val in after.items():
        prev = before.get(name)
        if isinstance(val, dict):
            pc = prev.get("count", 0) if isinstance(prev, dict) else 0
            ps = prev.get("sum", 0.0) if isinstance(prev, dict) else 0.0
            out[name] = {**val, "count": val["count"] - pc, "sum": val["sum"] - ps}
        elif isinstance(prev, (int, float)):
            out[name] = val - prev if isinstance(val, int) else val
        else:
            out[name] = val
    return out


def moved_metrics(before: dict, after: dict) -> dict:
    """The part of :func:`metrics_diff` that the window moved.

    A counter moved when its delta is not 0, a histogram when it observed
    a sample, and a gauge when its value differs from its ``before`` value
    (0.0, a fresh gauge's value, when absent).
    """
    out: dict = {}
    for name, val in metrics_diff(before, after).items():
        if isinstance(val, dict):
            moved = val["count"] != 0
        elif isinstance(val, int):
            moved = val != 0
        else:
            moved = val != before.get(name, 0.0)
        if moved:
            out[name] = val
    return out


_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry backing the module helpers."""
    return _REGISTRY


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    return _REGISTRY.histogram(name)


def snapshot(prefix: str = "") -> dict:
    return _REGISTRY.snapshot(prefix)


def reset_metrics() -> None:
    _REGISTRY.reset()
