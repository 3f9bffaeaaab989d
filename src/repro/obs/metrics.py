"""Process-wide named counters and gauges.

A single :class:`MetricsRegistry` instance backs the module-level helpers;
instruments are created on first use and live for the process (the usual
Prometheus-style model).  The increments on the pipeline's hot paths —
adjacency-cache hits, chunk dispatches, witness xors, invariant checks —
are unconditional: an integer add through a preresolved instrument is far
below the cost of the work it counts, so unlike spans there is no
enable/disable knob to get wrong.

:func:`snapshot` returns a plain ``{name: value}`` dict suitable for
JSON reports; :func:`metrics_diff` subtracts two snapshots so a benchmark
can report exactly the activity of its own window, and
:func:`moved_metrics` keeps only the instruments that window moved.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
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


class MetricsRegistry:
    """Name → instrument map with snapshot/diff/reset.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name with a different kind raises, catching
    copy-paste instrumentation mistakes early.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Counter | Gauge] = {}

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

    def snapshot(self, prefix: str = "") -> dict:
        """``{name: value}`` for every instrument."""
        with self._lock:
            items = list(self._instruments.items())
        out: dict = {}
        for name, inst in sorted(items):
            if prefix and not name.startswith(prefix):
                continue
            out[name] = inst.value
        return out

    def reset(self) -> None:
        """Zero every instrument (the instruments themselves survive)."""
        with self._lock:
            for inst in self._instruments.values():
                inst.value = 0 if isinstance(inst, Counter) else 0.0


def metrics_diff(before: dict, after: dict) -> dict:
    """Activity between two :func:`snapshot` calls.

    Counters subtract; gauges report the ``after`` value.  Instruments
    absent from ``before`` count from zero.
    """
    out: dict = {}
    for name, val in after.items():
        prev = before.get(name)
        if isinstance(prev, (int, float)):
            out[name] = val - prev if isinstance(val, int) else val
        else:
            out[name] = val
    return out


def moved_metrics(before: dict, after: dict) -> dict:
    """The part of :func:`metrics_diff` that the window moved.

    A counter moved when its delta is not 0, and a gauge when its value
    differs from its ``before`` value (0.0, a fresh gauge's value, when
    absent).
    """
    out: dict = {}
    for name, val in metrics_diff(before, after).items():
        if isinstance(val, int):
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


def snapshot(prefix: str = "") -> dict:
    return _REGISTRY.snapshot(prefix)


def reset_metrics() -> None:
    _REGISTRY.reset()
