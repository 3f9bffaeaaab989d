"""Virtual clocks for the simulated heterogeneous platform.

The container this reproduction runs in has one CPU core and no GPU, so
the paper's CPU+GPU timings cannot be measured on real silicon.  Instead
the pipelines run once *for real* (results are exact) and record their
work; :func:`repro.hetero.trace.simulate_trace` replays that work on each
platform and only charges its modeled cost to per-device virtual clocks.
Makespans, device utilisation, and speedups are then read off the clocks.

See DESIGN.md §2 for why this substitution preserves the paper's
observable behaviour (speedup shapes are determined by work division and
queue dynamics, which the replay reproduces grab for grab).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["VirtualClock", "ClockSample"]


@dataclass
class ClockSample:
    """One accounted interval on a device clock."""

    label: str
    start: float
    duration: float


@dataclass
class VirtualClock:
    """Monotone virtual clock with per-interval accounting."""

    now: float = 0.0
    busy: float = 0.0
    samples: list[ClockSample] = field(default_factory=list)
    record_samples: bool = False

    def advance(self, seconds: float, label: str = "") -> None:
        """Charge ``seconds`` of busy time."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        if self.record_samples:
            self.samples.append(ClockSample(label, self.now, seconds))
        self.now += seconds
        self.busy += seconds

    def wait_until(self, t: float) -> None:
        """Idle (synchronise) until virtual time ``t``."""
        if t > self.now:
            self.now = t

    @property
    def utilisation(self) -> float:
        """Busy fraction of elapsed virtual time."""
        return self.busy / self.now if self.now > 0 else 0.0

    def reset(self) -> None:
        self.now = 0.0
        self.busy = 0.0
        self.samples.clear()
