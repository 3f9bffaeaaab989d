"""Work traces: record real algorithm work once, replay on any platform.

Running the full MCB/APSP pipeline once per platform would repeat the
(identical) numerical work four times.  Instead the pipeline runs *once*,
recording every schedulable unit (a shortest-path tree build, one tree's
Algorithm-3 label pass, a candidate-scan burst, a witness-update sweep) as
``(work_bytes, parallel_items)``; the trace is then replayed through each
platform's devices and work queue to obtain its virtual makespan.

Replays exercise the real queue dynamics — batch grabs from both ends,
occupancy-dependent GPU costs, per-stage barriers — so platform
differences (Figures 5/6, Table 2) come from scheduling, exactly as on the
paper's machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from .device import Device
from .executor import Platform, race
from .workqueue import DequeWorkQueue

__all__ = ["Stage", "WorkTrace", "simulate_trace", "SimulationResult"]


@dataclass
class Stage:
    """One barrier-separated stage of work units.

    ``divisible=True`` models work that splits perfectly across devices
    (e.g. the batched witness xor sweep), scheduled as bandwidth-
    proportional shares rather than discrete queue grabs.
    """

    kind: str
    units: list[tuple[float, int]] = field(default_factory=list)  # (work, items)
    divisible: bool = False

    def add(self, work: float, items: int = 1) -> None:
        self.units.append((float(work), int(items)))

    @property
    def total_work(self) -> float:
        return float(sum(w for w, _ in self.units))


@dataclass
class WorkTrace:
    """Ordered stages recorded from one real pipeline execution."""

    stages: list[Stage] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def new_stage(self, kind: str, divisible: bool = False) -> Stage:
        st = Stage(kind=kind, divisible=divisible)
        self.stages.append(st)
        return st

    @property
    def total_work(self) -> float:
        return float(sum(s.total_work for s in self.stages))

    def merged(self, kinds: set[str] | None = None) -> dict[str, float]:
        """Total work per stage kind (for phase-breakdown reporting)."""
        out: dict[str, float] = {}
        for s in self.stages:
            if kinds is None or s.kind in kinds:
                out[s.kind] = out.get(s.kind, 0.0) + s.total_work
        return out


@dataclass
class SimulationResult:
    """Virtual-time outcome of replaying a trace on a platform."""

    platform: str
    total_time: float
    stage_times: dict[str, float]
    device_busy: dict[str, float]

    def speedup_over(self, other: "SimulationResult") -> float:
        return other.total_time / self.total_time if self.total_time else float("inf")


def simulate_trace(
    trace: WorkTrace, platform: Platform, record_samples: bool = False
) -> SimulationResult:
    """Replay ``trace`` through ``platform``; returns its virtual makespan.

    Each stage's ``(work, items)`` pairs race through the double-ended
    queue (:func:`repro.hetero.executor.race`) and each batch only charges
    its device's modeled cost; nothing runs.  ``record_samples=True``
    switches every device clock to per-interval accounting (``False``
    switches it off), so after the replay ``{d.name: d.clock for d in
    platform.devices}`` can be handed to
    :func:`repro.obs.export.write_chrome_trace` as virtual device tracks.
    """
    if not platform.devices:
        raise ValueError("platform needs at least one device")
    platform.reset()
    for d in platform.devices:
        d.clock.record_samples = record_samples
    stage_times: dict[str, float] = {}
    for stage in trace.stages:
        if not stage.units:
            continue
        start = platform.total_time
        if stage.divisible:
            _run_divisible(platform, stage)
        else:
            race(platform.devices, DequeWorkQueue(stage.units), partial(_charge, stage.kind))
        stage_times[stage.kind] = (
            stage_times.get(stage.kind, 0.0) + platform.total_time - start
        )
    busy = {d.name: d.clock.busy for d in platform.devices}
    return SimulationResult(
        platform=platform.name,
        total_time=platform.total_time,
        stage_times=stage_times,
        device_busy=busy,
    )


def _charge(kind: str, dev: Device, batch: list[tuple[float, int]]) -> None:
    """Charge one batch of ``(work, items)`` pairs to ``dev``'s clock."""
    # Builtin sum in grab order, as Device.cost: 3.12's sum compensates
    # rounding, so any other summation would move the virtual times.
    work = sum([w for w, _ in batch])
    items = sum([i if i > 1 else 1 for _, i in batch])
    dev.clock.advance(dev.batch_cost(work, items), kind)


def _run_divisible(platform: Platform, stage: Stage) -> None:
    """Perfectly-divisible stage: bandwidth-proportional shares."""
    devices = platform.devices
    start = max(d.clock.now for d in devices)
    for d in devices:
        d.clock.wait_until(start)
    work = stage.total_work
    items = sum(i for _, i in stage.units)
    # Effective rate of each device on this stage (GPU occupancy applies).
    rates = []
    for d in devices:
        # batch_cost(work=1) - overhead == 1/bandwidth_effective
        inv_bw = d.batch_cost(1.0, max(1, items // len(devices))) - d.dispatch_overhead
        rates.append(1.0 / inv_bw if inv_bw > 0 else d.effective_bandwidth)
    total_rate = sum(rates)
    duration = work / total_rate if total_rate else 0.0
    for d, r in zip(devices, rates):
        d.clock.advance(duration + d.dispatch_overhead, label=stage.kind)
