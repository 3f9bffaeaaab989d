"""Event-driven heterogeneous executor.

Devices race for batches from the double-ended work queue: at every step
the device whose virtual clock is furthest behind grabs its next batch
from its end, executes it for real, and advances its clock by the modeled
cost.  The makespan (max device clock at drain, relative to the common
start) is the stage's heterogeneous runtime; per-device busy time gives
the utilisation split.

``Platform`` bundles device sets for the four Table-2 implementations:
sequential, multicore CPU, GPU-only, and CPU+GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import Device, cpu_device, sequential_device
from .simt import gpu_device
from .workqueue import DequeWorkQueue, WorkUnit

__all__ = ["StageReport", "Platform", "HeterogeneousExecutor"]


@dataclass
class StageReport:
    """Outcome of draining one work-unit stage."""

    makespan: float
    per_device_busy: dict[str, float]
    per_device_units: dict[str, int]
    n_units: int

    @property
    def bottleneck(self) -> str:
        return max(self.per_device_busy, key=self.per_device_busy.get)  # type: ignore[arg-type]


@dataclass
class Platform:
    """A named set of devices sharing one work queue."""

    name: str
    devices: list[Device] = field(default_factory=list)

    # ------------------------------------------------------------- #
    # The four implementations of Table 2 / Figures 5-6.
    # ------------------------------------------------------------- #

    @staticmethod
    def sequential() -> "Platform":
        return Platform("sequential", [sequential_device()])

    @staticmethod
    def multicore(n_threads: int = 40) -> "Platform":
        return Platform("multicore", [cpu_device(n_threads)])

    @staticmethod
    def gpu() -> "Platform":
        return Platform("gpu", [gpu_device()])

    @staticmethod
    def heterogeneous(n_threads: int = 40) -> "Platform":
        return Platform("cpu+gpu", [cpu_device(n_threads), gpu_device()])

    @property
    def total_time(self) -> float:
        return max((d.clock.now for d in self.devices), default=0.0)

    def reset(self) -> None:
        for d in self.devices:
            d.clock.reset()


class HeterogeneousExecutor:
    """Drains stages of work units through a platform's devices."""

    def __init__(self, platform: Platform) -> None:
        if not platform.devices:
            raise ValueError("platform needs at least one device")
        self.platform = platform
        self.results: dict[int, object] = {}

    def run_stage(self, units: list[WorkUnit], sort: bool = True) -> StageReport:
        """Drain ``units``; returns the stage report.

        A stage is a synchronisation barrier: all devices first align to
        the same virtual time (dependent stages cannot overlap — the
        paper notes this limits available parallelism), then race the
        queue until it is empty.
        """
        devices = self.platform.devices
        start = max(d.clock.now for d in devices)
        for d in devices:
            d.clock.wait_until(start)
        queue = DequeWorkQueue(units, sort=sort)
        busy = {d.name: 0.0 for d in devices}
        count = {d.name: 0 for d in devices}
        while not queue.empty:
            dev = min(devices, key=lambda d: d.clock.now)
            batch = queue.grab(dev.batch_size, dev.takes_from_back, device=dev.name)
            if not batch:
                break
            t0 = dev.clock.now
            results = dev.execute(batch)
            busy[dev.name] += dev.clock.now - t0
            count[dev.name] += len(batch)
            for u, r in zip(batch, results):
                self.results[u.uid] = r
        end = max(d.clock.now for d in devices)
        for d in devices:
            d.clock.wait_until(end)
        return StageReport(
            makespan=end - start,
            per_device_busy=busy,
            per_device_units=count,
            n_units=len(units),
        )
