"""Event-driven heterogeneous executor.

Devices race for batches from the double-ended work queue: at every step
the device whose virtual clock is furthest behind grabs its next batch
from its end and advances its clock by the modeled cost (:func:`race`).
The makespan (max device clock at drain, relative to the common start) is
the stage's heterogeneous runtime; per-device busy time gives the
utilisation split.

``Platform`` bundles device sets for the four Table-2 implementations:
sequential, multicore CPU, GPU-only, and CPU+GPU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable

from .device import Device, cpu_device, sequential_device
from .simt import gpu_device
from .workqueue import DequeWorkQueue, WorkUnit, count_grabs

__all__ = ["StageReport", "Platform", "HeterogeneousExecutor", "race"]


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


_clock_now = attrgetter("clock.now")


def race(
    devices: list[Device], queue: DequeWorkQueue, step: Callable[[Device, list], None]
) -> tuple[float, dict[str, int]]:
    """Drain ``queue``; returns the makespan and the units each device took.

    A stage is a synchronisation barrier: all devices first align to the
    same virtual time (dependent stages cannot overlap — the paper notes
    this limits available parallelism), then the device with the earliest
    clock (the first listed on ties) takes its next batch from its end and
    ``step(device, batch)`` charges it, until the queue is empty.
    """
    start = max(d.clock.now for d in devices)
    for d in devices:
        d.clock.wait_until(start)
    units = dict.fromkeys([d.name for d in devices], 0)
    many = len(devices) > 1
    while not queue.empty:
        dev = min(devices, key=_clock_now) if many else devices[0]
        batch = queue.take(dev.batch_size, dev.takes_from_back, dev.name)
        units[dev.name] += len(batch)
        step(dev, batch)
    count_grabs(queue.grabs_front, queue.grabs_back, units)
    end = max(d.clock.now for d in devices)
    for d in devices:
        d.clock.wait_until(end)
    return end - start, units


class HeterogeneousExecutor:
    """Drains stages of work units through a platform's devices."""

    def __init__(self, platform: Platform) -> None:
        if not platform.devices:
            raise ValueError("platform needs at least one device")
        self.platform = platform
        self.results: dict[int, object] = {}

    def run_stage(self, units: list[WorkUnit], sort: bool = True) -> StageReport:
        """Drain ``units`` through :func:`race`, each batch run by
        :meth:`Device.execute` on the device that took it."""
        busy = {d.name: 0.0 for d in self.platform.devices}

        def step(dev: Device, batch: list[WorkUnit]) -> None:
            t0 = dev.clock.now
            for u, r in zip(batch, dev.execute(batch)):
                self.results[u.uid] = r
            busy[dev.name] += dev.clock.now - t0

        makespan, count = race(self.platform.devices, DequeWorkQueue(units, sort=sort), step)
        return StageReport(makespan, busy, count, len(units))
