"""Work traces: record real algorithm work once, replay on any platform.

Running the full MCB/APSP pipeline once per platform would repeat the
(identical) numerical work four times.  Instead the pipeline runs *once*,
recording every schedulable unit (a shortest-path tree build, one tree's
Algorithm-3 label pass, a candidate-scan burst, a witness-update sweep) as
``(work_bytes, parallel_items)``; the trace is then replayed through each
platform's devices to obtain its virtual makespan.

A queue stage drains through the double-ended work queue of Indarapu et
al. [19] (Sections 2.3 and 3.4): its units sorted by size, the GPU grabs
batches from the big end and the CPU from the small end, each in
proportion to its thread count, until the queue drains — "arriving at
this proportion analytically is not easy", so the split is dynamic: the
device whose virtual clock is furthest behind grabs next (:func:`race`).
Platform differences (Figures 5/6, Table 2) thus come from scheduling,
as on the paper's machine: batch grabs from both ends,
occupancy-dependent GPU costs, per-stage barriers.

The replay costs one pass per stage, not a call chain per grab.  The
queue is one work-sorted list with two cursors, so a grab is a slice; a
device draining it alone takes fixed slices, priced in one pass and
folded onto its clock (:meth:`~repro.hetero.device.VirtualClock.advance_all`),
and several devices race over local clocks.  Every virtual time is
bit-identical to charging one grab at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import itemgetter

from ..obs import metrics as _metrics
from .device import Device, cpu_device, gpu_device, sequential_device

__all__ = [
    "Stage",
    "WorkTrace",
    "Platform",
    "table2_platforms",
    "race",
    "simulate_trace",
    "SimulationResult",
]

_C_GRABS_FRONT = _metrics.counter("queue.grabs.front")
_C_GRABS_BACK = _metrics.counter("queue.grabs.back")


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

    def new_stage(self, kind: str, divisible: bool = False) -> Stage:
        st = Stage(kind=kind, divisible=divisible)
        self.stages.append(st)
        return st


@dataclass
class Platform:
    """A named set of devices sharing one work queue."""

    name: str
    devices: list[Device] = field(default_factory=list)

    # The four implementations of Table 2 / Figures 5-6.

    @staticmethod
    def sequential() -> "Platform":
        return Platform("sequential", [sequential_device()])

    @staticmethod
    def multicore() -> "Platform":
        return Platform("multicore", [cpu_device()])

    @staticmethod
    def gpu() -> "Platform":
        return Platform("gpu", [gpu_device()])

    @staticmethod
    def heterogeneous() -> "Platform":
        return Platform("cpu+gpu", [cpu_device(), gpu_device()])

    @property
    def total_time(self) -> float:
        return max((d.clock.now for d in self.devices), default=0.0)

    def reset(self) -> None:
        for d in self.devices:
            d.clock.reset()


def table2_platforms() -> list[Platform]:
    """Fresh sequential, multicore, GPU and CPU+GPU platforms, in Table 2's
    column order."""
    return [Platform.sequential(), Platform.multicore(), Platform.gpu(), Platform.heterogeneous()]


@dataclass
class SimulationResult:
    """Virtual-time outcome of replaying a trace on a platform."""

    platform: str
    total_time: float
    stage_times: dict[str, float]
    device_busy: dict[str, float]


def simulate_trace(
    trace: WorkTrace, platform: Platform, record_samples: bool = False
) -> SimulationResult:
    """Replay ``trace`` through ``platform``; returns its virtual makespan.

    Each queue stage's ``(work, items)`` pairs race through the
    double-ended queue (:func:`race`), each divisible stage is split in
    bandwidth-proportional shares, and each batch only charges its
    device's modeled cost; nothing runs.  The ``queue.grabs.front`` /
    ``.back`` and ``queue.device.<name>.units`` counters are added once
    per replay.  ``record_samples=True`` switches every device clock to
    per-interval accounting (``False`` switches it off), so after the
    replay ``{d.name: d.clock for d in platform.devices}`` can be handed to
    :func:`repro.obs.export.write_chrome_trace` as virtual device tracks.
    """
    devices = platform.devices
    if not devices:
        raise ValueError("platform needs at least one device")
    platform.reset()
    clocks = [d.clock for d in devices]
    for c in clocks:
        c.record_samples = record_samples
    picks: list[int] = []
    sizes: list[int] = []
    stage_times: dict[str, float] = {}
    now = 0.0  # the platform's time: its latest device clock
    for stage in trace.stages:
        if not stage.units:
            continue
        if stage.divisible:
            _run_divisible(devices, stage)
        else:
            p, s = race(devices, stage.units, stage.kind)
            picks += p
            sizes += s
        end = max([c.now for c in clocks])
        stage_times[stage.kind] = stage_times.get(stage.kind, 0.0) + end - now
        now = end
    _count_grabs(devices, picks, sizes)
    return SimulationResult(
        platform=platform.name,
        total_time=now,
        stage_times=stage_times,
        device_busy={d.name: d.clock.busy for d in devices},
    )


def race(
    devices: list[Device], units: list[tuple[float, int]], kind: str
) -> tuple[list[int], list[int]]:
    """Drain one queue stage; returns each grab's device index and batch
    size, in grab order.

    A stage is a synchronisation barrier: all devices first align to the
    same virtual time (dependent stages cannot overlap — the paper notes
    this limits available parallelism).  The units are sorted stably on
    work alone (front = smallest); then the device with the earliest clock
    (the first listed on ties) takes up to ``batch_size`` units from its
    end (a back grab lists the biggest unit first) and is charged
    ``batch_cost`` of their summed work and ``Σ max(items, 1)``, until the
    queue is empty.  Each batch's work is the builtin ``sum`` in grab
    order: 3.12's ``sum`` compensates rounding, so any other summation
    would move the virtual times.
    """
    q = sorted(units, key=_work)
    if len(devices) == 1:
        return _drain(devices[0], q, kind)
    start = max([d.clock.now for d in devices])
    for d in devices:
        d.clock.wait_until(start)
    grabs = _race(devices, q, kind)
    end = max([d.clock.now for d in devices])
    for d in devices:
        d.clock.wait_until(end)
    return grabs


_work = itemgetter(0)


def _drain(dev: Device, q: list, kind: str) -> tuple[list[int], list[int]]:
    """One device drains the queue alone: its grabs are fixed slices from
    its end, priced in one pass and folded onto its clock."""
    b = max(dev.batch_size, 1)
    if dev.takes_from_back:
        q.reverse()
    items = [i if i > 1 else 1 for _, i in q]
    if b == 1:
        # The builtin sum of a one-unit batch is its int start plus the
        # unit: ``0.0 + w``, and ``i`` for an item count of at least 1.
        works = [0.0 + w for w, _ in q]
    else:
        works = _sums([w for w, _ in q], b)
        items = _sums(items, b)
    dev.clock.advance_all(list(map(dev.batch_cost, works, items)), kind)
    sizes = [b] * (len(q) // b)
    if len(q) % b:
        sizes.append(len(q) % b)
    return [0] * len(sizes), sizes


def _sums(xs: list, b: int) -> list:
    """The builtin ``sum`` of each consecutive ``b``-slice of ``xs``."""
    return [sum(xs[i : i + b]) for i in range(0, len(xs), b)]


def _race(devices: list[Device], q: list, kind: str) -> tuple[list[int], list[int]]:
    """Several devices race for the queue over local clocks and two
    cursors; each device's costs are folded onto its clock at the end."""
    nows = [d.clock.now for d in devices]
    costs: list[list[float]] = [[] for _ in devices]
    batch = [max(d.batch_size, 1) for d in devices]
    back = [d.takes_from_back for d in devices]
    price = [d.batch_cost for d in devices]
    works = [w for w, _ in q]
    items = [i if i > 1 else 1 for _, i in q]
    earliest, order = nows.__getitem__, range(len(devices))
    picks: list[int] = []
    sizes: list[int] = []
    lo, hi = 0, len(q)
    while lo < hi:
        j = min(order, key=earliest)
        if back[j]:
            cut = max(hi - batch[j], lo)
            cost = price[j](sum(works[cut:hi][::-1]), sum(items[cut:hi][::-1]))
            sizes.append(hi - cut)
            hi = cut
        else:
            cut = min(lo + batch[j], hi)
            cost = price[j](sum(works[lo:cut]), sum(items[lo:cut]))
            sizes.append(cut - lo)
            lo = cut
        nows[j] += cost
        costs[j].append(cost)
        picks.append(j)
    for d, c in zip(devices, costs):
        d.clock.advance_all(c, kind)
    return picks, sizes


def _count_grabs(devices: list[Device], picks: list[int], sizes: list[int]) -> None:
    """Add one replay's grabs per end and units per device to the counters."""
    front = back = 0
    alone = len(devices) == 1
    for j, d in enumerate(devices):
        grabs = picks.count(j)
        if d.takes_from_back:
            back += grabs
        else:
            front += grabs
        # The sizes of j's grabs; a lone device made every grab.
        units = sum(sizes) if alone else sum(compress(sizes, map(j.__eq__, picks)))
        if units:
            _metrics.counter(f"queue.device.{d.name}.units").inc(units)
    _C_GRABS_FRONT.inc(front)
    _C_GRABS_BACK.inc(back)


def _run_divisible(devices: list[Device], stage: Stage) -> None:
    """Perfectly-divisible stage: bandwidth-proportional shares."""
    if len(devices) > 1:
        start = max([d.clock.now for d in devices])
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
    for d in devices:
        d.clock.advance(duration + d.dispatch_overhead, stage.kind)
