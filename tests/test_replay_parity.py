"""The trace replay and ``run_stage`` against the loop they replaced, bit for bit.

Table 2's virtual seconds come from replaying a recorded work trace on
each platform model.  The replay drains each stage's ``(work, items)``
pairs through one race loop over a two-cursor queue; the reference below
is the path it replaced: one :class:`WorkUnit` per pair, a deque popped
one unit at a time, the old ``run_stage`` loop with per-grab telemetry,
and ``_run_divisible`` pricing a probe ``WorkUnit``.  Every virtual time,
stage time, busy time, clock sample, ``queue.*`` metric delta and
``queue.grab`` event must come out the same, on the Table-2 and Figure-2
traces and on a seeded random corpus.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque

import pytest

from repro import datasets
from repro.hetero import (
    HeterogeneousExecutor,
    Platform,
    SIMTDevice,
    StageReport,
    WorkTrace,
    WorkUnit,
    apsp_with_trace,
    cpu_device,
    gpu_device,
    mcb_with_trace,
    sequential_device,
    simulate_trace,
)
from repro.obs import events as _events
from repro.obs import metrics as _metrics

# --------------------------------------------------------------------- #
# Reference: the WorkUnit-per-pair replay
# --------------------------------------------------------------------- #


class ReferenceQueue:
    """The size-sorted deque, popped one unit per slot of a grab."""

    def __init__(self, units: list[WorkUnit], sort: bool = True) -> None:
        ordered = sorted(units, key=lambda u: u.work) if sort else list(units)
        self._q: deque[WorkUnit] = deque(ordered)

    @property
    def empty(self) -> bool:
        return not self._q

    def grab(self, batch_size: int, from_back: bool, device: str = "") -> list[WorkUnit]:
        out: list[WorkUnit] = []
        for _ in range(max(1, batch_size)):
            if not self._q:
                break
            out.append(self._q.pop() if from_back else self._q.popleft())
        if out:
            _metrics.counter("queue.grabs.back" if from_back else "queue.grabs.front").inc()
            _metrics.histogram("queue.grab.batch").observe(len(out))
            if device:
                _metrics.counter(f"queue.device.{device}.units").inc(len(out))
            if _events.enabled():
                _events.emit(
                    "queue.grab",
                    end="back" if from_back else "front",
                    batch=len(out),
                    device=device,
                    remaining=len(self._q),
                )
        return out


def reference_cost(dev, units: list[WorkUnit]) -> float:
    work = sum(u.work for u in units)
    if isinstance(dev, SIMTDevice):
        items = sum(max(u.items, 1) for u in units)
        bw = dev.effective_bandwidth * dev.occupancy(items)
        return dev.dispatch_overhead + dev.divergence_penalty * work / bw
    return dev.dispatch_overhead + work / dev.effective_bandwidth


def reference_execute(dev, units: list[WorkUnit]) -> list:
    results = [u.run() for u in units]
    dev.clock.advance(reference_cost(dev, units), label=units[0].label if units else "")
    return results


def reference_run_stage(
    platform: Platform, units: list[WorkUnit], results: dict, sort: bool = True
) -> StageReport:
    devices = platform.devices
    start = max(d.clock.now for d in devices)
    for d in devices:
        d.clock.wait_until(start)
    queue = ReferenceQueue(units, sort=sort)
    busy = {d.name: 0.0 for d in devices}
    count = {d.name: 0 for d in devices}
    while not queue.empty:
        dev = min(devices, key=lambda d: d.clock.now)
        batch = queue.grab(dev.batch_size, dev.takes_from_back, device=dev.name)
        if not batch:
            break
        t0 = dev.clock.now
        out = reference_execute(dev, batch)
        busy[dev.name] += dev.clock.now - t0
        count[dev.name] += len(batch)
        for u, r in zip(batch, out):
            results[u.uid] = r
    end = max(d.clock.now for d in devices)
    for d in devices:
        d.clock.wait_until(end)
    return StageReport(
        makespan=end - start,
        per_device_busy=busy,
        per_device_units=count,
        n_units=len(units),
    )


def _noop() -> None:
    return None


def reference_run_divisible(platform: Platform, stage) -> None:
    devices = platform.devices
    start = max(d.clock.now for d in devices)
    for d in devices:
        d.clock.wait_until(start)
    work = stage.total_work
    items = sum(i for _, i in stage.units)
    rates = []
    for d in devices:
        probe = WorkUnit(uid=-1, fn=_noop, work=1.0, items=max(1, items // len(devices)))
        inv_bw = reference_cost(d, [probe]) - d.dispatch_overhead
        rates.append(1.0 / inv_bw if inv_bw > 0 else d.effective_bandwidth)
    total_rate = sum(rates)
    duration = work / total_rate if total_rate else 0.0
    for d, r in zip(devices, rates):
        d.clock.advance(duration + d.dispatch_overhead, label=stage.kind)


def reference_simulate(trace: WorkTrace, platform: Platform, record_samples: bool = False):
    platform.reset()
    if record_samples:
        for d in platform.devices:
            d.clock.record_samples = True
    stage_times: dict[str, float] = {}
    uid = 0
    for stage in trace.stages:
        if not stage.units:
            continue
        start = platform.total_time
        if stage.divisible:
            reference_run_divisible(platform, stage)
        else:
            units = []
            for work, items in stage.units:
                units.append(WorkUnit(uid=uid, fn=_noop, work=work, items=items, label=stage.kind))
                uid += 1
            reference_run_stage(platform, units, {})
        stage_times[stage.kind] = stage_times.get(stage.kind, 0.0) + platform.total_time - start
    return (
        platform.name,
        platform.total_time,
        stage_times,
        {d.name: d.clock.busy for d in platform.devices},
    )


# --------------------------------------------------------------------- #
# Observation: exact state, metric deltas and the grab event sequence
# --------------------------------------------------------------------- #


def _bits(x):
    """Floats as hex strings, dicts as item lists: ``==`` is bit-identity
    and key order counts."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return [(k, _bits(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _clocks(platform: Platform) -> list:
    return _bits(
        [
            (d.name, d.clock.now, d.clock.busy, d.clock.record_samples,
             [(s.label, s.start, s.duration) for s in d.clock.samples])
            for d in platform.devices
        ]
    )


class _GrabRecorder:
    """In-memory event sink keeping each ``queue.grab`` in emission order."""

    def __init__(self) -> None:
        self.grabs: list[tuple] = []

    def emit(self, kind: str, **f) -> None:
        if kind == "queue.grab":
            self.grabs.append((f["end"], f["batch"], f["device"], f["remaining"]))


def _observe(monkeypatch, fn):
    """``fn()``'s value, its ``queue.*`` metric deltas and its grab events."""
    rec = _GrabRecorder()
    before = _metrics.snapshot("queue.")
    with monkeypatch.context() as m:
        m.setattr(_events, "_sink", rec)
        out = fn()
    return out, _bits(_metrics.metrics_diff(before, _metrics.snapshot("queue."))), rec.grabs


def _three_devices() -> Platform:
    """Three devices with equal start clocks and unequal batch sizes: the
    general earliest-clock pick, ties to the first listed."""
    return Platform("three", [cpu_device(16), gpu_device(8), sequential_device()])


PLATFORMS = {
    "sequential": Platform.sequential,
    "multicore": Platform.multicore,
    "gpu": Platform.gpu,
    "cpu+gpu": Platform.heterogeneous,
    "three": _three_devices,
}


def assert_replays_match(monkeypatch, trace: WorkTrace, record_samples: bool, platforms=PLATFORMS):
    for name, make in platforms.items():
        def replay(path):
            plat = make()
            res = path(trace, plat, record_samples=record_samples)
            if not isinstance(res, tuple):
                res = (res.platform, res.total_time, res.stage_times, res.device_busy)
            return _bits(res), _clocks(plat)

        ref, ref_metrics, ref_grabs = _observe(monkeypatch, lambda: replay(reference_simulate))
        new, new_metrics, new_grabs = _observe(monkeypatch, lambda: replay(simulate_trace))
        assert new[0] == ref[0], f"{name}: SimulationResult differs"
        assert new[1] == ref[1], f"{name}: device clocks or samples differ"
        assert new_metrics == ref_metrics, f"{name}: queue.* metric deltas differ"
        assert new_grabs == ref_grabs, f"{name}: queue.grab events differ"


# --------------------------------------------------------------------- #
# Traces
# --------------------------------------------------------------------- #

WORKS = (0.0, 1.0, 3.0, 2.0**53, 1e6, 2.5e6)
ITEMS = (0, 1, 7, 4096, 30_720, 200_000)
KINDS = ("spt", "labels", "scan", "update", "dijkstra")


def random_trace(seed: int) -> WorkTrace:
    """Zero work, items 0, equal-work ties with different items, works
    whose sum depends on its order, empty and divisible stages."""
    rng = random.Random(seed)
    tr = WorkTrace()
    for _ in range(rng.randint(1, 6)):
        st = tr.new_stage(rng.choice(KINDS), divisible=rng.random() < 0.25)
        for _ in range(rng.choice((0, 1, 2, rng.randint(3, 90)))):
            w = rng.choice(WORKS) if rng.random() < 0.6 else rng.uniform(0.0, 1e7)
            st.add(w, rng.choice(ITEMS))
    return tr


def _graph(dataset: str, seed: int | None):
    spec = next(s for s in datasets.TABLE1 if s.name == dataset)
    if seed is not None:
        spec = dataclasses.replace(spec, seed=seed)
    return spec.generate(0.02)


# table2-mcb's traces run on the four Table-2 platforms; the general
# three-device race is covered by the smaller traces below.
@pytest.mark.parametrize(
    "seed, use_ear, record_samples",
    [(None, True, True), (None, False, False), (101, True, False), (101, False, False)],
    ids=["spec-ear-samples", "spec-no-ear", "101-ear", "101-no-ear"],
)
def test_table2_traces(monkeypatch, seed, use_ear, record_samples):
    _, trace = mcb_with_trace(_graph("as-22july06", seed), use_ear=use_ear)
    table2 = {k: v for k, v in PLATFORMS.items() if k != "three"}
    assert_replays_match(monkeypatch, trace, record_samples, table2)


@pytest.mark.parametrize("dataset", ["OPF_3754", "Wordnet3"], ids=["fig2-core", "fig2-chain"])
def test_fig2_traces(monkeypatch, dataset):
    _, trace = apsp_with_trace(_graph(dataset, None))
    assert_replays_match(monkeypatch, trace, record_samples=True)


def test_random_corpus(monkeypatch):
    for seed in range(300):
        assert_replays_match(monkeypatch, random_trace(seed), record_samples=bool(seed % 2))


def test_equal_work_ties_keep_their_recorded_order(monkeypatch):
    """The sort is stable on work alone: equal-work units keep the order
    they were recorded in, so the GPU's batches (and its occupancy) are
    those of the reference, not of a queue sorted by (work, items)."""
    trace = WorkTrace()
    st = trace.new_stage("labels")
    for i in range(40):
        st.add(1e6, 400 if i % 2 else 1)  # the GPU's 32 take 6,416 or 8,012 items
    assert_replays_match(monkeypatch, trace, record_samples=True)

    regrouped = WorkTrace()
    regrouped.new_stage("labels").units = sorted(st.units)
    het = Platform.heterogeneous
    assert (
        reference_simulate(regrouped, het())[1] != reference_simulate(trace, het())[1]
    ), "the tie case no longer tells the two sort keys apart"


# --------------------------------------------------------------------- #
# run_stage with real work units
# --------------------------------------------------------------------- #


def _work_units(rng: random.Random, n: int, log: list, first_uid: int) -> list[WorkUnit]:
    def make(uid):
        def fn():
            log.append(uid)
            return uid * 0.5
        return fn

    return [
        WorkUnit(
            uid=first_uid + i,
            fn=make(first_uid + i),
            work=rng.choice(WORKS) if rng.random() < 0.6 else rng.uniform(0.0, 1e7),
            items=rng.choice(ITEMS),
            label=rng.choice(KINDS),
        )
        for i in range(n)
    ]


@pytest.mark.parametrize("name", sorted(PLATFORMS))
def test_run_stage_with_real_units(monkeypatch, name):
    """Several stages on one executor: reports, results (in execution
    order), the order the units ran in, clocks, metrics and events."""

    def drive(new: bool):
        rng = random.Random(name)
        plat = PLATFORMS[name]()
        for d in plat.devices:
            d.clock.record_samples = True
        log: list[int] = []
        results: dict = {}
        ex = HeterogeneousExecutor(plat)
        reports = []
        uid = 0
        for k in range(12):
            units = _work_units(rng, rng.choice((1, 5, rng.randint(6, 70))), log, uid)
            uid += len(units)
            sort = k % 4 != 3
            if new:
                rep = ex.run_stage(units, sort=sort)
            else:
                rep = reference_run_stage(plat, units, results, sort=sort)
            reports.append(dataclasses.astuple(rep))
        got = ex.results if new else results
        return _bits([reports, list(got.items()), log, _clocks(plat)])

    ref = _observe(monkeypatch, lambda: drive(new=False))
    new = _observe(monkeypatch, lambda: drive(new=True))
    assert new[0] == ref[0]
    assert new[1] == ref[1]
    assert new[2] == ref[2]
