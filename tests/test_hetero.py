"""Work queue, device models, the race loop, trace simulation."""

import pytest

from repro.hetero import (
    DequeWorkQueue,
    Device,
    HeteroMCBResult,
    Platform,
    SimulationResult,
    Stage,
    VirtualClock,
    WorkTrace,
    cpu_device,
    gpu_device,
    sequential_device,
    simulate_trace,
    table2_platforms,
)
from repro.hetero.device import GPU_MIN_OCCUPANCY
from repro.obs import metrics as _metrics


def one_stage(works, items=1):
    """A trace of one queue stage holding a ``(work, items)`` unit per work."""
    tr = WorkTrace()
    st = tr.new_stage("units")
    for w in works:
        st.add(w, items)
    return tr


class TestWorkQueue:
    def test_sorted_small_front_big_back(self):
        q = DequeWorkQueue([(5.0, 1), (1.0, 2), (3.0, 3)])
        front = q.take(1, from_back=False)
        back = q.take(1, from_back=True)
        assert front == [(1.0, 2)]
        assert back == [(5.0, 1)]

    def test_conservation(self):
        q = DequeWorkQueue([(1.0, i) for i in range(17)])
        seen = []
        while not q.empty:
            seen += q.take(3, from_back=bool(len(seen) % 2))
        assert sorted(i for _, i in seen) == list(range(17))

    def test_batch_bigger_than_queue(self):
        q = DequeWorkQueue([(1.0, 1), (2.0, 1)])
        got = q.take(10, from_back=False)
        assert len(got) == 2 and q.empty

    def test_grab_counters(self):
        q = DequeWorkQueue([(1.0, 1)] * 4)
        q.take(1, from_back=False)
        q.take(1, from_back=True)
        assert q.grabs_front == 1 and q.grabs_back == 1


class TestClockAndDevices:
    def test_clock_advance_and_utilisation(self):
        c = VirtualClock()
        c.advance(2.0)
        c.wait_until(4.0)
        assert c.now == 4.0 and c.busy == 2.0
        # Utilisation, the busy fraction of elapsed virtual time.
        assert c.busy / c.now == pytest.approx(0.5)

    def test_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_clock_samples(self):
        c = VirtualClock(record_samples=True)
        c.advance(1.0, label="x")
        assert c.samples[0].label == "x"
        c.reset()
        assert c.now == 0.0 and not c.samples

    def test_device_cost_linear_in_work(self):
        d = Device(name="d", effective_bandwidth=100.0, dispatch_overhead=1.0)
        one = d.batch_cost(10.0, 1)
        two = d.batch_cost(20.0, 2)
        assert two - one == pytest.approx(0.1)

    def test_device_execute_advances_clock(self):
        plat = Platform.sequential()
        d = plat.devices[0]
        simulate_trace(one_stage([d.effective_bandwidth]), plat)  # exactly 1 second
        assert d.clock.now == pytest.approx(1.0)
        assert d.clock.busy == pytest.approx(1.0)

    def test_gpu_occupancy_monotone(self):
        g = gpu_device()
        assert g.occupancy(10) < g.occupancy(10_000) <= 1.0
        assert g.occupancy(0) == GPU_MIN_OCCUPANCY
        assert g.occupancy(10**9) == 1.0

    def test_gpu_small_batch_penalised(self):
        g = gpu_device()
        small = g.batch_cost(1e6, 16)
        big = g.batch_cost(1e6, 100_000)
        assert small > big

    def test_multicore_faster_than_sequential(self):
        assert cpu_device().batch_cost(1e9, 1) < sequential_device().batch_cost(1e9, 1)

    def test_platform_presets(self):
        assert len(Platform.sequential().devices) == 1
        assert len(Platform.heterogeneous().devices) == 2
        names = {d.name for d in Platform.heterogeneous().devices}
        assert names == {"cpu", "gpu"}
        assert [p.name for p in table2_platforms()] == [
            "sequential", "multicore", "gpu", "cpu+gpu",
        ]


class TestExecutor:
    """One queue stage drained by the race loop, as every replay runs it."""

    def test_every_unit_executed_once(self):
        plat = Platform.heterogeneous()
        counters = [_metrics.counter(f"queue.device.{d.name}.units") for d in plat.devices]
        before = sum(c.value for c in counters)
        res = simulate_trace(one_stage([1e6] * 33), plat)
        assert sum(c.value for c in counters) - before == 33
        assert res.total_time > 0

    def test_stage_is_barrier(self):
        plat = Platform.heterogeneous()
        simulate_trace(one_stage([1e9]), plat)
        times = {d.clock.now for d in plat.devices}
        assert len(times) == 1  # all aligned after the stage

    def test_empty_platform_rejected(self):
        with pytest.raises(ValueError):
            simulate_trace(one_stage([1.0]), Platform("none", []))

    def test_hetero_beats_single_device_on_big_stage(self):
        trace = one_stage([1e8] * 64, items=50_000)
        t = {}
        for plat in (Platform.sequential(), Platform.heterogeneous()):
            t[plat.name] = simulate_trace(trace, plat).total_time
        assert t["cpu+gpu"] < t["sequential"]


class TestTraceSimulation:
    def make_trace(self):
        tr = WorkTrace()
        st = tr.new_stage("labels")
        for _ in range(50):
            st.add(1e7, 5000)
        tr.new_stage("update", divisible=True).add(5e7, 100_000)
        return tr

    def test_total_work(self):
        tr = self.make_trace()
        assert tr.total_work == pytest.approx(50 * 1e7 + 5e7)
        assert tr.stages[0].total_work == pytest.approx(5e8)

    def test_simulation_deterministic(self):
        tr = self.make_trace()
        a = simulate_trace(tr, Platform.heterogeneous())
        b = simulate_trace(tr, Platform.heterogeneous())
        assert a.total_time == b.total_time

    def test_speedup_ordering(self):
        tr = self.make_trace()
        res = {
            name: simulate_trace(tr, plat).total_time
            for name, plat in [
                ("seq", Platform.sequential()),
                ("mc", Platform.multicore()),
                ("gpu", Platform.gpu()),
                ("het", Platform.heterogeneous()),
            ]
        }
        assert res["het"] < res["gpu"] < res["seq"]
        assert res["het"] < res["mc"] < res["seq"]

    def test_stage_times_recorded(self):
        res = simulate_trace(self.make_trace(), Platform.sequential())
        assert set(res.stage_times) == {"labels", "update"}
        assert res.total_time == pytest.approx(sum(res.stage_times.values()))

    def test_device_busy_positive(self):
        res = simulate_trace(self.make_trace(), Platform.heterogeneous())
        assert all(v > 0 for v in res.device_busy.values())

    def test_record_samples_off_after_armed_replay(self):
        tr = WorkTrace()
        st = tr.new_stage("labels")
        for i in range(10):
            st.add(1e6 * (i + 1), 100)
        plat = Platform.heterogeneous()
        simulate_trace(tr, plat, record_samples=True)
        assert all(d.clock.samples for d in plat.devices)
        simulate_trace(tr, plat)
        assert not any(d.clock.record_samples or d.clock.samples for d in plat.devices)

    def test_empty_stages_skipped(self):
        tr = WorkTrace()
        tr.new_stage("nothing")
        res = simulate_trace(tr, Platform.sequential())
        assert res.total_time == 0.0


class TestTraceExtras:
    def test_stage_total_work(self):
        st = Stage(kind="x")
        st.add(3.0, 2)
        st.add(4.5)
        assert st.total_work == pytest.approx(7.5)

    def test_simulation_result_speedup(self):
        timings = {
            "sequential": SimulationResult("sequential", 2.0, {}, {}),
            "gpu": SimulationResult("gpu", 1.0, {}, {}),
            "idle": SimulationResult("idle", 0.0, {}, {}),
        }
        res = HeteroMCBResult(cycles=[], trace=WorkTrace(), timings=timings)
        assert res.speedups_vs_sequential() == {
            "sequential": 1.0, "gpu": 2.0, "idle": float("inf"),
        }
