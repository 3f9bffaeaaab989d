"""Work queue, device models, executor, trace simulation."""

import numpy as np
import pytest

from repro.hetero import (
    DequeWorkQueue,
    Device,
    HeterogeneousExecutor,
    Platform,
    SIMTDevice,
    Stage,
    VirtualClock,
    WorkTrace,
    WorkUnit,
    cpu_device,
    gpu_device,
    sequential_device,
    simulate_trace,
)


def units(works, items=1):
    return [WorkUnit(uid=i, fn=lambda i=i: i, work=w, items=items) for i, w in enumerate(works)]


class TestWorkQueue:
    def test_sorted_small_front_big_back(self):
        q = DequeWorkQueue(units([5.0, 1.0, 3.0]))
        front = q.grab(1, from_back=False)
        back = q.grab(1, from_back=True)
        assert front[0].work == 1.0
        assert back[0].work == 5.0

    def test_conservation(self):
        q = DequeWorkQueue(units([1.0] * 17))
        seen = []
        while not q.empty:
            seen += q.grab(3, from_back=bool(len(seen) % 2))
        assert sorted(u.uid for u in seen) == list(range(17))

    def test_batch_bigger_than_queue(self):
        q = DequeWorkQueue(units([1.0, 2.0]))
        got = q.grab(10, from_back=False)
        assert len(got) == 2 and q.empty

    def test_grab_counters(self):
        q = DequeWorkQueue(units([1.0] * 4))
        q.grab(1, from_back=False)
        q.grab(1, from_back=True)
        assert q.grabs_front == 1 and q.grabs_back == 1

    def test_unsorted_mode(self):
        q = DequeWorkQueue(units([5.0, 1.0]), sort=False)
        assert q.grab(1, from_back=False)[0].work == 5.0


class TestClockAndDevices:
    def test_clock_advance_and_utilisation(self):
        c = VirtualClock()
        c.advance(2.0)
        c.wait_until(4.0)
        assert c.now == 4.0 and c.busy == 2.0
        assert c.utilisation == pytest.approx(0.5)

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
        one = d.cost(units([10.0]))
        two = d.cost(units([10.0, 10.0]))
        assert two - one == pytest.approx(0.1)

    def test_device_execute_advances_clock(self):
        d = sequential_device()
        res = d.execute(units([d.effective_bandwidth]))  # exactly 1 second
        assert res == [0]
        assert d.clock.now == pytest.approx(1.0)

    def test_gpu_occupancy_monotone(self):
        g = gpu_device()
        assert g.occupancy(10) < g.occupancy(10_000) <= 1.0
        assert g.occupancy(0) == g.min_occupancy
        assert g.occupancy(10**9) == 1.0

    def test_gpu_small_batch_penalised(self):
        g = gpu_device()
        small = g.cost(units([1e6], items=16))
        big = g.cost(units([1e6], items=100_000))
        assert small > big

    def test_multicore_faster_than_sequential(self):
        w = units([1e9])
        assert cpu_device().cost(w) < sequential_device().cost(w)

    def test_platform_presets(self):
        assert len(Platform.sequential().devices) == 1
        assert len(Platform.heterogeneous().devices) == 2
        names = {d.name for d in Platform.heterogeneous().devices}
        assert names == {"cpu", "gpu"}


class TestExecutor:
    def test_results_in_item_order(self):
        ex = HeterogeneousExecutor(Platform.heterogeneous())
        us = [WorkUnit(uid=x, fn=(lambda x=x: x * x), work=1e6) for x in range(20)]
        ex.run_stage(us)
        assert [ex.results[x] for x in range(20)] == [x * x for x in range(20)]

    def test_every_unit_executed_once(self):
        counter = {"n": 0}

        def bump():
            counter["n"] += 1

        us = [WorkUnit(uid=i, fn=bump, work=1e6) for i in range(33)]
        ex = HeterogeneousExecutor(Platform.heterogeneous())
        rep = ex.run_stage(us)
        assert counter["n"] == 33
        assert sum(rep.per_device_units.values()) == 33
        assert rep.makespan > 0

    def test_stage_is_barrier(self):
        plat = Platform.heterogeneous()
        ex = HeterogeneousExecutor(plat)
        ex.run_stage(units([1e9]))
        times = {d.clock.now for d in plat.devices}
        assert len(times) == 1  # all aligned after the stage

    def test_empty_platform_rejected(self):
        with pytest.raises(ValueError):
            HeterogeneousExecutor(Platform("none", []))

    def test_hetero_beats_single_device_on_big_stage(self):
        work = [1e8] * 64
        t = {}
        for plat in (Platform.sequential(), Platform.heterogeneous()):
            ex = HeterogeneousExecutor(plat)
            rep = ex.run_stage(units(work, items=50_000))
            t[plat.name] = rep.makespan
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
        assert tr.merged()["labels"] == pytest.approx(5e8)

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
    def test_merged_filters_by_kind(self):
        tr = WorkTrace()
        tr.new_stage("a").add(10.0)
        tr.new_stage("b").add(5.0)
        tr.new_stage("a").add(1.0)
        assert tr.merged() == {"a": 11.0, "b": 5.0}
        assert tr.merged({"b"}) == {"b": 5.0}

    def test_stage_total_work(self):
        st = Stage(kind="x")
        st.add(3.0, 2)
        st.add(4.5)
        assert st.total_work == pytest.approx(7.5)

    def test_simulation_result_speedup(self):
        from repro.hetero import SimulationResult

        a = SimulationResult("a", 2.0, {}, {})
        b = SimulationResult("b", 1.0, {}, {})
        assert b.speedup_over(a) == 2.0

    def test_stage_report_bottleneck(self):
        from repro.hetero import StageReport

        rep = StageReport(1.0, {"cpu": 0.3, "gpu": 0.7}, {"cpu": 1, "gpu": 2}, 3)
        assert rep.bottleneck == "gpu"
