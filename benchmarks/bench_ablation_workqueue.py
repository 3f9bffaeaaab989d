"""Ablation — dynamic double-ended work queue vs static splits (§2.3).

The paper chose the [19] queue because "a static approach for work
balancing can fall short".  This ablation replays a skewed work-unit
distribution (a few huge BCC-sized units plus many small ones, as in the
real datasets) under (a) the dynamic queue, (b) a static 50/50 split, and
(c) a static bandwidth-proportional split — the dynamic queue's makespan
must beat or match the best static one.  Units are ``(work, items)`` pairs,
as in a recorded work trace; the dynamic queue is the trace replay
(:func:`repro.hetero.simulate_trace`) of one stage holding them all.
"""

import numpy as np
import pytest

from repro.bench import format_table
from repro.hetero import Platform, WorkTrace, cpu_device, gpu_device, simulate_trace
from repro.hetero import trace as hetero_trace


def skewed_units(seed=0, n_small=120, n_big=6):
    rng = np.random.default_rng(seed)
    works = np.concatenate(
        [rng.uniform(1e6, 5e6, n_small), rng.uniform(4e8, 9e8, n_big)]
    )
    return [(float(w), 20_000) for w in works]


def static_split_makespan(units, frac_to_gpu):
    """Assign the biggest `frac` of work to the GPU up front."""
    cpu, gpu = cpu_device(), gpu_device()
    ordered = sorted(units, key=lambda u: -u[0])
    total = sum(w for w, _ in units)
    gpu_units, cpu_units, acc = [], [], 0.0
    for w, items in ordered:
        if acc < frac_to_gpu * total:
            gpu_units.append((w, items))
            acc += w
        else:
            cpu_units.append((w, items))
    t_gpu = sum(gpu.batch_cost(w, items) for w, items in gpu_units)
    t_cpu = sum(cpu.batch_cost(w, items) for w, items in cpu_units)
    return max(t_gpu, t_cpu)


def dynamic_makespan(units):
    trace = WorkTrace()
    trace.new_stage("bcc").units = list(units)
    return simulate_trace(trace, Platform.heterogeneous()).total_time


def test_dynamic_queue_beats_static(benchmark):
    units = skewed_units()
    dyn = benchmark.pedantic(lambda: dynamic_makespan(units), rounds=1, iterations=1)
    static_half = static_split_makespan(units, 0.5)
    # bandwidth-proportional "oracle" static split
    from repro.hetero.device import CPU_SOCKET_BW, GPU_EFFECTIVE_BW

    frac = GPU_EFFECTIVE_BW / (GPU_EFFECTIVE_BW + CPU_SOCKET_BW)
    static_prop = static_split_makespan(units, frac)
    print()
    print(
        format_table(
            ["scheduler", "makespan (s)"],
            [
                ("dynamic deque [19]", dyn),
                ("static 50/50", static_half),
                ("static bandwidth-proportional", static_prop),
            ],
            title="Work scheduling ablation",
        )
    )
    # The paper's claim: dynamic balancing beats a naive static split.
    assert dyn <= static_half * 1.05
    # The bandwidth-proportional split is an *oracle* (it knows the exact
    # device rates a priori); dynamic must stay in its ballpark.
    assert dyn <= static_prop * 1.5
    benchmark.extra_info["makespans"] = {
        "dynamic": dyn,
        "static_half": static_half,
        "static_prop": static_prop,
    }


def test_gpu_gets_big_units(benchmark, monkeypatch):
    """The sorted deque serves big units to the GPU end, as specified."""
    units = skewed_units(seed=3)

    taken = {"cpu": [], "gpu": []}
    race = hetero_trace.race

    def recording_race(devices, stage_units, kind):
        # race returns each grab's device and size; the grab takes that
        # many units off its device's end of the work-sorted queue.
        picks, sizes = race(devices, stage_units, kind)
        queue = sorted(w for w, _ in stage_units)
        for j, n in zip(picks, sizes):
            dev = devices[j]
            if dev.takes_from_back:
                taken[dev.name] += queue[-n:][::-1]
                del queue[-n:]
            else:
                taken[dev.name] += queue[:n]
                del queue[:n]
        return picks, sizes

    monkeypatch.setattr(hetero_trace, "race", recording_race)
    benchmark.pedantic(lambda: dynamic_makespan(units), rounds=1, iterations=1)
    assert max(taken["gpu"]) >= max(taken["cpu"])
    assert np.mean(taken["gpu"]) > np.mean(taken["cpu"])
