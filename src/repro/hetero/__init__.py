"""Simulated heterogeneous (CPU + GPU) execution platform.

Real work, modeled clocks: the Table-2 and Figure-2 pipelines run once
for real and record a work trace; :func:`simulate_trace` replays it on
each platform and only charges bandwidth-model costs to per-device
virtual clocks, with the double-ended work queue of [19] arbitrating.
See DESIGN.md §2.
"""

from .apsp_runner import apsp_with_trace
from .device import (
    CPU_CORE_BW,
    CPU_SOCKET_BW,
    Device,
    GPU_EFFECTIVE_BW,
    cpu_device,
    sequential_device,
)
from .executor import HeterogeneousExecutor, Platform, StageReport
from .mcb_runner import HeteroMCBResult, mcb_with_trace, run_mcb_on_platforms
from .simt import SIMTDevice, gpu_device
from .timing import ClockSample, VirtualClock
from .trace import SimulationResult, Stage, WorkTrace, simulate_trace
from .workqueue import DequeWorkQueue, WorkUnit

__all__ = [
    "apsp_with_trace",
    "CPU_CORE_BW",
    "CPU_SOCKET_BW",
    "Device",
    "GPU_EFFECTIVE_BW",
    "cpu_device",
    "sequential_device",
    "HeterogeneousExecutor",
    "Platform",
    "StageReport",
    "HeteroMCBResult",
    "mcb_with_trace",
    "run_mcb_on_platforms",
    "SIMTDevice",
    "gpu_device",
    "ClockSample",
    "VirtualClock",
    "SimulationResult",
    "Stage",
    "WorkTrace",
    "simulate_trace",
    "DequeWorkQueue",
    "WorkUnit",
]
