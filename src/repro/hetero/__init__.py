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
    ClockSample,
    Device,
    GPU_EFFECTIVE_BW,
    SIMTDevice,
    VirtualClock,
    cpu_device,
    gpu_device,
    sequential_device,
)
from .mcb_runner import HeteroMCBResult, mcb_with_trace, run_mcb_on_platforms
from .trace import Platform, SimulationResult, Stage, WorkTrace, simulate_trace, table2_platforms
from .workqueue import DequeWorkQueue

__all__ = [
    "apsp_with_trace",
    "CPU_CORE_BW",
    "CPU_SOCKET_BW",
    "ClockSample",
    "Device",
    "GPU_EFFECTIVE_BW",
    "SIMTDevice",
    "VirtualClock",
    "cpu_device",
    "gpu_device",
    "sequential_device",
    "HeteroMCBResult",
    "mcb_with_trace",
    "run_mcb_on_platforms",
    "Platform",
    "SimulationResult",
    "Stage",
    "WorkTrace",
    "simulate_trace",
    "table2_platforms",
    "DequeWorkQueue",
]
