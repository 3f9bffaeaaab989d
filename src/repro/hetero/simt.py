"""SIMT (GPU) device model.

Extends the bandwidth cost model with the two GPU-specific effects that
shape the paper's Table 2/Figure 5 numbers:

* **occupancy** — a kernel with fewer parallel items than the card's
  resident-thread capacity cannot saturate the memory channels, so the
  effective bandwidth scales down with the batch's parallel width;
* **divergence** — irregular per-item work (ragged adjacency rows) costs a
  constant-factor warp-divergence penalty.

The K40c constants: 15 SMs × 2048 resident threads, 32-wide warps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import Device, GPU_EFFECTIVE_BW, GPU_LAUNCH_OVERHEAD

__all__ = ["SIMTDevice", "gpu_device"]


@dataclass
class SIMTDevice(Device):
    """GPU with occupancy- and divergence-aware batch costs."""

    n_sm: int = 15
    warp_size: int = 32
    resident_threads_per_sm: int = 2048
    divergence_penalty: float = 1.15
    min_occupancy: float = 0.02
    #: Bandwidth saturates well below full residency: ~8 warps per SM of
    #: in-flight loads suffice on Kepler, i.e. a quarter of residency.
    saturation_fraction: float = 0.25

    @property
    def saturation_items(self) -> int:
        """Parallel items needed to saturate the memory channels."""
        return int(self.n_sm * self.resident_threads_per_sm * self.saturation_fraction)

    def occupancy(self, items: int) -> float:
        """Fraction of peak effective bandwidth a batch can reach."""
        if items <= 0:
            return self.min_occupancy
        return max(self.min_occupancy, min(1.0, items / self.saturation_items))

    def batch_cost(self, work: float, items: int) -> float:
        bw = self.effective_bandwidth * self.occupancy(items)
        return self.dispatch_overhead + self.divergence_penalty * work / bw


def gpu_device(batch_size: int = 32) -> SIMTDevice:
    """The Tesla K40c model; takes the big end of the work queue."""
    return SIMTDevice(
        name="gpu",
        effective_bandwidth=GPU_EFFECTIVE_BW,
        dispatch_overhead=GPU_LAUNCH_OVERHEAD,
        batch_size=batch_size,
        takes_from_back=True,
    )
