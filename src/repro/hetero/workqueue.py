"""The double-ended work queue of Indarapu et al. [19].

Sections 2.3 and 3.4: work units are sorted by size and placed in a
double-ended queue; the GPU grabs batches from the big end, the CPU from
the small end, each in proportion to its thread count, until the queue
drains.  This dynamic scheme replaces any static CPU/GPU split — "arriving
at this proportion analytically is not easy".

The queue is one sorted list of ``(work, items)`` pairs with two
cursors, so a grab is a slice.  The race loop that drives devices against
it lives in :mod:`repro.hetero.trace`.
"""

from __future__ import annotations

from operator import itemgetter

from ..obs import metrics as _metrics

__all__ = ["DequeWorkQueue", "count_grabs"]

_C_GRABS_FRONT = _metrics.counter("queue.grabs.front")
_C_GRABS_BACK = _metrics.counter("queue.grabs.back")
_H_BATCH = _metrics.histogram("queue.grab.batch")


class DequeWorkQueue:
    """Size-sorted double-ended queue with two-sided batch grabs.

    Holds ``(work, items)`` pairs, sorted stably by work alone: front =
    smallest (CPU side), back = biggest (GPU).
    """

    def __init__(self, units: list[tuple[float, int]]) -> None:
        self._q = sorted(units, key=itemgetter(0))
        self._lo = 0
        self._hi = len(self._q)
        self.grabs_front = 0
        self.grabs_back = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def empty(self) -> bool:
        return self._lo == self._hi

    def take(self, batch_size: int, from_back: bool) -> list:
        """Take up to ``batch_size`` units from one end as one grab.

        A back grab lists the biggest unit first.  Only the batch-size
        histogram counts here; :func:`count_grabs` adds the per-end and
        per-device counters once per stage."""
        lo, hi = self._lo, self._hi
        if lo == hi:
            return []
        k = batch_size if batch_size > 1 else 1
        if from_back:
            cut = hi - k if hi - k > lo else lo
            out = self._q[cut:hi][::-1]
            self._hi = cut
            self.grabs_back += 1
        else:
            cut = lo + k if lo + k < hi else hi
            out = self._q[lo:cut]
            self._lo = cut
            self.grabs_front += 1
        _H_BATCH.observe(len(out))
        return out


def count_grabs(front: int, back: int, units: dict[str, int]) -> None:
    """Add grabs per end and units per named device to the counters."""
    _C_GRABS_FRONT.inc(front)
    _C_GRABS_BACK.inc(back)
    for device, n in units.items():
        if n:
            _metrics.counter(f"queue.device.{device}.units").inc(n)
