"""The double-ended work queue of Indarapu et al. [19].

Sections 2.3 and 3.4: work units are sorted by size and placed in a
double-ended queue; the GPU grabs batches from the big end, the CPU from
the small end, each in proportion to its thread count, until the queue
drains.  This dynamic scheme replaces any static CPU/GPU split — "arriving
at this proportion analytically is not easy".

The queue is one sorted list with two cursors, so a grab is a slice.  It
is execution-agnostic; the race loop that drives devices against it lives
in :mod:`repro.hetero.executor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable

from ..obs import metrics as _metrics

__all__ = ["WorkUnit", "DequeWorkQueue"]

_C_GRABS_FRONT = _metrics.counter("queue.grabs.front")
_C_GRABS_BACK = _metrics.counter("queue.grabs.back")
_H_BATCH = _metrics.histogram("queue.grab.batch")


@dataclass
class WorkUnit:
    """One schedulable unit.

    ``work`` is the cost-model size (bytes touched); ``items`` the
    parallel width (for GPU occupancy); ``fn`` produces the real result.
    """

    uid: int
    fn: Callable[[], Any]
    work: float
    items: int = 1
    label: str = ""

    def run(self) -> Any:
        return self.fn()


class DequeWorkQueue:
    """Size-sorted double-ended queue with two-sided batch grabs.

    Holds :class:`WorkUnit`\\ s or ``(work, items)`` pairs, sorted stably
    by work alone: front = smallest (CPU side), back = biggest (GPU).
    """

    def __init__(self, units: list, sort: bool = True) -> None:
        q = list(units)
        if sort and q:
            q.sort(key=itemgetter(0) if isinstance(q[0], tuple) else attrgetter("work"))
        self._q = q
        self._lo = 0
        self._hi = len(q)
        self.grabs_front = 0
        self.grabs_back = 0

    def __len__(self) -> int:
        return self._hi - self._lo

    @property
    def empty(self) -> bool:
        return self._lo == self._hi

    def take(self, batch_size: int, from_back: bool) -> list:
        """:meth:`grab` without the counters, which :func:`count_grabs`
        adds (a race adds them once per stage).  A back grab lists the
        biggest unit first."""
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

    def grab(self, batch_size: int, from_back: bool, device: str = "") -> list:
        """Take up to ``batch_size`` units from one end as one grab.

        ``device`` is the grabbing device's name, used only for the
        per-device unit counter.
        """
        out = self.take(batch_size, from_back)
        if out:
            count_grabs(int(not from_back), int(from_back), {device: len(out)})
        return out


def count_grabs(front: int, back: int, units: dict[str, int]) -> None:
    """Add grabs per end and units per named device to the counters."""
    _C_GRABS_FRONT.inc(front)
    _C_GRABS_BACK.inc(back)
    for device, n in units.items():
        if device and n:
            _metrics.counter(f"queue.device.{device}.units").inc(n)
