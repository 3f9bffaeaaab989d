"""Weight-ranked candidate container (Section 3.3.2).

The paper stores the weight-sorted candidate cycles in "a hybrid of
linked-list as well as linear arrays ... each linked-list node consists of
a constant sized array as its base element and has a single next pointer.
We first check within each position of the linked-list node and if not
found skip to the next node.  We mark the removal of elements by setting
off the MSB and reorder the cycles within nodes when half of those in a
node are removed."

Here a candidate's id is its weight rank (:class:`MMContext` sorts its
arrays once), so the store is one ``alive`` mask over ranks — the MSB
tombstones — plus a live count per fixed-size block.  A scan tests
contiguous rank windows, growing from one block up to
:data:`WINDOW_CAP` candidates, and returns the first live match.  Its
work counts are those of a block-by-block walk that skips empty blocks:
the live counts of the blocks from the first non-empty one through the
block holding the match — the "logical batches B₁, B₂, …" of the
search step.  A window has no dead slots to compact away, so there are
no next pointers and no compaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..obs import metrics as _metrics

__all__ = ["CandidateStore", "ScanStats"]

_C_SCANNED = _metrics.counter("mcb.candidates_scanned")
_C_BATCHES = _metrics.counter("mcb.scan_batches")

#: Largest rank window one predicate call sees (at least one block);
#: bounds the predicate's temporaries.
WINDOW_CAP = 4096


@dataclass
class ScanStats:
    """Counters describing the scanning work performed (for cost models)."""

    batches_visited: int = 0
    candidates_tested: int = 0


class CandidateStore:
    """Live candidate ranks ``0 .. n-1`` with windowed first-match scans."""

    def __init__(self, n: int, block_size: int = 512) -> None:
        if block_size < 1:
            raise ValueError("block size must be positive")
        self.block_size = block_size
        self._alive = np.ones(n, dtype=bool)
        self._live = np.full(-(-n // block_size), block_size, dtype=np.int64)
        if n % block_size:
            self._live[-1] = n % block_size
        self._first = 0  # no live rank before this block
        self._size = n
        self.stats = ScanStats()

    def __len__(self) -> int:
        return self._size

    def memory_bytes(self) -> int:
        """Bytes held by the store: the alive mask plus the block counts.

        Feeds the ``memory.mcb.candidate_store_bytes`` gauge so Table-1
        style memory accounting covers the MCB side of the pipeline too.
        """
        return int(self._alive.nbytes + self._live.nbytes)

    def scan_and_remove(self, predicate: Callable[[slice], np.ndarray]) -> int | None:
        """Lightest live rank matching ``predicate``, removed from the store.

        ``predicate`` receives a ``slice`` of ranks and returns a boolean
        mask over it; dead ranks are masked out here.  ``None`` when
        nothing matches.
        """
        live, bs, n = self._live, self.block_size, self._alive.size
        cap = max(1, WINDOW_CAP // bs)  # in blocks
        b = self._first
        while b < live.size and live[b] == 0:
            b += 1
        self._first = start = b
        width = 1
        while b < live.size:
            end = min(b + width, live.size)
            lo, hi = b * bs, min(end * bs, n)
            hit = predicate(slice(lo, hi)) & self._alive[lo:hi]
            pos = int(hit.argmax())
            if hit[pos]:
                rank = lo + pos
                b = rank // bs
                self._count(live[start : b + 1])
                self._alive[rank] = False
                live[b] -= 1
                self._size -= 1
                return rank
            b = end
            width = min(2 * width, cap)
        self._count(live[start:])
        return None

    def _count(self, counts: np.ndarray) -> None:
        """Charge a scan over blocks with these live counts: one batch per
        non-empty block, as the block-by-block walk visited them."""
        batches, tested = int(np.count_nonzero(counts)), int(counts.sum())
        self.stats.batches_visited += batches
        self.stats.candidates_tested += tested
        _C_BATCHES.inc(batches)
        _C_SCANNED.inc(tested)

    def remaining_ids(self) -> np.ndarray:
        """All live ranks in weight order (mainly for tests)."""
        return np.flatnonzero(self._alive)
