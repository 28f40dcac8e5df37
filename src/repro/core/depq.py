"""Double-ended priority queue on C ``heapq``, one heap per end in use.

PARD keeps each worker's pending requests in a DEPQ keyed by remaining
latency budget, so it can pop either the request with the *smallest*
remaining budget (Low-Budget-First, steady workloads) or the *largest*
(High-Budget-First, overload) in O(log n) — the data structure the paper
names in §4.3 and measures in §5.4.

Each end has its own binary heap: a min heap of ``(key, seq, item)`` for
``pop_min`` and a max heap of ``(-key, -seq, item)`` for ``pop_max``.  The
insertion sequence number ``seq`` breaks ties, so equal keys pop FIFO from
the min end and LIFO from the max end (deterministic runs), and it is
unique, so entries never compare their items.

A heap exists only while its end is in use:

* pushes go to the heaps that exist; the first pop (or peek) from a
  missing end builds its heap from the other one with ``heapify``;
* while both exist, an entry popped from one heap lingers in the other
  and its ``seq`` is kept in a dead set, so that heap discards it when it
  surfaces;
* an end's heap is dropped once more than ``len(self)`` operations
  (pushes and pops) have passed without a pop from that end, and the
  surviving heap is compacted then (dead entries filtered out, the dead
  set cleared).  Only a pop from the other end can trip this rule — a
  push raises the operation count and ``len`` together — so pops check it.

Every push and pop is O(log n) plus O(1) amortized: a drop follows more
than n operations without a pop from that end, which pay for the O(n)
compaction then, and a rebuild costs at most the operations before and
since the drop.  Alternating pops keep both heaps, so no rebuilds happen;
a single-ended run holds one heap and no dead entries, which keeps memory
at one tuple per queued request.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Generic, TypeVar

T = TypeVar("T")


class MinMaxHeap(Generic[T]):
    """Double-ended priority queue over ``(key, seq, item)`` entries."""

    __slots__ = ("_lo", "_hi", "_dead", "_n", "_seq", "_lo_at", "_hi_at")

    def __init__(self) -> None:
        self._lo: list | None = []  # min heap of (key, seq, item)
        self._hi: list | None = None  # max heap of (-key, -seq, item)
        self._dead: set[int] = set()  # seqs popped from the other heap
        self._n = 0
        self._seq = 0  # pushes so far; operations = 2 * _seq - _n
        self._lo_at = 0  # operation count at the last pop from each end
        self._hi_at = 0

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    # -- public API ---------------------------------------------------------

    def push(self, key: float, item: T) -> None:
        """Insert ``item`` with priority ``key``."""
        seq = self._seq
        self._seq = seq + 1
        self._n += 1
        lo = self._lo
        if lo is not None:
            heappush(lo, (key, seq, item))
        hi = self._hi
        if hi is not None:
            heappush(hi, (-key, -seq, item))

    def pop_min(self) -> T:
        """Remove and return the item with the smallest key (FIFO on ties)."""
        if not self._n:
            raise IndexError("empty heap")
        lo = self._lo
        if lo is None:
            lo = self._lo = _mirror(self._hi)
        n = self._n = self._n - 1
        if self._hi is None:
            self._lo_at = 2 * self._seq - n
            return heappop(lo)[2]
        dead = self._dead
        _, seq, item = heappop(lo)
        while seq in dead:
            dead.remove(seq)
            _, seq, item = heappop(lo)
        dead.add(seq)
        ops = self._lo_at = 2 * self._seq - n
        if ops - self._hi_at > n:
            self._hi = None
            self._compact(lo, 1)
        return item

    def pop_max(self) -> T:
        """Remove and return the item with the largest key (LIFO on ties)."""
        if not self._n:
            raise IndexError("empty heap")
        hi = self._hi
        if hi is None:
            hi = self._hi = _mirror(self._lo)
        n = self._n = self._n - 1
        if self._lo is None:
            self._hi_at = 2 * self._seq - n
            return heappop(hi)[2]
        dead = self._dead
        _, neg, item = heappop(hi)
        while -neg in dead:
            dead.remove(-neg)
            _, neg, item = heappop(hi)
        dead.add(-neg)
        ops = self._hi_at = 2 * self._seq - n
        if ops - self._lo_at > n:
            self._lo = None
            self._compact(hi, -1)
        return item

    def peek_min(self) -> T:
        """Item with the smallest key (FIFO among equal keys)."""
        return self._min_entry()[2]

    def peek_max(self) -> T:
        """Item with the largest key (LIFO among equal keys)."""
        return self._max_entry()[2]

    def min_key(self) -> float:
        return self._min_entry()[0]

    def max_key(self) -> float:
        return -self._max_entry()[0]

    def items(self) -> list[T]:
        """All items in arbitrary order."""
        if self._lo is None:
            return [e[2] for e in self._hi]
        dead = self._dead
        return [e[2] for e in self._lo if e[1] not in dead]

    # -- internals ----------------------------------------------------------

    def _min_entry(self) -> tuple:
        if not self._n:
            raise IndexError("empty heap")
        lo = self._lo
        if lo is None:
            lo = self._lo = _mirror(self._hi)
        dead = self._dead
        while lo[0][1] in dead:
            dead.remove(heappop(lo)[1])
        return lo[0]

    def _max_entry(self) -> tuple:
        if not self._n:
            raise IndexError("empty heap")
        hi = self._hi
        if hi is None:
            hi = self._hi = _mirror(self._lo)
        dead = self._dead
        while -hi[0][1] in dead:
            dead.remove(-heappop(hi)[1])
        return hi[0]

    def _compact(self, heap: list, sign: int) -> None:
        """The other heap was just dropped: purge ``heap``'s dead entries."""
        dead = self._dead
        if dead:
            heap[:] = [e for e in heap if sign * e[1] not in dead]
            heapify(heap)
            dead.clear()


def _mirror(heap: list) -> list:
    """The opposite end's heap over the same entries."""
    out = [(-k, -s, item) for k, s, item in heap]
    heapify(out)
    return out
