"""The simulator's event queue: a calendar of handle-free entries.

An entry is a callback ``fn`` with its packed ``args``, scheduled at an
integer cycle.  Entries scheduled for the same cycle fire in FIFO
order — this determinism matters for reproducibility of queueing
behaviour at the page walkers.  Nothing holds an entry once it is
pushed, so there is no handle, no cancellation and no per-entry object.

:class:`EventQueue` is the production kernel, a calendar (bucket)
queue.  The simulator's delays are short — TLB hit latencies, cache
hops, interconnect and DRAM returns are all within a few hundred cycles
of "now" — so almost every push and pop is O(1) with no comparisons at
all.  Entries live in one of three regions, partitioned by timestamp
relative to ``floor`` (the time of the last entry taken from the ring
or the overflow heap):

* **ring** — a power-of-two array of per-cycle buckets of ``(fn, args)``
  pairs covering ``[floor, floor + window)``.  Because the window spans
  exactly ``window`` consecutive cycles, every bucket holds entries of a
  single timestamp, so FIFO order within a cycle is append order.
* **overflow heap** — ``(time, seq, fn, args)`` at
  ``time >= floor + window``.  When ``floor`` advances, newly covered
  entries migrate into the ring in ``(time, seq)`` order, which is push
  order; every later push to the same cycle appends behind them, so
  same-cycle FIFO order survives migration.
* **past heap** — ``(time, seq, fn, args)`` at ``time < floor``.  The
  :class:`~repro.engine.simulator.Simulator` never schedules in the
  past, but the raw queue API allows it, so correctness is kept for
  stand-alone use.

``seq`` is a push counter kept only as the heaps' tie-break.  The three
regions cover disjoint timestamp ranges, so the earliest entry is found
by consulting them in past → ring → overflow order and no cross-region
tie-break is ever needed.

:class:`HeapEventQueue` is the seed's binary-heap kernel restated over
the same entries.  No production path uses it; the differential tests
run it beside :class:`EventQueue` as the ordering reference.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

#: Default ring span in cycles.  Delays beyond this fall back to the
#: overflow heap, so the value only trades memory for heap traffic; the
#: simulator's latencies (DRAM ~160 cycles plus queueing) sit far below.
DEFAULT_WINDOW = 4096

#: What :meth:`EventQueue.pop` returns: ``(time, fn, args)``.
Entry = Tuple[int, Callable[..., Any], Tuple[Any, ...]]


class EventQueue:
    """Calendar queue of ``(fn, args)`` entries keyed by cycle."""

    __slots__ = ("_window", "_mask", "_buckets", "_floor", "_cursor",
                 "_ring_count", "_past", "_over", "_seq")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window <= 0 or window & (window - 1):
            raise ValueError("calendar window must be a positive power of two")
        self._window = window
        self._mask = window - 1
        self._buckets: List[deque] = [deque() for _ in range(window)]
        self._floor = 0        # time of the last entry taken
        self._cursor = 0       # lower bound on the earliest ring timestamp
        self._ring_count = 0   # entries resident in the ring
        self._past: list = []  # (time, seq, fn, args) heap: time < floor
        self._over: list = []  # same, time >= floor + window
        self._seq = 0

    def __len__(self) -> int:
        return self._ring_count + len(self._past) + len(self._over)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push_raw(self, time: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time``."""
        offset = time - self._floor
        if 0 <= offset < self._window:
            self._buckets[time & self._mask].append((fn, args))
            self._ring_count += 1
            if time < self._cursor:
                self._cursor = time
        else:
            seq = self._seq
            self._seq = seq + 1
            heappush(self._past if offset < 0 else self._over,
                     (time, seq, fn, args))

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def _ring_front(self) -> deque:
        """The earliest non-empty ring bucket (the ring must be non-empty);
        leaves ``_cursor`` on its timestamp."""
        buckets = self._buckets
        mask = self._mask
        t = self._cursor
        bucket = buckets[t & mask]
        while not bucket:
            t += 1
            bucket = buckets[t & mask]
        self._cursor = t
        return bucket

    def pop(self) -> Optional[Entry]:
        """Remove the earliest entry; returns ``(time, fn, args)`` or
        ``None`` when the queue is empty."""
        if self._past:
            t, _seq, fn, args = heappop(self._past)
            return t, fn, args
        if self._ring_count:
            fn, args = self._ring_front().popleft()
            self._ring_count -= 1
            t = self._cursor
        elif self._over:
            t, _seq, fn, args = heappop(self._over)
        else:
            return None
        if t > self._floor:
            self._advance_floor(t)
        return t, fn, args

    def peek_time(self) -> Optional[int]:
        """Time of the earliest entry without removing it."""
        if self._past:
            return self._past[0][0]
        if self._ring_count:
            self._ring_front()
            return self._cursor
        if self._over:
            return self._over[0][0]
        return None

    def run_fast(self, sim, budget: int) -> int:
        """Pop and fire up to ``budget`` entries in one frame.

        Equivalent to repeatedly calling :meth:`pop` and firing, with
        the ring scan inlined.  ``sim.now`` is advanced before each
        callback, and ``sim._stop`` is checked after every delivery.
        Returns the number of entries fired.
        """
        buckets = self._buckets
        mask = self._mask
        past = self._past
        over = self._over
        fired = 0
        while fired < budget and not sim._stop:
            if past:
                t, _seq, fn, args = heappop(past)
            else:
                if self._ring_count:
                    t = self._cursor
                    bucket = buckets[t & mask]
                    while not bucket:
                        t += 1
                        bucket = buckets[t & mask]
                    self._cursor = t
                    fn, args = bucket.popleft()
                    self._ring_count -= 1
                elif over:
                    t, _seq, fn, args = heappop(over)
                else:
                    break
                if t > self._floor:
                    self._advance_floor(t)
            sim.now = t
            fn(*args)
            fired += 1
        return fired

    def _advance_floor(self, t: int) -> None:
        """Slide the ring window forward and migrate newly covered entries."""
        self._floor = t
        over = self._over
        if over:
            limit = t + self._window
            buckets = self._buckets
            mask = self._mask
            while over and over[0][0] < limit:
                time, _seq, fn, args = heappop(over)
                buckets[time & mask].append((fn, args))
                self._ring_count += 1
        if self._cursor < t:
            self._cursor = t


class HeapEventQueue:
    """The seed's binary-heap kernel over the same entries.

    The ordering reference for the differential tests: one heap of
    ``(time, seq, fn, args)``, with the same ``push_raw``, ``pop``,
    ``peek_time`` and ``run_fast`` as :class:`EventQueue`, so the
    simulator can drive either.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push_raw(self, time: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        heappush(self._heap, (time, next(self._seq), fn, args))

    def pop(self) -> Optional[Entry]:
        if not self._heap:
            return None
        t, _seq, fn, args = heappop(self._heap)
        return t, fn, args

    def peek_time(self) -> Optional[int]:
        return self._heap[0][0] if self._heap else None

    def run_fast(self, sim, budget: int) -> int:
        """Plain pop/fire loop; this kernel is never timed."""
        fired = 0
        while fired < budget and not sim._stop:
            entry = self.pop()
            if entry is None:
                break
            t, fn, args = entry
            sim.now = t
            fn(*args)
            fired += 1
        return fired
