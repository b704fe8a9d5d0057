"""Calendar (bucket) queue storage backing the event kernel.

The simulator's event distribution is dominated by short delays — TLB
hit latencies, cache hops, interconnect and DRAM returns are all within
a few hundred cycles of "now" — so a calendar queue gives O(1) insert
and near-O(1) extract for the overwhelming majority of events, with no
per-element comparisons at all (a binary heap pays O(log n) Python-level
``__lt__`` calls per operation).

Layout
------

Events are kept in one of three regions, partitioned by timestamp
relative to ``floor`` (the time of the last extracted event):

* **ring** — a power-of-two array of per-cycle buckets covering the
  window ``[floor, floor + window)``.  Because the window spans exactly
  ``window`` consecutive cycles, every bucket holds events of a single
  timestamp, so FIFO order within a bucket is simply append order.
* **overflow heap** — events at ``time >= floor + window``.  When
  ``floor`` advances, newly covered events migrate into the ring in
  ``(time, seq)`` heap order, which precedes any later direct insert at
  the same timestamp — same-cycle FIFO order is preserved exactly.
* **past heap** — events at ``time < floor``.  The :class:`Simulator`
  never schedules in the past, but the raw queue API allows it, so
  correctness is kept for stand-alone use.

The three regions cover disjoint timestamp ranges, so the earliest event
is found by consulting them in past → ring → overflow order and no
cross-region tie-break is ever needed.

Cancellation is lazy and handled in exactly one place: :meth:`_scan`
discards cancelled events from the front of whichever region it
inspects.  Both :meth:`front` (peek) and :meth:`take` (pop) go through
it, so there is a single source of truth for live-event ordering.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import List

#: Default ring span in cycles.  Delays beyond this fall back to the
#: overflow heap, so the value only trades memory for heap traffic; the
#: simulator's latencies (DRAM ~160 cycles plus queueing) sit far below.
DEFAULT_WINDOW = 4096


class CalendarQueue:
    """Timestamp-ordered storage of scheduled entries.

    Two entry kinds share the calendar:

    * **Event objects** — expose ``time`` (int), ``seq`` (int, unique,
      assigned in push order) and ``cancelled`` (bool).  These carry the
      cancellation handle returned by ``push``.
    * **raw pairs** — plain ``(fn, args)`` tuples, used for the
      overwhelming majority of scheduling: component callbacks whose
      handle nobody ever holds.  A raw pair has no identity, no seq and
      cannot be cancelled, which is exactly why it can skip the Event
      free-list, the refcount-guarded recycling and the per-pop
      ``cancelled`` check.  Raw pairs live only in ring buckets (their
      timestamp is the bucket position); the caller wraps an Event when
      a push lands in a heap region.

    FIFO order within a cycle is bucket append order for both kinds, so
    mixing them preserves exact schedule order.  The queue does no
    lifecycle accounting — that is the caller's job (see
    :class:`repro.engine.event.EventQueue`).
    """

    __slots__ = ("_window", "_mask", "_buckets", "_floor", "_cursor",
                 "_ring_count", "_past", "_over", "_front", "_front_src",
                 "_front_time")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window <= 0 or window & (window - 1):
            raise ValueError("calendar window must be a positive power of two")
        self._window = window
        self._mask = window - 1
        self._buckets: List[deque] = [deque() for _ in range(window)]
        self._floor = 0        # time of the last event taken
        self._cursor = 0       # lower bound on the earliest ring timestamp
        self._ring_count = 0   # events physically resident in the ring
        self._past: list = []  # (time, seq, ev) heap, time < floor
        self._over: list = []  # (time, seq, ev) heap, time >= floor + window
        self._front = None       # cached earliest live entry (still stored)
        self._front_src = None   # region holding it: deque or one of the heaps
        self._front_time = -1    # its timestamp (tuples don't carry one)

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, ev) -> None:
        t = ev.time
        floor = self._floor
        if t - floor < self._window:
            if t >= floor:
                self._buckets[t & self._mask].append(ev)
                self._ring_count += 1
                if t < self._cursor:
                    self._cursor = t
            else:
                heappush(self._past, (t, ev.seq, ev))
        else:
            heappush(self._over, (t, ev.seq, ev))
        if self._front is not None and t < self._front_time:
            # the cached front is no longer the minimum; recompute lazily
            self._front = self._front_src = None

    def insert_raw(self, time: int, entry: tuple) -> bool:
        """Append a raw ``(fn, args)`` pair at ``time`` if the ring
        covers it.  Returns ``False`` when ``time`` falls in a heap
        region — the caller must then wrap an Event and :meth:`insert`.
        """
        if not (0 <= time - self._floor < self._window):
            return False
        self._buckets[time & self._mask].append(entry)
        self._ring_count += 1
        if time < self._cursor:
            self._cursor = time
        if self._front is not None and time < self._front_time:
            self._front = self._front_src = None
        return True

    # ------------------------------------------------------------------
    # Extract / peek
    # ------------------------------------------------------------------
    def _scan(self):
        """Locate the earliest live entry, leaving it in place.

        The single home of lazy cancelled-event deletion: cancelled
        events reaching the front of any region are dropped here.
        Returns ``(entry, region, time)`` or ``(None, None, -1)``.
        """
        past = self._past
        while past:
            t, _seq, ev = past[0]
            if ev.cancelled:
                heappop(past)
            else:
                return ev, past, t
        if self._ring_count:
            buckets = self._buckets
            mask = self._mask
            t = self._cursor
            while True:
                bucket = buckets[t & mask]
                while bucket:
                    ev = bucket[0]
                    if type(ev) is tuple or not ev.cancelled:
                        self._cursor = t
                        return ev, bucket, t
                    bucket.popleft()
                    self._ring_count -= 1
                if not self._ring_count:
                    break
                t += 1
        over = self._over
        while over:
            t, _seq, ev = over[0]
            if ev.cancelled:
                heappop(over)
            else:
                return ev, over, t
        return None, None, -1

    def front(self):
        """The earliest live entry without removing it, or ``None``."""
        ev = self._front
        if ev is not None and (type(ev) is tuple or not ev.cancelled):
            return ev
        ev, src, t = self._scan()
        self._front = ev
        self._front_src = src
        self._front_time = t
        return ev

    def front_time(self) -> int:
        """Timestamp of the earliest live entry, or ``-1`` when empty."""
        if self.front() is None:
            return -1
        return self._front_time

    def take(self):
        """Remove and return ``(entry, time)`` for the earliest live
        entry, or ``(None, -1)`` when the queue is drained."""
        ev = self._front
        src = self._front_src
        t = self._front_time
        self._front = self._front_src = None
        if ev is None or (type(ev) is not tuple and ev.cancelled):
            ev, src, t = self._scan()
            if ev is None:
                return None, -1
        if src is self._past or src is self._over:
            heappop(src)
        else:
            src.popleft()
            self._ring_count -= 1
        if t > self._floor:
            self._advance_floor(t)
        return ev, t

    def _advance_floor(self, t: int) -> None:
        """Slide the ring window forward and migrate newly covered events."""
        self._floor = t
        over = self._over
        if over:
            limit = t + self._window
            buckets = self._buckets
            mask = self._mask
            while over and over[0][0] < limit:
                ev = heappop(over)[2]
                if not ev.cancelled:
                    buckets[ev.time & mask].append(ev)
                    self._ring_count += 1
        if self._cursor < t:
            self._cursor = t

    # ------------------------------------------------------------------
    # Introspection (diagnostics only — O(len) where noted)
    # ------------------------------------------------------------------
    @property
    def window(self) -> int:
        return self._window

    def physical_size(self) -> int:
        """Events physically stored, including cancelled ones (O(1))."""
        return self._ring_count + len(self._past) + len(self._over)
