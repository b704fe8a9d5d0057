"""Event primitives and the fast-path event queue of the simulator.

Events are (time, sequence, callback) records.  The monotonically
increasing sequence number breaks ties so that events scheduled for the
same cycle fire in FIFO order — this determinism matters for
reproducibility of queueing behaviour at the page walkers.

:class:`EventQueue` is the production kernel: a calendar/bucket queue
(:mod:`repro.engine.calendar`) for O(1) scheduling of the short-delay
events that dominate the simulator, plus a free list that recycles
:class:`Event` objects through the common schedule → fire → discard
lifecycle without allocating.  Recycling is invisible to callers: an
event is only reused once no outside reference to it remains (checked
via ``sys.getrefcount`` on CPython), so the cancellation API keeps its
seed semantics — a held event handle always refers to the schedule entry
it came from.

:class:`HeapEventQueue` is the seed binary-heap kernel plus the two
entry points the shipping simulator calls (``push_raw`` and
``run_fast``), both Event-backed.  It is not used on any production
path; differential tests and the engine throughput benchmark run it side
by side with the calendar kernel to pin down ordering equivalence and
speedup.
"""

from __future__ import annotations

import heapq
import itertools
import sys
from heapq import heappop
from typing import Any, Callable, Optional, Tuple

from repro.engine.calendar import DEFAULT_WINDOW, CalendarQueue


class Event:
    """A scheduled callback.

    Holding a reference to the :class:`Event` allows cancellation: a
    cancelled event stays in the queue but is skipped when popped.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "_queue")

    def __init__(self, time: int, seq: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...], queue: "Optional[EventQueue]" = None):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so the simulator discards it instead of firing it."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._live -= 1

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time} seq={self.seq} {self.fn!r}{state}>"


def _probe_refcount(obj: object) -> int:
    """Reference count seen from the run loop's recycle call shape:
    one caller local + one callee parameter + the getrefcount argument."""
    return sys.getrefcount(obj)


def _calibrate_recycle_threshold() -> int:
    """Refcount of an event with no outside holder, measured through the
    exact call shape the run loop uses.  Returns -1 (recycling disabled)
    off CPython, where getrefcount semantics differ."""
    if sys.implementation.name != "cpython":
        return -1
    probe = Event(0, 0, None, ())  # local ref, like the run loop's
    return _probe_refcount(probe)


def _calibrate_inline_threshold() -> int:
    """Refcount of an event with no outside holder as seen *inside* the
    fused run loop (:meth:`EventQueue.run_fast`): one loop local plus
    the getrefcount argument — no intermediate call frame."""
    if sys.implementation.name != "cpython":
        return -1
    probe = Event(0, 0, None, ())
    return sys.getrefcount(probe)


#: An event whose refcount at recycle time exceeds this has an outside
#: holder (someone kept the handle returned by ``push``) and must not be
#: reused — a later ``cancel()`` through that handle would otherwise hit
#: an unrelated rescheduled event.
_RECYCLE_REFS = _calibrate_recycle_threshold()

#: Same guard for the fused run loop, whose recycle check is inlined
#: (one fewer frame holding a reference).
_RECYCLE_REFS_INLINE = _calibrate_inline_threshold()

#: Free-list cap; beyond this, fired events are left to the GC.
_FREE_LIST_MAX = 4096


class EventQueue:
    """Calendar-queue-backed priority queue of :class:`Event` objects.

    ``len()`` counts *live* (non-cancelled, not yet popped) events only,
    so callers like :meth:`Simulator.drain`'s runaway check never
    mistake a backlog of cancelled tombstones for pending work.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._calendar = CalendarQueue(window)
        self._seq = 0
        self._live = 0
        self._free: list = []

    def __len__(self) -> int:
        return self._live

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns the event."""
        return self.push_packed(time, fn, args)

    def push_packed(self, time: int, fn: Callable[..., Any],
                    args: Tuple[Any, ...]) -> Event:
        """Like :meth:`push` with ``args`` already packed — used where a
        cancellation handle is required, avoiding one tuple repack."""
        seq = self._seq
        self._seq = seq + 1
        free = self._free
        if free:
            event = free.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
            event._queue = self
        else:
            event = Event(time, seq, fn, args, self)
        self._live += 1
        self._calendar.insert(event)
        return event

    def push_raw(self, time: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        """Handle-free scheduling: the production hot path.

        The entry is a plain ``(fn, args)`` pair with no Event object,
        no sequence number and no cancellation support — the simulator's
        components never cancel and never hold the handle, so they skip
        the whole Event lifecycle (free-list, refcount-guarded
        recycling, per-pop ``cancelled`` checks).  Same-cycle FIFO order
        against Event pushes is preserved exactly: both kinds append to
        the same ring bucket.  Pushes outside the ring window (rare —
        every modeled latency sits far below it) fall back to a wrapped
        Event so the heap regions keep their ``(time, seq)`` ordering.
        """
        if not self._calendar.insert_raw(time, (fn, args)):
            self.push_packed(time, fn, args)
            return
        self._live += 1

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def pop(self) -> Optional[Event]:
        """Remove and return the earliest pending entry as an Event.

        Raw entries are wrapped into an Event on the way out so the
        compatibility surface (``step()``, the peeking run loop, tests)
        sees one uniform type; the fused fast loop (:meth:`run_fast`)
        never pays for this.
        """
        entry, time = self._calendar.take()
        if entry is None:
            return None
        self._live -= 1
        if type(entry) is tuple:
            fn, args = entry
            seq = self._seq
            self._seq = seq + 1
            return Event(time, seq, fn, args)
        # Once delivered, a late cancel() is a no-op for accounting
        # (the event is no longer pending).
        entry._queue = None
        return entry

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending entry without removing it."""
        time = self._calendar.front_time()
        return None if time < 0 else time

    def run_fast(self, sim, budget: int) -> int:
        """The fused hot loop: pop, fire and recycle without peeking.

        Equivalent to repeatedly calling :meth:`pop` and firing, but
        with the calendar scan, the dispatch and the Event recycling
        inlined into one frame.  ``sim.now`` is advanced before each
        callback; the loop honours ``sim._stop`` exactly like the
        outer loop (checked after every delivery).  Returns the number
        of entries fired.
        """
        cal = self._calendar
        free = self._free
        getrefcount = sys.getrefcount
        scan = cal._scan
        past = cal._past
        over = cal._over
        fired = 0
        try:
            while fired < budget and not sim._stop:
                # -- inline CalendarQueue.take ------------------------
                ev = cal._front
                if ev is not None:
                    src = cal._front_src
                    t = cal._front_time
                    cal._front = cal._front_src = None
                    if type(ev) is not tuple and ev.cancelled:
                        ev, src, t = scan()
                else:
                    ev, src, t = scan()
                if ev is None:
                    break
                if src is past or src is over:
                    heappop(src)
                else:
                    src.popleft()
                    cal._ring_count -= 1
                if t > cal._floor:
                    cal._advance_floor(t)
                # -- dispatch -----------------------------------------
                sim.now = t
                if type(ev) is tuple:
                    fn, args = ev
                    fn(*args)
                else:
                    ev.fn(*ev.args)
                    ev._queue = None
                    if (len(free) < _FREE_LIST_MAX
                            and getrefcount(ev) == _RECYCLE_REFS_INLINE):
                        ev.fn = None
                        ev.args = None
                        free.append(ev)
                fired += 1
        finally:
            self._live -= fired
        return fired

    def recycle(self, event: Event) -> None:
        """Return a fired event to the free list if nothing else holds it.

        Safe to skip entirely; recycling is purely an allocation
        optimisation.  The refcount guard keeps cancellation semantics
        exact: any externally held handle pins its event forever.
        """
        if (len(self._free) < _FREE_LIST_MAX
                and sys.getrefcount(event) == _RECYCLE_REFS):
            event.fn = None
            event.args = None
            self._free.append(event)

    @property
    def free_list_size(self) -> int:
        return len(self._free)


class HeapEventQueue:
    """The seed binary-heap kernel, kept as a reference.

    Used by differential tests and ``bench_engine_throughput.py`` to
    check ordering equivalence with, and measure speedup over, the
    calendar kernel.  Beyond the seed's push/pop/peek it carries
    Event-backed ``push_raw`` and a plain ``run_fast`` loop, and
    ``recycle`` is a no-op, so the modern simulator can drive it
    unchanged.
    """

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time``; returns the event."""
        event = Event(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, event)
        return event

    def push_packed(self, time: int, fn: Callable[..., Any],
                    args: Tuple[Any, ...]) -> Event:
        event = Event(time, next(self._seq), fn, args)
        heapq.heappush(self._heap, event)
        return event

    def push_raw(self, time: int, fn: Callable[..., Any],
                 args: Tuple[Any, ...]) -> None:
        """Handle-free scheduling, Event-backed here: the reference
        kernel keeps one representation so its ordering stays the
        canonical ``(time, seq)`` FIFO the calendar must reproduce."""
        self.push_packed(time, fn, args)

    def run_fast(self, sim, budget: int) -> int:
        """Reference counterpart of :meth:`EventQueue.run_fast` (plain
        pop/fire loop; no inlining — this kernel is never timed)."""
        fired = 0
        while fired < budget and not sim._stop:
            event = self.pop()
            if event is None:
                break
            sim.now = event.time
            event.fn(*event.args)
            fired += 1
        return fired

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest non-cancelled event, or ``None``."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def recycle(self, event: Event) -> None:
        """No-op: the reference kernel allocates a fresh Event per push."""
