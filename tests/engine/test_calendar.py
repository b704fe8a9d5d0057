"""Calendar-queue kernel: differential equivalence, regions, recycling.

The calendar queue must be observationally identical to the seed heap
kernel (:class:`HeapEventQueue`) for every push/pop/cancel interleaving:
same events, same order, bit for bit.  These tests drive both kernels
through random schedules and through each corner of the calendar's three
storage regions (ring, overflow heap, past heap).
"""

import random

import pytest

from repro.engine.calendar import DEFAULT_WINDOW, CalendarQueue
from repro.engine.event import EventQueue, HeapEventQueue
from repro.engine.simulator import SimulationError, Simulator


def _noop():
    pass


def drain_labels(queue):
    """Pop everything, returning the (time, seq) identity sequence."""
    out = []
    while True:
        event = queue.pop()
        if event is None:
            return out
        out.append((event.time, event.seq))


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedule_matches_heap(self, seed):
        rng = random.Random(seed)
        cal, heap = EventQueue(), HeapEventQueue()
        now = 0
        popped_cal, popped_heap = [], []
        handles = []
        for step in range(2000):
            action = rng.random()
            if action < 0.55:
                # Mix of near-future (ring), far-future (overflow
                # heap) and same-cycle (FIFO tie-break) pushes.
                delay = rng.choice(
                    (0, 1, rng.randrange(64), rng.randrange(5 * DEFAULT_WINDOW))
                )
                handles.append((cal.push(now + delay, _noop),
                                heap.push(now + delay, _noop)))
            elif action < 0.75 and handles:
                pair = handles.pop(rng.randrange(len(handles)))
                for handle in pair:
                    handle.cancel()
            else:
                a, b = cal.pop(), heap.pop()
                if a is None:
                    assert b is None
                else:
                    assert (a.time, a.seq) == (b.time, b.seq)
                    now = a.time
        assert drain_labels(cal) == drain_labels(heap)

    def test_same_cycle_fifo_order(self):
        queue = EventQueue()
        events = [queue.push(7, _noop) for _ in range(100)]
        order = [queue.pop() for _ in range(100)]
        assert [e.seq for e in order] == [e.seq for e in events]

    def test_overflow_migration_preserves_fifo(self):
        # Events far beyond the window land in the overflow heap; once
        # the floor advances they migrate into ring buckets.  Events
        # later pushed directly to the same cycle must fire *after* the
        # migrated ones (lower seq first).
        queue = EventQueue()
        far = 3 * DEFAULT_WINDOW
        early_batch = [queue.push(far, _noop) for _ in range(8)]
        stepper = queue.push(DEFAULT_WINDOW + 1, _noop)
        assert queue.pop() is stepper  # floor advances past the window
        late_batch = [queue.push(far, _noop) for _ in range(8)]
        fired = [queue.pop() for _ in range(16)]
        assert fired == early_batch + late_batch


class TestRegions:
    def test_past_time_raw_push_still_sorts(self):
        # The raw queue API (no Simulator) accepts pushes behind the
        # floor; they sort before everything else.
        queue = EventQueue()
        queue.push(100, _noop)
        assert queue.pop().time == 100
        behind = queue.push(10, _noop)
        ahead = queue.push(150, _noop)
        assert queue.pop() is behind
        assert queue.pop() is ahead

    @pytest.mark.parametrize("delay", [0, 3, DEFAULT_WINDOW * 2])
    def test_cancellation_in_each_region(self, delay):
        queue = EventQueue()
        doomed = queue.push(delay, _noop)
        survivor = queue.push(delay, _noop)
        doomed.cancel()
        assert queue.pop() is survivor
        assert queue.pop() is None

    def test_cancelled_event_behind_front_cache(self):
        queue = EventQueue()
        first = queue.push(5, _noop)
        assert queue.peek_time() == 5  # primes the front cache
        first.cancel()
        second = queue.push(9, _noop)
        assert queue.peek_time() == 9
        assert queue.pop() is second

    def test_physical_size_counts_all_regions(self):
        calendar = CalendarQueue(window=16)
        queue = EventQueue(window=16)
        queue._calendar = calendar
        queue.push(1, _noop)          # ring
        queue.push(1000, _noop)       # overflow heap
        assert calendar.physical_size() == 2


class TestLiveCount:
    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        events = [queue.push(i, _noop) for i in range(10)]
        assert len(queue) == 10
        for event in events[:4]:
            event.cancel()
        assert len(queue) == 6
        events[0].cancel()  # double-cancel must not double-count
        assert len(queue) == 6

    def test_popped_event_late_cancel_is_noop(self):
        queue = EventQueue()
        event = queue.push(1, _noop)
        queue.push(2, _noop)
        assert queue.pop() is event
        event.cancel()  # already delivered: no accounting change
        assert len(queue) == 1

    def test_drain_ignores_cancelled_backlog(self):
        # Regression: drain()'s runaway check used to misfire when the
        # physical queue still held cancelled tombstones after exactly
        # max_events real events.
        sim = Simulator()
        for i in range(10):
            sim.at(i, _noop)
        for i in range(5):
            sim.at(20 + i, _noop).cancel()
        assert sim.drain(max_events=10) == 10


class TestRecycling:
    def test_fired_events_are_recycled(self):
        queue = EventQueue()
        queue.push(1, _noop)

        def pop_and_recycle(q):
            # Mirrors the run loop's call shape (one local reference).
            event = q.pop()
            q.recycle(event)

        pop_and_recycle(queue)
        if queue.free_list_size == 0:
            pytest.skip("recycling disabled on this interpreter")
        assert queue.free_list_size == 1
        reused = queue.push(2, _noop)
        assert queue.free_list_size == 0
        assert not reused.cancelled
        assert queue.pop() is reused

    def test_held_handle_is_never_recycled(self):
        queue = EventQueue()
        held = queue.push(1, _noop)
        event = queue.pop()
        queue.recycle(event)
        assert queue.free_list_size == 0  # `held` still references it
        assert held is event


class TestSimulatorIntegration:
    def test_stop_flag_halts_at_event_boundary(self):
        sim = Simulator()
        fired = []
        sim.at(1, fired.append, 1)
        sim.at(2, sim.stop)
        sim.at(3, fired.append, 3)
        assert sim.run() == 2
        assert fired == [1]
        assert len(sim.events) == 1  # the t=3 event is still pending

    def test_past_schedule_rejected(self):
        sim = Simulator()
        sim.at(5, _noop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(4, _noop)
