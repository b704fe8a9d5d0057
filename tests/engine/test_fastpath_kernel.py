"""Unit tests for the kernel's hot-path primitives:

* ``push_raw`` — handle-free raw entries, FIFO-ordered against Events;
* ``run_fast`` — the fused pop/fire loop, equivalent to the pop loop.
"""

from repro.engine.event import EventQueue, HeapEventQueue
from repro.engine.simulator import Simulator


class TestRawEntries:
    def test_raw_and_event_pushes_share_fifo_order(self):
        queue = EventQueue()
        reference = HeapEventQueue()
        schedule = [
            (5, "a"), (3, "b"), (5, "c"), (3, "d"), (5, "e"), (4, "f"),
        ]
        for i, (time, tag) in enumerate(schedule):
            if i % 2:
                queue.push(time, lambda: None)
                reference.push(time, lambda: None)
            else:
                queue.push_raw(time, lambda: None, ())
                reference.push_raw(time, lambda: None, ())
        order = []
        ref_order = []
        while True:
            event = queue.pop()
            if event is None:
                break
            order.append((event.time,))
        while True:
            event = reference.pop()
            if event is None:
                break
            ref_order.append((event.time,))
        assert order == ref_order == sorted(ref_order)

    def test_push_raw_far_future_falls_back_to_event(self):
        """Raw entries outside the calendar ring window must still land
        (wrapped as Events in the heap region) and keep time order."""
        queue = EventQueue()
        queue.push_raw(10, lambda: None, ())
        queue.push_raw(10_000_000, lambda: None, ())
        assert len(queue) == 2
        first = queue.pop()
        second = queue.pop()
        assert (first.time, second.time) == (10, 10_000_000)

    def test_live_count_tracks_raw_entries(self):
        queue = EventQueue()
        queue.push_raw(1, lambda: None, ())
        queue.push_raw(2, lambda: None, ())
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1
        queue.pop()
        assert len(queue) == 0


class TestRunFastEquivalence:
    @staticmethod
    def _schedule(sim, log):
        def reschedule(tag, depth):
            log.append((sim.now, tag))
            if depth:
                sim.events.push_raw(sim.now + 3, reschedule,
                                    (tag + "'", depth - 1))

        for i, tag in enumerate("abcd"):
            sim.events.push_raw(i % 2, reschedule, (tag, 2))
        sim.events.push(1, reschedule, "ev", 1)

    def test_fused_loop_matches_pop_loop(self):
        fast_sim = Simulator()
        fast_log = []
        self._schedule(fast_sim, fast_log)
        fast_sim.run()  # takes the fused run_fast path (no profiler)

        slow_sim = Simulator()
        slow_log = []
        self._schedule(slow_sim, slow_log)
        while True:  # the compatibility pop loop
            event = slow_sim.events.pop()
            if event is None:
                break
            slow_sim.now = event.time
            event.fn(*event.args)

        assert fast_log == slow_log
        assert fast_sim.now == slow_sim.now

    def test_run_fast_honours_budget_and_stop(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.events.push_raw(i, fired.append, (i,))
        assert sim.events.run_fast(sim, budget=4) == 4
        assert fired == [0, 1, 2, 3]
        sim._stop = True
        assert sim.events.run_fast(sim, budget=10) == 0
