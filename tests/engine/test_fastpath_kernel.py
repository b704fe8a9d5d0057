"""Unit tests for the kernel's hot-path primitives:

* ``push_raw`` — handle-free ``(fn, args)`` entries in every region;
* ``run_fast`` — the fused pop/fire loop, equivalent to the pop loop.
"""

from repro.engine.event import EventQueue
from repro.engine.simulator import Simulator


class TestRawEntries:
    def test_push_raw_far_future_lands_in_overflow_heap(self):
        """Entries outside the calendar ring window land in the
        overflow heap and keep time order."""
        queue = EventQueue()
        queue.push_raw(10, lambda: None, ())
        queue.push_raw(10_000_000, lambda: None, ())
        assert len(queue) == 2
        first = queue.pop()
        second = queue.pop()
        assert (first[0], second[0]) == (10, 10_000_000)

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
        sim.events.push_raw(1, reschedule, ("ev", 1))

    def test_fused_loop_matches_pop_loop(self):
        fast_sim = Simulator()
        fast_log = []
        self._schedule(fast_sim, fast_log)
        fast_sim.run()  # takes the fused run_fast path (no profiler)

        slow_sim = Simulator()
        slow_log = []
        self._schedule(slow_sim, slow_log)
        while True:  # the plain pop loop
            entry = slow_sim.events.pop()
            if entry is None:
                break
            slow_sim.now, fn, args = entry
            fn(*args)

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
