"""Calendar-queue kernel: differential equivalence and regions.

The calendar queue must be observationally identical to the seed heap
kernel (:class:`HeapEventQueue`) for every push/pop/run interleaving:
same entries, same order, bit for bit.  These tests drive both kernels
through generated programs and through each corner of the calendar's
three storage regions (ring, overflow heap, past heap).
"""

import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine.event import DEFAULT_WINDOW, EventQueue, HeapEventQueue
from repro.engine.simulator import SimulationError, Simulator

#: A small ring, so generated programs reach the overflow and past heaps
#: (no paper workload schedules past the default window).
WINDOW = 16

#: Push delays.  The far-ahead ones take few distinct values, so entries
#: often tie on a cycle beyond the window and must migrate into the ring
#: in push order.
DELAYS = st.one_of(
    st.just(0),                                  # same cycle
    st.integers(1, WINDOW - 1),                  # inside the ring window
    st.sampled_from([k * WINDOW + j for k in (1, 2) for j in range(4)]),
    st.integers(-2 * WINDOW, -1),                # behind the floor (raw API)
    st.sampled_from((-1, WINDOW - 1, WINDOW)),   # the region edges
)
PUSH = st.tuples(st.just("push"), DELAYS,
                 st.lists(DELAYS, max_size=3),            # follow-ups
                 st.sampled_from((False, False, False, True)))  # stop
STEPS = st.lists(st.one_of(PUSH,
                           st.just(("pop",)),
                           st.tuples(st.just("run"), st.integers(0, 12))),
                 max_size=60)


def _noop():
    pass


class _World:
    """One kernel with the clock and stop flag ``run_fast`` reads, and a
    log of everything delivered."""

    def __init__(self, queue):
        self.queue = queue
        self.sim = SimpleNamespace(now=0, _stop=False)
        self.log = []

    def push(self, delay, tag, follow_ups=(), stop=False):
        self.queue.push_raw(self.sim.now + delay, self.fire,
                            (tag, tuple(follow_ups), stop))

    def fire(self, tag, follow_ups, stop):
        self.log.append((self.sim.now, tag))
        for i, delay in enumerate(follow_ups):
            self.push(delay, f"{tag}/{i}")
        if stop:
            self.sim._stop = True

    def step(self, op, tag):
        if op[0] == "push":
            _, delay, follow_ups, stop = op
            self.push(delay, tag, follow_ups, stop)
        elif op[0] == "pop":
            entry = self.queue.pop()
            if entry is not None:
                time, fn, args = entry
                assert fn == self.fire
                self.sim.now = time
                self.log.append(("pop", time, args[0]))
        else:
            fired = self.queue.run_fast(self.sim, op[1])
            self.sim._stop = False
            self.log.append(("ran", fired))


def _assert_kernels_agree(program, window):
    """Run ``program`` on the calendar and on the heap reference, and
    require equal logs, ``peek_time`` and ``len`` after every step."""
    cal = _World(EventQueue(window=window))
    heap = _World(HeapEventQueue())
    for i, op in enumerate(program):
        cal.step(op, f"s{i}")
        heap.step(op, f"s{i}")
        assert cal.log == heap.log
        assert cal.queue.peek_time() == heap.queue.peek_time()
        assert len(cal.queue) == len(heap.queue)
    cal.step(("run", 10_000), "end")
    heap.step(("run", 10_000), "end")
    assert cal.log == heap.log


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_schedule_matches_heap(self, seed):
        # Long seeded push/pop schedules on the default window: a mix of
        # near-future (ring), far-future (overflow heap) and same-cycle
        # (FIFO tie-break) pushes.
        rng = random.Random(seed)
        program = []
        for _ in range(2000):
            if rng.random() < 0.55:
                delay = rng.choice(
                    (0, 1, rng.randrange(64), rng.randrange(5 * DEFAULT_WINDOW))
                )
                program.append(("push", delay, [], False))
            else:
                program.append(("pop",))
        _assert_kernels_agree(program, DEFAULT_WINDOW)

    @settings(max_examples=200, deadline=None)
    @given(program=STEPS)
    # Two entries tied beyond the window migrate together when an
    # earlier entry advances the floor: they must keep push order.
    @example(program=[("push", WINDOW, [], False),
                      ("push", WINDOW, [], False),
                      ("push", 1, [], False),
                      ("run", 12)])
    def test_generated_program_matches_heap(self, program):
        _assert_kernels_agree(program, WINDOW)

    def test_same_cycle_fifo_order(self):
        queue = EventQueue()
        for i in range(100):
            queue.push_raw(7, _noop, (i,))
        order = [queue.pop()[2][0] for _ in range(100)]
        assert order == list(range(100))

    def test_overflow_migration_preserves_fifo(self):
        # Entries far beyond the window land in the overflow heap; once
        # the floor advances they migrate into ring buckets.  Entries
        # later pushed directly to the same cycle must fire *after* the
        # migrated ones.
        queue = EventQueue()
        far = 3 * DEFAULT_WINDOW
        for i in range(8):
            queue.push_raw(far, _noop, ("early", i))
        queue.push_raw(DEFAULT_WINDOW + 1, _noop, ("stepper",))
        assert queue.pop()[2] == ("stepper",)  # floor advances
        for i in range(8):
            queue.push_raw(far, _noop, ("late", i))
        fired = [queue.pop()[2] for _ in range(16)]
        assert fired == ([("early", i) for i in range(8)]
                         + [("late", i) for i in range(8)])


class TestRegions:
    def test_past_time_raw_push_still_sorts(self):
        # The raw queue API (no Simulator) accepts pushes behind the
        # floor; they sort before everything else.
        queue = EventQueue()
        queue.push_raw(100, _noop, ())
        assert queue.pop()[0] == 100
        queue.push_raw(10, _noop, ("behind",))
        queue.push_raw(150, _noop, ("ahead",))
        assert queue.pop() == (10, _noop, ("behind",))
        assert queue.pop() == (150, _noop, ("ahead",))

    def test_physical_size_counts_all_regions(self):
        # Nothing can be cancelled, so len() is the physical size:
        # every stored entry, whichever region holds it.
        queue = EventQueue(window=16)
        queue.push_raw(100, _noop, ())
        queue.pop()
        queue.push_raw(101, _noop, ())    # ring
        queue.push_raw(1000, _noop, ())   # overflow heap
        queue.push_raw(5, _noop, ())      # past heap
        assert len(queue) == 3


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
