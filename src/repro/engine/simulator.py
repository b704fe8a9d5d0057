"""The discrete-event simulator kernel.

A :class:`Simulator` owns the clock (in GPU core cycles), the event queue
and the stats registry.  Components schedule work with :meth:`Simulator.at`
(absolute time) or :meth:`Simulator.after` (relative delay) and the kernel
advances time to each event in order.

The kernel supports *run-until-predicate* termination two ways: the
``stop_when`` callable polled after every event (seed API), and the
cheaper :meth:`Simulator.stop` flag that a component sets from inside an
event callback — both stop at the same event boundary, so swapping one
for the other does not change simulated behaviour.  The multi-tenant
manager uses :meth:`stop` to implement the paper's methodology of
running until every tenant has completed at least one full execution.

The common no-``until``/no-``stop_when`` case runs a tight loop that
pops and fires events without peeking, which together with the calendar
queue in :mod:`repro.engine.event` is what the engine throughput
benchmark measures.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Optional

from repro.engine.event import EventQueue
from repro.engine.stats import StatsRegistry


class SimulationError(RuntimeError):
    """Raised for impossible simulation states (bugs, bad configs).

    Root of the typed simulation-failure hierarchy.  Subclasses carry
    structured context — which tenant, which walker, at what simulated
    time — so supervisors and the crash-forensics layer can act on a
    failure without parsing its message.  Extra keyword arguments land
    in :attr:`context` and survive pickling across the worker-process
    boundary (the default ``BaseException`` reduce protocol restores
    ``__dict__``).
    """

    def __init__(self, message: str, *,
                 tenant_id: Optional[int] = None,
                 walker_id: Optional[int] = None,
                 sim_time: Optional[int] = None,
                 **context: Any) -> None:
        super().__init__(message)
        self.message = message
        self.tenant_id = tenant_id
        self.walker_id = walker_id
        self.sim_time = sim_time
        self.context = context

    def __str__(self) -> str:
        tags = []
        if self.tenant_id is not None:
            tags.append(f"tenant={self.tenant_id}")
        if self.walker_id is not None:
            tags.append(f"walker={self.walker_id}")
        if self.sim_time is not None:
            tags.append(f"sim_time={self.sim_time}")
        if not tags:
            return self.message
        return f"{self.message} [{', '.join(tags)}]"

    def details(self) -> dict:
        """JSON-portable view for forensics bundles and reports."""
        out: dict = {"type": type(self).__name__, "message": self.message}
        if self.tenant_id is not None:
            out["tenant_id"] = self.tenant_id
        if self.walker_id is not None:
            out["walker_id"] = self.walker_id
        if self.sim_time is not None:
            out["sim_time"] = self.sim_time
        out.update(self.context)
        return out


class WalkerStateError(SimulationError):
    """A page table walker observed an impossible internal state."""


class WalkAccountingError(SimulationError):
    """Per-tenant walk/occupancy accounting went out of balance."""


class EventBudgetExceeded(SimulationError):
    """A run burned its event budget before reaching its stop condition."""


class Simulator:
    """Discrete-event simulation kernel with an integer cycle clock."""

    def __init__(self) -> None:
        self.now: int = 0
        self.events = EventQueue()
        self.stats = StatsRegistry()
        self.profiler = None  # repro.engine.profile.EngineProfiler or None
        # Per-event integrity callback (repro.integrity).  Like
        # ``profiler``, attaching one routes run() through the slow loop;
        # when it is None — the default — the fast path pays nothing.
        self.audit_hook: Optional[Callable[[], None]] = None
        self._running = False
        self._stop = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        self.events.push_raw(time, fn, args)

    def after(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.events.push_raw(self.now + delay, fn, args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request the run loop to stop after the current event.

        Equivalent to a ``stop_when`` predicate turning true, without the
        per-event polling cost.  Cleared by the next :meth:`run` call.
        """
        self._stop = True

    def step(self) -> bool:
        """Fire the next event.  Returns ``False`` when the queue is empty."""
        entry = self.events.pop()
        if entry is None:
            return False
        time, fn, args = entry
        if time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue returned a past event")
        self.now = time
        fn(*args)
        return True

    def run(
        self,
        until: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in order.

        Stops when the queue drains, when the clock would pass ``until``,
        when ``stop_when()`` becomes true (checked after each event), when
        :meth:`stop` is called from a callback, or after ``max_events``
        events.  Returns the number of events fired.
        """
        fired = 0
        self._running = True
        self._stop = False
        events = self.events
        take = events.pop
        profiler = self.profiler
        audit = self.audit_hook
        try:
            if (until is None and stop_when is None and profiler is None
                    and audit is None):
                # Fast path: nothing to peek for, nothing to poll — the
                # fused loop inside the event queue pops and dispatches
                # in one frame.
                budget = sys.maxsize if max_events is None else max_events
                fired = events.run_fast(self, budget)
            else:
                while True:
                    if self._stop or (stop_when is not None and stop_when()):
                        break
                    if max_events is not None and fired >= max_events:
                        break
                    if until is not None:
                        next_time = events.peek_time()
                        if next_time is None:
                            # nothing left to do; an explicit bound still
                            # defines where the clock stands when the
                            # caller resumes
                            if until > self.now:
                                self.now = until
                            break
                        if next_time > until:
                            self.now = until
                            break
                    entry = take()
                    if entry is None:
                        break
                    self.now, fn, args = entry
                    if profiler is not None:
                        profiler.record(fn)
                    fn(*args)
                    fired += 1
                    if audit is not None:
                        # After the event: the hook sees quiescent
                        # state, exactly between two events.
                        audit()
        finally:
            self._running = False
        return fired

    def drain(self, max_events: int = 10_000_000) -> int:
        """Run until the event queue is empty (bounded as a bug backstop)."""
        fired = self.run(max_events=max_events)
        if len(self.events) and fired >= max_events:
            raise SimulationError("drain() exceeded max_events; runaway event loop?")
        return fired
