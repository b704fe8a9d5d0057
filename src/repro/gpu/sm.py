"""The streaming multiprocessor model.

An SM hosts a set of warp contexts and arbitrates one shared issue port
among them (``issue_width`` instructions per cycle, default 1).  The
scheduling approximates GTO (greedy-then-oldest): a warp that becomes
ready reserves the issue port for its whole compute burst plus the
memory instruction, so the greediest ready warp runs until it blocks on
memory, and blocked warps consume no issue bandwidth.

Outstanding memory operations are bounded by the per-SM memory MSHRs
(``max_outstanding_mem``, paper Table I: 12).  When the bound is hit a
warp's memory instruction waits in a FIFO; this back-pressure is what
couples translation latency to IPC — the effect the whole paper studies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.engine.config import SmConfig
from repro.engine.simulator import Simulator
from repro.gpu.coalescer import Coalescer
from repro.gpu.warp import Warp, WarpOp


class _Join:
    """Countdown join for one coalesced memory op.

    The GPU invokes it once per issued access; the final invocation
    releases the warp.  A slotted object instead of a per-op closure:
    the memory path runs once per warp op, and the closure variant cost
    one cell object plus a fresh function object each time.
    """

    __slots__ = ("sm", "warp", "remaining")

    def __init__(self, sm: "Sm", warp: Warp, remaining: int) -> None:
        self.sm = sm
        self.warp = warp
        self.remaining = remaining

    def __call__(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.sm._mem_complete(self.warp)


class Sm:
    """One streaming multiprocessor assigned to a single tenant."""

    def __init__(self, sim: Simulator, sm_id: int, config: SmConfig,
                 gpu, coalescer: Coalescer) -> None:
        self.sim = sim
        self.sm_id = sm_id
        self.config = config
        self.gpu = gpu
        self.coalescer = coalescer
        self._issue_free = 0  # next cycle the issue port is available
        self._max_outstanding = config.max_outstanding_mem
        self._outstanding = 0
        self._mem_wait: Deque[Tuple[Warp, WarpOp]] = deque()
        self.active_warps = 0

    # ------------------------------------------------------------------
    # Warp lifecycle
    # ------------------------------------------------------------------
    def add_warp(self, warp: Warp) -> None:
        self.active_warps += 1
        self.sim.after(0, self._advance_warp, warp)

    def _advance_warp(self, warp: Warp) -> None:
        op = warp.next_op()
        if op is None:
            self.active_warps -= 1
            self.gpu.note_warp_done(self.sm_id, warp)
            return
        # Reserve the issue port for the burst (greedy: the whole stretch
        # of compute plus the memory instruction issues back to back).
        sim = self.sim
        start = self._issue_free
        if start < sim.now:
            start = sim.now
        duration = op.instructions
        if duration < 1:
            duration = 1
        done = start + duration
        self._issue_free = done
        self.gpu.count_instructions(warp.tenant_id, op.instructions)
        sim.events.push_raw(done, self._after_issue, (warp, op))

    def _after_issue(self, warp: Warp, op: WarpOp) -> None:
        if not op.addrs:
            # pure compute stretch: the warp is immediately ready again
            self._advance_warp(warp)
            return
        if self._outstanding >= self._max_outstanding:
            self._mem_wait.append((warp, op))
            return
        self._issue_mem(warp, op)

    # ------------------------------------------------------------------
    # Memory path
    # ------------------------------------------------------------------
    def _issue_mem(self, warp: Warp, op: WarpOp) -> None:
        self._outstanding += 1
        accesses = self.coalescer.coalesce_op(op)
        self.gpu.access_burst(self.sm_id, warp.tenant_id, accesses,
                              op.is_write, _Join(self, warp, len(accesses)))

    def _mem_complete(self, warp: Warp) -> None:
        self._outstanding -= 1
        if self._mem_wait:
            next_warp, next_op = self._mem_wait.popleft()
            self._issue_mem(next_warp, next_op)
        self._advance_warp(warp)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def outstanding_mem(self) -> int:
        return self._outstanding

    @property
    def waiting_mem_ops(self) -> int:
        return len(self._mem_wait)
