"""The page table walker: a small FSM issuing page-table memory accesses.

A walker services one walk at a time.  Servicing consists of

1. probing the page walk cache (``pwc_latency`` cycles) for the longest
   prefix match,
2. issuing the remaining ``depth - skip`` page-table reads *sequentially*
   (each level's address depends on the previous level's PTE) through the
   shared L2 data cache / DRAM, and
3. filling the PWC and reporting completion to the subsystem.

The walker also drives the per-tenant busy-occupancy samplers used for
the walker-share half of Figure 9.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.engine.simulator import Simulator, WalkerStateError
from repro.vm.walk import WalkRequest


class Walker:
    """A single page table walker owned by the walk subsystem."""

    def __init__(self, walker_id: int, subsystem) -> None:
        self.id = walker_id
        self.subsystem = subsystem
        self.sim: Simulator = subsystem.sim
        self.current: Optional[WalkRequest] = None
        # busy mirrors ``current is not None`` as a plain attribute: the
        # dispatch loop polls every walker on each completion, and a
        # property descriptor there is measurable kernel overhead.
        self.busy = False
        # set while a dispatch with non-zero latency is in flight for us
        self.reserved = False
        # Level cursor for the walk in service.  A walker services one
        # walk at a time, so the per-level continuation can live as
        # instance state and reuse one bound method (``_level_done``)
        # instead of allocating a closure per page-table level.
        self._addrs = ()
        self._index = 0

    # ------------------------------------------------------------------
    # Walk execution
    # ------------------------------------------------------------------
    def start(self, request: WalkRequest) -> None:
        """Begin servicing ``request`` (assigned by the policy)."""
        if self.busy:
            raise WalkerStateError(
                f"walker {self.id} is already busy",
                tenant_id=request.tenant_id, walker_id=self.id,
                sim_time=self.sim.now)
        self.busy = True
        self.current = request
        request.walker_id = self.id
        request.service_start = self.sim.now
        self.subsystem.note_service_start(self, request)
        pwc = self.subsystem.pwc
        skip = pwc.probe(request.tenant_id, request.vpn)
        addrs = self.subsystem.walk_addresses(request)
        if skip >= len(addrs):  # pragma: no cover - probe() caps below depth
            raise WalkerStateError(
                "PWC cannot skip the leaf level",
                tenant_id=request.tenant_id, walker_id=self.id,
                sim_time=self.sim.now)
        request.memory_accesses = len(addrs) - skip
        self.sim.after(self.subsystem.pwc_latency,
                       self._issue_level, request, addrs, skip)

    def _issue_level(self, request: WalkRequest, addrs, index: int) -> None:
        if request is not self.current:  # pragma: no cover - defensive
            raise WalkerStateError(
                "walker is servicing a different request than it issued "
                "levels for",
                tenant_id=request.tenant_id, walker_id=self.id,
                sim_time=self.sim.now)
        if index >= len(addrs):
            self._finish(request)
            return
        self._addrs = addrs
        self._index = index
        self.subsystem.memory.walker_access(
            addrs[index], self._level_done, request.tenant_id,
        )

    def _level_done(self) -> None:
        """Continuation for the level read just returned by memory."""
        self._issue_level(self.current, self._addrs, self._index + 1)

    def _finish(self, request: WalkRequest) -> None:
        request.completion_time = self.sim.now
        self.current = None
        self.busy = False
        self.subsystem.pwc.fill(request.tenant_id, request.vpn)
        self.subsystem.note_completion(self, request)
