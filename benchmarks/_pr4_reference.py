"""A faithful in-process reconstruction of the PR-4 engine, for benchmarks.

The latency-folding PR changes both the event kernel (raw ``(fn, args)``
ring entries, the fused ``run_fast`` loop, handle-free ``post_at`` /
``post_after`` scheduling, per-timestamp completion batches) and the hot
component bodies (side-effect-complete probes, direct counter bumps,
raw-push scheduling).  The issue's acceptance criterion is speedup **over
the engine as of PR 4**, and wall-clock numbers recorded in a JSON file
by an earlier session on different machine load are not comparable — so,
exactly like :mod:`_seed_reference` does for the v0 seed, this module
carries the PR-4 implementations verbatim (from the PR-4 tip commit) and
:func:`pr4_engine` patches them onto the live classes for the duration
of a reference run.  The benchmark interleaves the three engines in one
process, which is the only honest way to compare them.

Every patched method is behaviourally identical to its optimised
replacement — the benchmark asserts the PR-4 and seed sides fire the
same event count and that the shipping engine's stats snapshot is
byte-identical — so the ratios isolate cost, not behaviour.

Benchmark-internal; nothing in ``src/`` imports this.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

import repro.tenancy.manager as manager_module
from repro.engine.calendar import DEFAULT_WINDOW
from repro.engine.event import _FREE_LIST_MAX, Event
from repro.engine.simulator import SimulationError, Simulator
from repro.gpu.gpu import Gpu
from repro.gpu.sm import Sm
from repro.mem.cache import Cache, _MshrEntry
from repro.mem.dram import Dram
from repro.mem.interconnect import Interconnect
from repro.core.partitioned import PartitionedWalkPolicy
from repro.core.structures import TenantWalkerMap
from repro.engine.simulator import WalkerStateError
from repro.vm.address import PTE_BYTES
from repro.vm.page_table import PageTable
from repro.vm.pwc import PageWalkCache
from repro.vm.subsystem import PageWalkSubsystem
from repro.vm.tlb import Tlb
from repro.vm.walk import WalkRequest
from repro.vm.walker import Walker


# ----------------------------------------------------------------------
# PR-4 event kernel, verbatim: Event-only calendar + recycling queue
# ----------------------------------------------------------------------
class Pr4CalendarQueue:
    """The PR-4 ``CalendarQueue``: Event objects only, no raw entries."""

    __slots__ = ("_window", "_mask", "_buckets", "_floor", "_cursor",
                 "_ring_count", "_past", "_over", "_front", "_front_src")

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        from collections import deque
        self._window = window
        self._mask = window - 1
        self._buckets: List = [deque() for _ in range(window)]
        self._floor = 0
        self._cursor = 0
        self._ring_count = 0
        self._past: list = []
        self._over: list = []
        self._front = None
        self._front_src = None

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
        front = self._front
        if front is not None and t < front.time:
            self._front = self._front_src = None

    def _scan(self):
        past = self._past
        while past:
            ev = past[0][2]
            if ev.cancelled:
                heappop(past)
            else:
                return ev, past
        if self._ring_count:
            buckets = self._buckets
            mask = self._mask
            t = self._cursor
            while True:
                bucket = buckets[t & mask]
                while bucket:
                    ev = bucket[0]
                    if ev.cancelled:
                        bucket.popleft()
                        self._ring_count -= 1
                    else:
                        self._cursor = t
                        return ev, bucket
                if not self._ring_count:
                    break
                t += 1
        over = self._over
        while over:
            ev = over[0][2]
            if ev.cancelled:
                heappop(over)
            else:
                return ev, over
        return None, None

    def front(self):
        ev = self._front
        if ev is not None and not ev.cancelled:
            return ev
        ev, src = self._scan()
        self._front = ev
        self._front_src = src
        return ev

    def take(self):
        ev = self._front
        src = self._front_src
        self._front = self._front_src = None
        if ev is None or ev.cancelled:
            ev, src = self._scan()
            if ev is None:
                return None
        if src is self._past or src is self._over:
            heappop(src)
        else:
            src.popleft()
            self._ring_count -= 1
        t = ev.time
        if t > self._floor:
            self._advance_floor(t)
        return ev

    def _advance_floor(self, t: int) -> None:
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


def _calibrate_recycle_threshold() -> int:
    if sys.implementation.name != "cpython":
        return -1
    probe = Event(0, 0, None, ())
    return _probe_refcount(probe)


def _probe_refcount(obj: object) -> int:
    return sys.getrefcount(obj)


_RECYCLE_REFS = _calibrate_recycle_threshold()


class Pr4EventQueue:
    """The PR-4 ``EventQueue``: one :class:`Event` per push, free-list
    recycling through the non-inlined ``recycle`` call shape."""

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        self._calendar = Pr4CalendarQueue(window)
        self._seq = 0
        self._live = 0
        self._free: list = []

    def __len__(self) -> int:
        return self._live

    def push(self, time: int, fn: Callable[..., Any], *args: Any) -> Event:
        return self.push_packed(time, fn, args)

    def push_packed(self, time: int, fn: Callable[..., Any],
                    args: Tuple[Any, ...]) -> Event:
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

    def pop(self) -> Optional[Event]:
        event = self._calendar.take()
        if event is not None:
            self._live -= 1
            event._queue = None
        return event

    def peek_time(self) -> Optional[int]:
        event = self._calendar.front()
        return None if event is None else event.time

    def recycle(self, event: Event) -> None:
        if (len(self._free) < _FREE_LIST_MAX
                and sys.getrefcount(event) == _RECYCLE_REFS):
            event.fn = None
            event.args = None
            self._free.append(event)

    @property
    def free_list_size(self) -> int:
        return len(self._free)


class Pr4Simulator(Simulator):
    """The PR-4 ``Simulator``: per-event pop/fire/recycle run loop.

    ``post_at``/``post_after`` exist (current component code not patched
    back calls them) but allocate a full :class:`Event` via
    ``push_packed`` — exactly the cost the equivalent ``at``/``after``
    call paid in PR 4.
    """

    def __init__(self) -> None:
        super().__init__()
        self.events = Pr4EventQueue()

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now={self.now}"
            )
        self.events.push_packed(time, fn, args)

    def post_after(self, delay: int, fn: Callable[..., Any],
                   *args: Any) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.events.push_packed(self.now + delay, fn, args)

    def run(
        self,
        until: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
        max_events: Optional[int] = None,
    ) -> int:
        fired = 0
        self._running = True
        self._stop = False
        events = self.events
        take = events.pop
        recycle = events.recycle
        profiler = self.profiler
        audit = self.audit_hook
        try:
            if (until is None and stop_when is None and profiler is None
                    and audit is None):
                budget = sys.maxsize if max_events is None else max_events
                while fired < budget and not self._stop:
                    event = take()
                    if event is None:
                        break
                    self.now = event.time
                    event.fn(*event.args)
                    fired += 1
                    recycle(event)
            else:
                while True:
                    if self._stop or (stop_when is not None and stop_when()):
                        break
                    if max_events is not None and fired >= max_events:
                        break
                    if until is not None:
                        next_time = events.peek_time()
                        if next_time is None:
                            if until > self.now:
                                self.now = until
                            break
                        if next_time > until:
                            self.now = until
                            break
                    event = take()
                    if event is None:
                        break
                    self.now = event.time
                    if profiler is not None:
                        profiler.record(event)
                    event.fn(*event.args)
                    fired += 1
                    recycle(event)
                    if audit is not None:
                        audit()
        finally:
            self._running = False
        return fired


# ----------------------------------------------------------------------
# PR-4 component methods, verbatim
# ----------------------------------------------------------------------
def _cache_access(self, addr, is_write, on_done, tenant_id=0):
    line = addr // self._line_bytes
    bank_free = self._bank_free
    bank = line % self._banks
    now = self.sim.now
    start = max(now, bank_free[bank])
    bank_free[bank] = start + self.bank_cycles
    latency = (start - now) + self._hit_latency
    cache_set = self._sets[line % self._num_sets]
    if line in cache_set:
        self._hits.inc()
        cache_set.move_to_end(line)
        if is_write:
            cache_set[line] = True
        self.sim.after(latency, on_done)
        return
    pending = self._mshrs.get(line)
    if pending is not None:
        self._merges.inc()
        pending.waiters.append(on_done)
        pending.any_write = pending.any_write or is_write
        return
    if len(self._mshrs) >= self._mshr_entries:
        self._stalls.inc()
        self._overflow.append((addr, is_write, on_done, tenant_id))
        return
    self._misses.inc()
    entry = _MshrEntry(line)
    entry.waiters.append(on_done)
    entry.any_write = is_write
    self._mshrs[line] = entry
    self.sim.after(
        latency,
        self.lower.access,
        line * self._line_bytes,
        False,
        lambda: self._on_fill(line, tenant_id),
        tenant_id,
    )


def _noc_access(self, addr, is_write, on_done, tenant_id=0):
    self._transfers.inc()
    port = self.port_of(addr)
    now = self.sim.now
    start = max(now, self._port_free[port])
    self._queue_delay.add(start - now)
    self._port_free[port] = start + self.cycles_per_transfer
    self.sim.at(start + self.latency, self.lower.access, addr, is_write,
                on_done, tenant_id)


def _dram_access(self, addr, is_write, on_done, tenant_id=0):
    self._accesses.inc()
    channel = (addr // self.line_bytes) % self._channels
    free = self._channel_free
    now = self.sim.now
    start = max(now, free[channel])
    self._queue_delay.add(start - now)
    free[channel] = start + self._cycles_per_access
    self.sim.post_at(start + self._access_latency, on_done)


def _tlb_lookup(self, tenant_id, vpn):
    key = (tenant_id, vpn)
    tlb_set = self._sets[vpn % self._num_sets]
    self._lookups.inc()
    if key in tlb_set:
        tlb_set.move_to_end(key)
        self._hits.inc()
        return True
    self._misses.inc()
    return False


def _gpu_access_memory(self, sm_id, tenant_id, vaddr, is_write, on_done):
    vpn = vaddr >> self._page_bits
    self.tenants[tenant_id].page_table.ensure_mapped(vpn)
    offset = vaddr & self._page_mask

    def translated(frame):
        paddr = self.memory.frames.frame_to_addr(frame) + offset
        self.memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

    self._translate(sm_id, tenant_id, vpn, translated)


def _gpu_translate(self, sm_id, tenant_id, vpn, on_translated):
    l1 = self.l1_tlbs[sm_id]
    if l1.lookup(tenant_id, vpn):
        frame = self.tenants[tenant_id].page_table.translate(vpn)
        self.sim.after(self._l1_hit_latency, on_translated, frame)
        return
    mshrs = self._xlat_mshrs[sm_id]
    key = (tenant_id, vpn)
    if key in mshrs:
        mshrs[key].append(on_translated)
        return
    if len(mshrs) >= self._mshr_entries:
        self._xlat_overflow[sm_id].append((tenant_id, vpn, on_translated))
        stall = self._mshr_stall_c.get(sm_id)
        if stall is None:
            stall = self._mshr_stall_c[sm_id] = self.sim.stats.counter(
                f"l1tlb.sm{sm_id}.mshr_stalls"
            )
        stall.inc()
        return
    mshrs[key] = [on_translated]
    self.sim.after(self._l1_miss_step,
                   self._l2_tlb_lookup, sm_id, tenant_id, vpn)


def _gpu_l2_tlb_lookup(self, sm_id, tenant_id, vpn):
    l2 = self._l2_tlbs[tenant_id]
    hit = l2.lookup(tenant_id, vpn)
    if self.mask is not None:
        self.mask.note_l2_tlb_lookup(tenant_id, hit)
    if hit:
        frame = self.tenants[tenant_id].page_table.translate(vpn)
        self.sim.after(self._l2_hit_latency, self._finish_translation,
                       sm_id, tenant_id, vpn, frame, False)
        return
    miss = self._l2_miss_c.get(tenant_id)
    if miss is None:
        miss = self._l2_miss_c[tenant_id] = self.sim.stats.counter(
            f"gpu.l2tlb_misses.tenant{tenant_id}"
        )
    miss.inc()
    self.sim.after(
        self._l2_hit_latency,
        lambda: self._pws[tenant_id].request_walk(
            tenant_id, vpn,
            lambda req: self._walk_done(sm_id, tenant_id, vpn, req),
        ),
    )


def _gpu_count_instructions(self, tenant_id, count):
    context = self.tenants[tenant_id]
    context.instructions += count
    counter = self._instr_c.get(tenant_id)
    if counter is None:
        counter = self._instr_c[tenant_id] = self.sim.stats.counter(
            f"gpu.instructions.tenant{tenant_id}"
        )
    counter.inc(count)


def _sm_add_warp(self, warp):
    self.active_warps += 1
    self.sim.after(0, self._advance_warp, warp)


def _sm_advance_warp(self, warp):
    op = warp.next_op()
    if op is None:
        self.active_warps -= 1
        self.gpu.note_warp_done(self.sm_id, warp)
        return
    start = max(self.sim.now, self._issue_free)
    duration = max(1, op.instructions)
    self._issue_free = start + duration
    self.gpu.count_instructions(warp.tenant_id, op.instructions)
    self.sim.at(start + duration, self._after_issue, warp, op)


def _sm_issue_mem(self, warp, op):
    self._outstanding += 1
    accesses = self.coalescer.coalesce(op.addrs)
    remaining = len(accesses)

    def one_done():
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            self._mem_complete(warp)

    for _page, addr in accesses:
        self.gpu.access_memory(self.sm_id, warp.tenant_id, addr,
                               op.is_write, one_done)


def _pws_try_dispatch(self, walker):
    # Pre-fold body: no walk-fold hook — the reference must dispatch
    # every walk through the event path.
    request = self.policy.select(walker.id)
    if request is None:
        return
    if self.dispatch_latency:
        walker.reserved = True
        self.sim.post_after(self.dispatch_latency, self._start_reserved,
                            walker, request)
    else:
        walker.start(request)


def _pws_dispatch_idle_walkers(self):
    # PR-4 body: scan every idle walker, no pending-total early exit.
    for walker in self.walkers:
        if not walker.busy and not walker.reserved:
            self._try_dispatch(walker)


# ----------------------------------------------------------------------
# PR-4 walk-policy hot path, verbatim: the shipping bodies were later
# rewritten (bitmap-decode memo, manual argmax loops) for the always-on
# policy-cost cut; the reference must keep paying the original cost or
# the speedup ratio silently divides it out.
# ----------------------------------------------------------------------
def _twm_owned_walkers(self, tenant_id):
    bitmap = self._bitmap.get(tenant_id, 0)
    return [w for w in range(self.num_walkers) if bitmap & (1 << w)]


def _policy_on_arrival(self, request):
    tenant = request.tenant_id
    owned = self.twm.owned_walkers(tenant)
    if not owned:
        raise ValueError(f"tenant {tenant} owns no walkers; not registered?")
    best = max(owned, key=lambda w: (self.fwa.free_slots(w), -w))
    if self.fwa.free_slots(best) == 0:
        return False
    self._queues[best].append(request)
    self.fwa.consume_slot(best)
    self.twm.inc_pend(tenant)
    self._note_arrival(request)
    return True


def _policy_dequeue_for_tenant(self, tenant_id):
    owned = self.twm.owned_walkers(tenant_id)
    candidates = [w for w in owned if self._queues[w]]
    if not candidates:
        return None
    source = max(candidates, key=lambda w: (len(self._queues[w]), -w))
    return self._pop_queue(source)


def _policy_queued_for(self, tenant_id):
    return sum(len(self._queues[w]) for w in self.twm.owned_walkers(tenant_id))


def _policy_pending_total(self):
    return sum(len(q) for q in self._queues)


# ----------------------------------------------------------------------
# Pre-fold walk-service hot path, verbatim: the shipping bodies were
# rewritten alongside the fold rungs (radix walk-address memo, inlined
# PWC prefix probes, bound-method level continuation, direct counter
# bumps).  All behaviour-identical — but they leak speed into the
# reconstructed engines through unpatched shared code, so the reference
# must keep paying the original cost.
# ----------------------------------------------------------------------
def _walker_start(self, request):
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
    remaining = addrs[skip:]
    if not remaining:  # pragma: no cover - probe() caps below depth
        raise WalkerStateError(
            "PWC cannot skip the leaf level",
            tenant_id=request.tenant_id, walker_id=self.id,
            sim_time=self.sim.now)
    request.memory_accesses = len(remaining)
    self.sim.post_after(self.subsystem.pwc_latency,
                        self._issue_level, request, remaining, 0)


def _walker_issue_level(self, request, addrs, index):
    if request is not self.current:  # pragma: no cover - defensive
        raise WalkerStateError(
            "walker is servicing a different request than it issued "
            "levels for",
            tenant_id=request.tenant_id, walker_id=self.id,
            sim_time=self.sim.now)
    if index >= len(addrs):
        self._finish(request)
        return
    self.subsystem.memory.walker_access(
        addrs[index],
        lambda: self._issue_level(request, addrs, index + 1),
        request.tenant_id,
    )


def _pt_walk_addresses(self, vpn):
    if vpn not in self._translations:
        raise KeyError(f"vpn {vpn:#x} not mapped for tenant {self.tenant_id}")
    addrs = []
    node = self._root
    for level in range(self.layout.depth):
        idx = self.layout.level_index(vpn, level)
        base = self.frames.frame_to_addr(node.frame)
        addrs.append(base + (idx * PTE_BYTES) % self.frames.frame_bytes)
        if level < self.layout.depth - 1:
            node = node.children[idx]
    return addrs


def _pwc_probe(self, tenant_id, vpn):
    for depth in range(self.max_depth, 0, -1):
        key = (tenant_id, depth, self.layout.prefix(vpn, depth))
        if key in self._lru:
            self._lru.move_to_end(key)
            self._hits.inc()
            self._skipped.inc(depth)
            return depth
    self._misses.inc()
    return 0


def _pwc_fill(self, tenant_id, vpn):
    for depth in range(1, self.max_depth + 1):
        self._insert((tenant_id, depth, self.layout.prefix(vpn, depth)))


def _pws_request_walk(self, tenant_id, vpn, on_done):
    key = (tenant_id, vpn)
    inflight = self._inflight.get(key)
    if inflight is not None:
        merged = self._merged_c
        if merged is None:
            merged = self._merged_c = self.sim.stats.counter(
                f"{self.name}.merged"
            )
        merged.inc()
        inflight.callbacks.append(on_done)
        return inflight
    request = WalkRequest(tenant_id, vpn, self.sim.now)
    request.callbacks.append(on_done)
    request._candidate_walkers = tuple(self.policy.candidate_walkers(tenant_id))
    request._other_service_snapshot = self._other_starts_on(
        request._candidate_walkers, tenant_id
    )
    self._inflight[key] = request
    walks = self._walks_c.get(tenant_id)
    if walks is None:
        walks = self._walks_c[tenant_id] = self.sim.stats.counter(
            f"{self.name}.walks.tenant{tenant_id}"
        )
    walks.inc()
    depth = self._queue_depth_h
    if depth is None:
        depth = self._queue_depth_h = self.sim.stats.histogram(
            f"{self.name}.queue_depth", edges=(0, 1, 2, 4, 8, 16, 32, 64, 128)
        )
    depth.add(self.policy.pending_total())
    if self.tracer is not None:
        self.tracer.emit(self.sim.now, "walk.enqueue",
                         walk=request.id, tenant=tenant_id, vpn=vpn)
    if self.policy.on_arrival(request):
        self._dispatch_idle_walkers()
    else:
        overflow = self._overflow_c
        if overflow is None:
            overflow = self._overflow_c = self.sim.stats.counter(
                f"{self.name}.overflow"
            )
        overflow.inc()
        self._overflow.append(request)
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "walk.overflow",
                             walk=request.id, tenant=tenant_id)
    return request


def _tlb_insert(self, tenant_id, vpn, frame):
    key = (tenant_id, vpn)
    tlb_set = self._sets[vpn % self._num_sets]
    if key in tlb_set:
        tlb_set.move_to_end(key)
        tlb_set[key] = frame
        return
    if len(tlb_set) >= self._assoc:
        (victim_tenant, _victim_vpn), _ = tlb_set.popitem(last=False)
        self._evictions.inc()
        self._adjust_residency(victim_tenant, -1)
    tlb_set[key] = frame
    self._adjust_residency(tenant_id, +1)


_PATCHES = [
    (Cache, "access", _cache_access),
    (PageWalkSubsystem, "_try_dispatch", _pws_try_dispatch),
    (PageWalkSubsystem, "_dispatch_idle_walkers", _pws_dispatch_idle_walkers),
    (PageWalkSubsystem, "request_walk", _pws_request_walk),
    (Walker, "start", _walker_start),
    (Walker, "_issue_level", _walker_issue_level),
    (PageTable, "walk_addresses", _pt_walk_addresses),
    (PageWalkCache, "probe", _pwc_probe),
    (PageWalkCache, "fill", _pwc_fill),
    (Tlb, "insert", _tlb_insert),
    (TenantWalkerMap, "owned_walkers", _twm_owned_walkers),
    (PartitionedWalkPolicy, "on_arrival", _policy_on_arrival),
    (PartitionedWalkPolicy, "_dequeue_for_tenant", _policy_dequeue_for_tenant),
    (PartitionedWalkPolicy, "queued_for", _policy_queued_for),
    (PartitionedWalkPolicy, "pending_total", _policy_pending_total),
    (Interconnect, "access", _noc_access),
    (Dram, "access", _dram_access),
    (Tlb, "lookup", _tlb_lookup),
    (Gpu, "access_memory", _gpu_access_memory),
    (Gpu, "_translate", _gpu_translate),
    (Gpu, "_l2_tlb_lookup", _gpu_l2_tlb_lookup),
    (Gpu, "count_instructions", _gpu_count_instructions),
    (Sm, "add_warp", _sm_add_warp),
    (Sm, "_advance_warp", _sm_advance_warp),
    (Sm, "_issue_mem", _sm_issue_mem),
    (manager_module, "Simulator", Pr4Simulator),
]


_ABSENT = object()


@contextmanager
def pr4_engine():
    """Swap the PR-4 implementations in; restore the shipping ones after."""
    saved = [(target, name, target.__dict__.get(name, _ABSENT))
             for target, name, _ in _PATCHES]
    try:
        for target, name, replacement in _PATCHES:
            setattr(target, name, replacement)
        yield
    finally:
        for target, name, original in saved:
            if original is _ABSENT:
                delattr(target, name)
            else:
                setattr(target, name, original)
