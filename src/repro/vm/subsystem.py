"""The page walk subsystem: queues, walkers, PWC and metric hooks.

This is the mechanism half of the paper's design (Figure 1 right-hand
side and Figure 4).  It owns the pool of :class:`~repro.vm.walker.Walker`
objects and the shared :class:`~repro.vm.pwc.PageWalkCache`, merges
duplicate in-flight walks (L2-TLB-MSHR behaviour), applies back-pressure
when the policy's queue space is exhausted, and records every statistic
the evaluation needs:

* per-tenant walk counts, queueing latency and total walk latency,
* the **interleaving** metric of Tables III and V — how many other-tenant
  walks entered service while a request waited,
* per-tenant stolen-walk counts (Table VI),
* time-weighted per-tenant walker occupancy (Figure 9's "PW share").

Which request a free walker services next is entirely the decision of
the plugged-in :class:`~repro.vm.walk.WalkSchedulingPolicy` —
the baseline shared queue, static partitioning, DWS and DWS++ all
implement that protocol in :mod:`repro.core`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.engine.simulator import Simulator, WalkAccountingError
from repro.vm.page_table import PageTable
from repro.vm.pwc import PageWalkCache
from repro.vm.walk import WalkRequest, WalkSchedulingPolicy
from repro.vm.walker import Walker


class PageWalkSubsystem:
    """Shared pool of page table walkers behind a scheduling policy."""

    def __init__(
        self,
        sim: Simulator,
        memory,
        policy: WalkSchedulingPolicy,
        num_walkers: int,
        pwc_entries: int,
        pwc_latency: int,
        dispatch_latency: int,
        layout,
        name: str = "pws",
    ) -> None:
        self.sim = sim
        self.memory = memory
        self.policy = policy
        self.layout = layout
        self.name = name
        self.pwc = PageWalkCache(sim, layout, pwc_entries, name=f"{name}.pwc")
        self.pwc_latency = pwc_latency
        self.dispatch_latency = dispatch_latency
        self.walkers: List[Walker] = [Walker(i, self) for i in range(num_walkers)]
        self.page_tables: Dict[int, PageTable] = {}
        # (tenant, vpn) -> in-flight request, for miss merging
        self._inflight: Dict[tuple, WalkRequest] = {}
        # Requests the policy refused (queue full), replayed on completions.
        self._overflow: Deque[WalkRequest] = deque()
        # Interleaving bookkeeping: per-walker service starts, split into
        # a total and a per-tenant count so "other-tenant starts on a set
        # of walkers" is a cheap difference.
        self._starts_total: List[int] = [0] * num_walkers
        self._starts_by_tenant: List[Dict[int, int]] = [
            {} for _ in range(num_walkers)
        ]
        # Pool-wide running sums of the same counts: when a request's
        # candidate set is the whole pool (shared-queue policies, i.e.
        # the common case), _other_starts_on is one subtraction instead
        # of a per-walker sweep.
        self._starts_sum_total = 0
        self._starts_sum_by_tenant: Dict[int, int] = {}
        self._busy_by_tenant: Dict[int, int] = {}
        self._walker_denom = max(1, num_walkers)
        # Hot-path stat objects, resolved through the registry once and
        # cached; per-call f-string keys plus registry lookups dominate
        # the walk entry/exit paths otherwise.  Lazily filled so stat
        # creation still happens at first use, exactly as before.
        self._merged_c = None
        self._overflow_c = None
        self._queue_depth_h = None
        self._mem_accesses_a = None
        self._walks_c: Dict[int, object] = {}
        self._interleave_a: Dict[int, object] = {}
        self._queue_latency_a: Dict[int, object] = {}
        self._stolen_c: Dict[int, object] = {}
        self._completed_c: Dict[int, object] = {}
        self._walk_latency_a: Dict[int, object] = {}
        self._busy_occ: Dict[int, object] = {}
        #: optional repro.engine.trace.Tracer; emits walk.{enqueue,
        #: overflow,start,steal,complete} records when attached
        self.tracer = None
        #: optional repro.integrity.auditor.Auditor; in ``full`` mode it
        #: re-checks this subsystem's invariants on every walk service
        #: start and completion, not just between events
        self.auditor = None
        policy.attach(self)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_tenant(self, tenant_id: int, page_table: PageTable) -> None:
        self.page_tables[tenant_id] = page_table
        self._busy_by_tenant.setdefault(tenant_id, 0)
        self.policy.on_tenant_set_changed(sorted(self.page_tables))

    def unregister_tenant(self, tenant_id: int) -> None:
        self.page_tables.pop(tenant_id, None)
        self.policy.on_tenant_set_changed(sorted(self.page_tables))

    def walk_addresses(self, request: WalkRequest) -> List[int]:
        return self.page_tables[request.tenant_id].walk_addresses(request.vpn)

    # ------------------------------------------------------------------
    # Request entry point
    # ------------------------------------------------------------------
    def request_walk(
        self,
        tenant_id: int,
        vpn: int,
        on_done: Callable[[WalkRequest], None],
    ) -> WalkRequest:
        """Submit a walk for (tenant, vpn); ``on_done(request)`` fires on
        completion.  Duplicate in-flight walks merge."""
        key = (tenant_id, vpn)
        inflight = self._inflight.get(key)
        if inflight is not None:
            merged = self._merged_c
            if merged is None:
                merged = self._merged_c = self.sim.stats.counter(
                    f"{self.name}.merged"
                )
            merged.value += 1
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
        walks.value += 1
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
            overflow.value += 1
            self._overflow.append(request)
            if self.tracer is not None:
                self.tracer.emit(self.sim.now, "walk.overflow",
                                 walk=request.id, tenant=tenant_id)
        return request

    def _other_starts_on(self, walkers, tenant_id: int) -> int:
        """Service starts by other tenants on the given walkers so far."""
        if len(walkers) == len(self._starts_total):
            # Candidate ids are distinct, so a full-length set is the
            # whole pool and the running sums answer in O(1).
            return self._starts_sum_total - self._starts_sum_by_tenant.get(
                tenant_id, 0
            )
        return sum(
            self._starts_total[w] - self._starts_by_tenant[w].get(tenant_id, 0)
            for w in walkers
        )

    # ------------------------------------------------------------------
    # Walker lifecycle callbacks
    # ------------------------------------------------------------------
    def _dispatch_idle_walkers(self) -> None:
        # With every queue empty, select() is a guaranteed no-op for all
        # policies (steal paths dequeue from the same queues), so the
        # idle-walker scan can stop as soon as nothing is pending —
        # which is the common case right after a completion.
        policy = self.policy
        if not policy.pending_total():
            return
        for walker in self.walkers:
            if not walker.busy and not walker.reserved:
                self._try_dispatch(walker)
                if not policy.pending_total():
                    return

    def _try_dispatch(self, walker: Walker) -> None:
        request = self.policy.select(walker.id)
        if request is None:
            return
        if self.dispatch_latency:
            walker.reserved = True
            self.sim.after(self.dispatch_latency, self._start_reserved, walker, request)
        else:
            walker.start(request)

    def _start_reserved(self, walker: Walker, request: WalkRequest) -> None:
        walker.reserved = False
        walker.start(request)

    def note_service_start(self, walker: Walker, request: WalkRequest) -> None:
        tenant = request.tenant_id
        # Interleaving: other-tenant walks that entered service, on the
        # walkers this request was entitled to, while it waited.
        interleaved = (
            self._other_starts_on(request._candidate_walkers, tenant)
            - request._other_service_snapshot
        )
        acc = self._interleave_a.get(tenant)
        if acc is None:
            acc = self._interleave_a[tenant] = self.sim.stats.accumulator(
                f"{self.name}.interleave.tenant{tenant}"
            )
        acc.add(interleaved)
        self._starts_total[walker.id] += 1
        by_tenant = self._starts_by_tenant[walker.id]
        by_tenant[tenant] = by_tenant.get(tenant, 0) + 1
        self._starts_sum_total += 1
        sums = self._starts_sum_by_tenant
        sums[tenant] = sums.get(tenant, 0) + 1
        if self.tracer is not None:
            kind = "walk.steal" if request.stolen else "walk.start"
            self.tracer.emit(self.sim.now, kind, walk=request.id,
                             tenant=tenant, walker=walker.id,
                             waited=request.queueing_latency,
                             interleaved=interleaved)
        qlat = self._queue_latency_a.get(tenant)
        if qlat is None:
            qlat = self._queue_latency_a[tenant] = self.sim.stats.accumulator(
                f"{self.name}.queue_latency.tenant{tenant}"
            )
        qlat.add(request.queueing_latency)
        if request.stolen:
            stolen = self._stolen_c.get(tenant)
            if stolen is None:
                stolen = self._stolen_c[tenant] = self.sim.stats.counter(
                    f"{self.name}.stolen.tenant{tenant}"
                )
            stolen.value += 1
        self._update_busy(tenant, +1)
        if self.auditor is not None:
            self.auditor.check_component(self)

    def note_completion(self, walker: Walker, request: WalkRequest) -> None:
        tenant = request.tenant_id
        completed = self._completed_c.get(tenant)
        if completed is None:
            completed = self._completed_c[tenant] = self.sim.stats.counter(
                f"{self.name}.completed.tenant{tenant}"
            )
        completed.value += 1
        wlat = self._walk_latency_a.get(tenant)
        if wlat is None:
            wlat = self._walk_latency_a[tenant] = self.sim.stats.accumulator(
                f"{self.name}.walk_latency.tenant{tenant}"
            )
        wlat.add(request.total_latency)
        mem = self._mem_accesses_a
        if mem is None:
            mem = self._mem_accesses_a = self.sim.stats.accumulator(
                f"{self.name}.mem_accesses"
            )
        mem.add(request.memory_accesses)
        self._update_busy(tenant, -1)
        self._inflight.pop((tenant, request.vpn), None)
        if self.tracer is not None:
            self.tracer.emit(self.sim.now, "walk.complete", walk=request.id,
                             tenant=tenant, walker=walker.id,
                             latency=request.total_latency,
                             accesses=request.memory_accesses)
        self.policy.on_complete(walker.id, request)
        # Replay overflow before re-dispatching: completions free queue
        # slots.  The whole buffer is scanned (FIFO order preserved among
        # the remainder) because under partitioned queues one tenant's
        # full queues must not head-of-line block another tenant's walks.
        if self._overflow:
            still_held = deque()
            for pending in self._overflow:
                if not self.policy.on_arrival(pending):
                    still_held.append(pending)
            self._overflow = still_held
        for callback in request.callbacks:
            callback(request)
        self._dispatch_idle_walkers()
        if self.auditor is not None:
            self.auditor.check_component(self)

    def _update_busy(self, tenant_id: int, delta: int) -> None:
        level = self._busy_by_tenant.get(tenant_id, 0) + delta
        if level < 0:
            # A negative count would silently skew mean_walker_share
            # (Figure 9) for the rest of the run; fail loudly instead.
            raise WalkAccountingError(
                f"{self.name}: busy-walker count driven negative "
                f"(delta {delta})",
                tenant_id=tenant_id, sim_time=self.sim.now)
        self._busy_by_tenant[tenant_id] = level
        occ = self._busy_occ.get(tenant_id)
        if occ is None:
            occ = self._busy_occ[tenant_id] = self.sim.stats.occupancy(
                f"{self.name}.busy.tenant{tenant_id}", start_time=0
            )
        occ.update(self.sim.now, level / self._walker_denom)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inflight_walks(self) -> int:
        return len(self._inflight)

    @property
    def overflowed_walks(self) -> int:
        return len(self._overflow)

    def busy_walkers(self) -> int:
        return sum(1 for w in self.walkers if w.busy)

    def inflight_by_tenant(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for (t, _vpn) in self._inflight:
            counts[t] = counts.get(t, 0) + 1
        return counts

    def busy_for(self, tenant_id: int) -> int:
        """Walkers currently servicing this tenant's walks."""
        return self._busy_by_tenant.get(tenant_id, 0)

    def mean_walker_share(self, tenant_id: int) -> float:
        """Time-weighted mean fraction of walkers busy for a tenant."""
        sampler = self.sim.stats.get(f"{self.name}.busy.tenant{tenant_id}")
        if sampler is None:
            return 0.0
        return sampler.mean(self.sim.now)  # type: ignore[union-attr]
