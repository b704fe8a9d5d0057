"""Top-level GPU assembly: SM partitions, TLB hierarchy, walkers, memory.

The :class:`Gpu` ties every substrate together and implements the
translation datapath of Figure 1:

    SM memory op -> coalescer -> L1 TLB (private, MSHR-merged)
        -> shared L2 TLB (+interconnect)
        -> page walk subsystem (policy-scheduled walkers, PWC)
        -> 4-level page table in simulated physical memory
    ... translation done -> L1/L2 data caches -> DRAM

Multi-tenancy is spatial (MPS-style): SMs are partitioned among tenants,
while the L2 TLB, walkers, L2 cache and DRAM are shared.  The idealized
configurations of Section IV (S-TLB and S-(TLB+PTW)) replicate the L2
TLB and/or walker pool per tenant when the config's
``separate_l2_tlb`` / ``separate_walkers`` flags are set.

When the policy spec includes MASK, a :class:`~repro.core.mask
.MaskController` gates L2 TLB fills (token scheme) and routes PTE reads
of cache-unfriendly tenants straight to DRAM (PTE bypass).
"""

from __future__ import annotations

import os
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.factory import build_mask_controller, build_policy
from repro.engine.config import GpuConfig, PolicySpec
from repro.engine.simulator import Simulator
from repro.gpu.coalescer import Coalescer
from repro.gpu.sm import Sm
from repro.gpu.warp import Warp
from repro.mem.hierarchy import MemoryHierarchy
from repro.vm.address import AddressLayout
from repro.vm.page_table import PageTable
from repro.vm.subsystem import PageWalkSubsystem
from repro.vm.tlb import Tlb
from repro.vm.walk import WalkRequest

#: Kill switch for the latency-folding fast path (DESIGN.md §12); "0"
#: disables every fold rung and restores the canonical event stream.
FASTPATH_ENV = "REPRO_FASTPATH"
#: Sub-switch for the walk-path rungs only (DESIGN.md §14); "0" keeps
#: the hit fold while the L2-TLB/DRAM-batch rungs fall back to the
#: event path.
FASTPATH_WALK_ENV = "REPRO_FASTPATH_WALK"


class TenantContext:
    """Everything the GPU tracks per co-running tenant."""

    def __init__(self, tenant_id: int, page_table: PageTable,
                 sm_ids: List[int]) -> None:
        self.tenant_id = tenant_id
        self.page_table = page_table
        self.sm_ids = sm_ids
        self.instructions = 0
        self.active_warps = 0
        self.on_complete: Optional[Callable[[], None]] = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Tenant {self.tenant_id}: SMs {self.sm_ids}>"


class _WalkDone:
    """Completion callback for one L2-TLB-missed translation's walk.

    A slotted callable instead of two nested per-walk lambdas: the
    request-walk hop and its completion continuation used to allocate a
    closure plus cell each, on every walk.
    """

    __slots__ = ("gpu", "sm_id", "tenant_id", "vpn")

    def __init__(self, gpu: "Gpu", sm_id: int, tenant_id: int, vpn: int) -> None:
        self.gpu = gpu
        self.sm_id = sm_id
        self.tenant_id = tenant_id
        self.vpn = vpn

    def __call__(self, request: WalkRequest) -> None:
        self.gpu._walk_done(self.sm_id, self.tenant_id, self.vpn, request)


class _WalkerMemoryAdapter:
    """Walker-side memory port implementing MASK's PTE bypass."""

    def __init__(self, gpu: "Gpu") -> None:
        self.gpu = gpu

    def walker_access(self, paddr: int, on_done: Callable[[], None],
                      tenant_id: int = 0) -> None:
        gpu = self.gpu
        mask = gpu.mask
        if mask is not None:
            mask.note_walker_cache_access(tenant_id, gpu.memory.l2.contains(paddr))
            if mask.pte_bypass(tenant_id):
                gpu.memory.dram.access(paddr, False, on_done, tenant_id)
                return
        gpu.memory.walker_access(paddr, on_done, tenant_id)


class Gpu:
    """A spatially multi-tenant GPU instance."""

    def __init__(self, sim: Simulator, config: GpuConfig,
                 tenant_ids: List[int]) -> None:
        if not tenant_ids:
            raise ValueError("need at least one tenant")
        self.sim = sim
        self.config = config
        self.layout = AddressLayout(page_size_bits=config.page_size_bits)
        self.memory = MemoryHierarchy(sim, config)
        self.tenants: Dict[int, TenantContext] = {}
        self._tenant_ids = sorted(tenant_ids)
        self.mask = build_mask_controller(config.policy, self._tenant_ids)

        coalescer = Coalescer(self.layout, config.sm.l1_cache.line_bytes)
        self.sms: List[Sm] = [
            Sm(sim, i, config.sm, self, coalescer)
            for i in range(config.sm.num_sms)
        ]
        self.l1_tlbs: List[Tlb] = [
            Tlb(sim, config.sm.l1_tlb, name=f"l1tlb.sm{i}")
            for i in range(config.sm.num_sms)
        ]
        # Per-SM translation MSHRs: (tenant, vpn) -> waiting callbacks.
        self._xlat_mshrs: List[Dict[Tuple[int, int], List[Callable]]] = [
            {} for _ in range(config.sm.num_sms)
        ]
        self._xlat_overflow: List[Deque] = [deque() for _ in range(config.sm.num_sms)]

        self._build_l2_tlbs()
        self._build_walk_subsystems()
        self._partition_sms()

        # Hot-path scalars and stat caches.  Every memory op goes through
        # access_memory/_translate, so attribute chains into the config
        # dataclasses and per-call f-string registry lookups are lifted
        # out.  Stat objects are cached lazily to keep creation at first
        # use — except the L1 TLB MSHR-stall counters, which are created
        # here for every SM so the counter exists (at zero) in every
        # snapshot: a stalling and a non-stalling run of the same config
        # must not differ in snapshot *keys*.
        self._page_bits = self.layout.page_size_bits
        self._page_mask = (1 << self._page_bits) - 1
        self._frame_bytes = self.memory.frames.frame_bytes
        self._l1_hit_latency = config.sm.l1_tlb.hit_latency
        self._l1_miss_step = (
            config.sm.l1_tlb.hit_latency + config.interconnect_latency
        )
        self._mshr_entries = config.sm.l1_tlb.mshr_entries
        self._l2_hit_latency = config.l2_tlb.hit_latency
        self._l2_miss_c: Dict[int, Any] = {}
        self._instr_c: Dict[int, Any] = {}
        self._mshr_stall_c: Dict[int, Any] = {
            i: sim.stats.counter(f"l1tlb.sm{i}.mshr_stalls")
            for i in range(config.sm.num_sms)
        }

        # Latency-folding fast path (DESIGN.md §12).  ``fold_enabled``
        # is the kill switch (REPRO_FASTPATH=0 disables; tests and the
        # benchmark toggle the attribute directly); folding additionally
        # auto-disables whenever an audit hook is installed, so every
        # audit level observes the canonical per-stage event stream.
        # ``_pending_hits[sm]`` counts scheduled-but-undelivered
        # unfolded L1-TLB-hit continuations: while one is in flight its
        # deferred data-cache probe has not happened yet, so folding a
        # later access would reorder the bank arithmetic.  The fold
        # tallies are deliberately plain ints, not registry counters — a
        # counter would appear in snapshots and break the folded ==
        # unfolded byte-identity it exists to preserve.
        self.fold_enabled = os.environ.get(FASTPATH_ENV, "1") != "0"
        self._pending_hits: List[int] = [0] * config.sm.num_sms
        self._folded_accesses = 0
        self._unfolded_accesses = 0

        # Walk-path folding (DESIGN.md §14): the same fold discipline
        # one level down the translation path.  ``fold_walk_enabled`` is
        # the sub-switch — REPRO_FASTPATH_WALK=0 disables just the walk
        # rungs while the hit fold stays on — and every walk-rung gate
        # also re-checks ``fold_enabled`` so killing the parent switch
        # (env or attribute) restores the full event path.
        self.fold_walk_enabled = os.environ.get(
            FASTPATH_WALK_ENV, "1") != "0"
        # Evented L2-TLB lookups in flight: while one is pending its
        # deferred probe has not refreshed the LRU yet, so an eager fold
        # probe issued behind it would reorder the recency updates.
        self._l2_lookups_inflight = 0
        self._pws_unique = self.walk_subsystems()
        self._folded_l2_hits = 0
        # Rung denominator for the L2 fold fraction reported by
        # fastpath_stats(): evented L2 lookups.
        self._unfolded_l2_lookups = 0
        self.memory.l2.batch_gate = self
        self.memory.dram.batch_gate = self

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_l2_tlbs(self) -> None:
        cfg = self.config
        if cfg.separate_l2_tlb:
            # S-TLB: an exclusive, full-size L2 TLB per tenant.
            self._l2_tlbs = {
                t: Tlb(self.sim, cfg.l2_tlb, name=f"l2tlb.t{t}")
                for t in self._tenant_ids
            }
        else:
            shared = Tlb(self.sim, cfg.l2_tlb, name="l2tlb")
            self._l2_tlbs = {t: shared for t in self._tenant_ids}

    def _build_walk_subsystems(self) -> None:
        cfg = self.config
        walker_mem = _WalkerMemoryAdapter(self)
        if cfg.separate_walkers:
            # S-(TLB+PTW): exclusive full-size walker pool per tenant;
            # with no cross-tenant contention the policy is irrelevant,
            # so each private pool runs the plain shared FIFO.
            self._pws = {}
            for t in self._tenant_ids:
                policy = build_policy(
                    PolicySpec(name="baseline"),
                    cfg.walkers.num_walkers, cfg.walkers.queue_entries, [t],
                    cfg.max_tenants,
                )
                self._pws[t] = PageWalkSubsystem(
                    self.sim, walker_mem, policy,
                    num_walkers=cfg.walkers.num_walkers,
                    pwc_entries=cfg.walkers.pwc_entries,
                    pwc_latency=cfg.walkers.pwc_latency,
                    dispatch_latency=cfg.walkers.dispatch_latency,
                    layout=self.layout, name=f"pws.t{t}",
                )
        else:
            policy = build_policy(
                cfg.policy, cfg.walkers.num_walkers,
                cfg.walkers.queue_entries, self._tenant_ids, cfg.max_tenants,
            )
            shared = PageWalkSubsystem(
                self.sim, walker_mem, policy,
                num_walkers=cfg.walkers.num_walkers,
                pwc_entries=cfg.walkers.pwc_entries,
                pwc_latency=cfg.walkers.pwc_latency,
                dispatch_latency=cfg.walkers.dispatch_latency,
                layout=self.layout, name="pws",
            )
            self._pws = {t: shared for t in self._tenant_ids}

    def _partition_sms(self) -> None:
        """Assign SMs to tenants in equal contiguous blocks (MPS-style)."""
        num = self.config.sm.num_sms
        n = len(self._tenant_ids)
        base, extra = divmod(num, n)
        self._sm_assignment: Dict[int, List[int]] = {}
        cursor = 0
        for i, tenant in enumerate(self._tenant_ids):
            count = base + (1 if i < extra else 0)
            self._sm_assignment[tenant] = list(range(cursor, cursor + count))
            cursor += count

    # ------------------------------------------------------------------
    # Tenant management
    # ------------------------------------------------------------------
    def add_tenant(self, tenant_id: int) -> TenantContext:
        if tenant_id not in self._tenant_ids:
            raise ValueError(
                f"tenant {tenant_id} was not declared at construction"
            )
        page_table = PageTable(tenant_id, self.layout, self.memory.frames,
                               node_frame_bytes=self.config.page_size)
        context = TenantContext(tenant_id, page_table,
                                self._sm_assignment[tenant_id])
        self.tenants[tenant_id] = context
        self._pws[tenant_id].register_tenant(tenant_id, page_table)
        return context

    def l2_tlb_for(self, tenant_id: int) -> Tlb:
        return self._l2_tlbs[tenant_id]

    def walk_subsystem_for(self, tenant_id: int) -> PageWalkSubsystem:
        return self._pws[tenant_id]

    def walk_subsystems(self) -> List[PageWalkSubsystem]:
        """Unique subsystems: one shared, or one per tenant (S-(TLB+PTW))."""
        seen, unique = set(), []
        for tenant_id in self._tenant_ids:
            pws = self._pws[tenant_id]
            if id(pws) not in seen:
                seen.add(id(pws))
                unique.append(pws)
        return unique

    def l2_tlbs(self) -> List[Tlb]:
        """Unique L2 TLBs: one shared, or one per tenant (S-TLB)."""
        seen, unique = set(), []
        for tenant_id in self._tenant_ids:
            tlb = self._l2_tlbs[tenant_id]
            if id(tlb) not in seen:
                seen.add(id(tlb))
                unique.append(tlb)
        return unique

    def launch_warps(self, tenant_id: int, streams) -> None:
        """Distribute warp streams over the tenant's SM partition."""
        context = self.tenants[tenant_id]
        sm_ids = context.sm_ids
        if not sm_ids:
            raise ValueError(f"tenant {tenant_id} has no SMs")
        for i, stream in enumerate(streams):
            warp = Warp(i, tenant_id, stream)
            context.active_warps += 1
            self.sms[sm_ids[i % len(sm_ids)]].add_warp(warp)

    # ------------------------------------------------------------------
    # Datapath: called by SMs
    # ------------------------------------------------------------------
    def access_memory(self, sm_id: int, tenant_id: int, vaddr: int,
                      is_write: bool, on_done: Callable[[], None]) -> None:
        """Translate then access memory; ``on_done`` at data return.

        When the whole access is combinational — L1 TLB hit plus an L1
        data-cache hit on a quiescent path — its completion cycle is
        computed arithmetically and ``on_done`` joins the per-timestamp
        completion batch: zero per-stage events.  The first miss, MSHR
        activity, back-pressure, pending unfolded probe, or installed
        audit hook falls back to the per-stage event path, whose
        behaviour is byte-identical to the pre-fold engine.
        """
        vpn = vaddr >> self._page_bits
        page_table = self.tenants[tenant_id].page_table
        page_table.ensure_mapped(vpn)
        offset = vaddr & self._page_mask
        tlat = self.l1_tlbs[sm_id].probe_fast(tenant_id, vpn)
        if tlat >= 0:
            # L1 TLB hit: the translation itself is pure arithmetic.
            sim = self.sim
            paddr = page_table.translate(vpn) * self._frame_bytes + offset
            if (self.fold_enabled
                    and sim.audit_hook is None
                    and not self._pending_hits[sm_id]
                    and not self._xlat_mshrs[sm_id]
                    and not self.sms[sm_id]._mem_wait
                    and self.memory.data_ready_fast(sm_id)):
                completion = self.memory.data_probe_fast(
                    sm_id, paddr, is_write, sim.now + tlat
                )
                if completion >= 0:
                    self._folded_accesses += 1
                    sim.events.schedule_batch(completion, on_done)
                    return
            self._unfolded_accesses += 1
            self._pending_hits[sm_id] += 1
            sim.events.push_raw(
                sim.now + tlat, self._deliver_hit,
                (sm_id, paddr, is_write, on_done, tenant_id),
            )
            return
        self._unfolded_accesses += 1

        def translated(frame: int) -> None:
            paddr = frame * self._frame_bytes + offset
            self.memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

        self._translate_miss(sm_id, tenant_id, vpn, translated)

    def access_burst(self, sm_id: int, tenant_id: int,
                     accesses: Sequence[Tuple[int, int]], is_write: bool,
                     on_done: Callable[[], None]) -> None:
        """Issue a coalesced op's unique-page accesses back to back.

        ``on_done`` is invoked once per access (the SM passes a join
        object).  Accesses that fold to the same completion cycle land
        in the same batch, so a fully hit op costs one heap entry for
        its entire hit subset.
        """
        access = self.access_memory
        for _page, addr in accesses:
            access(sm_id, tenant_id, addr, is_write, on_done)

    def _deliver_hit(self, sm_id: int, paddr: int, is_write: bool,
                     on_done: Callable[[], None], tenant_id: int) -> None:
        """The unfolded L1-TLB-hit continuation: probe the data cache."""
        self._pending_hits[sm_id] -= 1
        self.memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

    def _translate(self, sm_id: int, tenant_id: int, vpn: int,
                   on_translated: Callable[[int], None]) -> None:
        l1 = self.l1_tlbs[sm_id]
        if l1.lookup(tenant_id, vpn):
            frame = self.tenants[tenant_id].page_table.translate(vpn)
            self._pending_hits[sm_id] += 1
            self.sim.post_after(self._l1_hit_latency, self._fire_pending_hit,
                                sm_id, on_translated, frame)
            return
        self._translate_miss(sm_id, tenant_id, vpn, on_translated)

    def _fire_pending_hit(self, sm_id: int,
                          on_translated: Callable[[int], None],
                          frame: int) -> None:
        self._pending_hits[sm_id] -= 1
        on_translated(frame)

    def _translate_miss(self, sm_id: int, tenant_id: int, vpn: int,
                        on_translated: Callable[[int], None]) -> None:
        # L1 miss: merge into the SM's translation MSHRs.
        mshrs = self._xlat_mshrs[sm_id]
        key = (tenant_id, vpn)
        if key in mshrs:
            mshrs[key].append(on_translated)
            return
        if len(mshrs) >= self._mshr_entries:
            self._xlat_overflow[sm_id].append((tenant_id, vpn, on_translated))
            self._mshr_stall_c[sm_id].value += 1
            return
        mshrs[key] = [on_translated]
        sim = self.sim
        # Walk-fold rung (a): the L2-TLB lookup runs a fixed number of
        # cycles after issue, so while no walk can complete (no insert
        # can land) and no evented lookup is pending (no LRU refresh can
        # interleave), its outcome is already determined here.  A hit
        # folds to an eager probe plus a deferred counter tick at the
        # lookup's canonical slot; a miss — or any open gate — falls
        # through to the unchanged event path.
        if (self.fold_walk_enabled and self.fold_enabled
                and self.mask is None
                and sim.audit_hook is None
                and self._l2_lookups_inflight == 0
                and self._walks_quiet()):
            frame = self._l2_tlbs[tenant_id].fold_probe(tenant_id, vpn)
            if frame is not None:
                self._folded_l2_hits += 1
                sim.events.push_raw(sim.now + self._l1_miss_step,
                                    self._fold_l2_tick,
                                    (sm_id, tenant_id, vpn, frame))
                return
        self._l2_lookups_inflight += 1
        self._unfolded_l2_lookups += 1
        sim.events.push_raw(sim.now + self._l1_miss_step,
                            self._l2_tlb_lookup, (sm_id, tenant_id, vpn))

    def _walks_quiet(self) -> bool:
        """No walk in flight anywhere: nothing can insert into an L2 TLB
        before a lookup issued this cycle would have probed it."""
        for pws in self._pws_unique:
            if pws._inflight:
                return False
        return True

    def _fold_l2_tick(self, sm_id: int, tenant_id: int, vpn: int,
                      frame: int) -> None:
        """Deferred slot of a folded L2-TLB hit: the lookup counters tick
        at the cycle the evented lookup ran, and the finish hop rides the
        identical slot its ``post_after`` would have occupied."""
        self._l2_tlbs[tenant_id].fold_count_hit()
        sim = self.sim
        sim.events.push_raw(sim.now + self._l2_hit_latency,
                            self._finish_translation,
                            (sm_id, tenant_id, vpn, frame, False))

    def _l2_tlb_lookup(self, sm_id: int, tenant_id: int, vpn: int) -> None:
        self._l2_lookups_inflight -= 1
        l2 = self._l2_tlbs[tenant_id]
        hit = l2.lookup(tenant_id, vpn)
        if self.mask is not None:
            self.mask.note_l2_tlb_lookup(tenant_id, hit)
        if hit:
            frame = self.tenants[tenant_id].page_table.translate(vpn)
            self.sim.post_after(self._l2_hit_latency, self._finish_translation,
                                sm_id, tenant_id, vpn, frame, False)
            return
        miss = self._l2_miss_c.get(tenant_id)
        if miss is None:
            miss = self._l2_miss_c[tenant_id] = self.sim.stats.counter(
                f"gpu.l2tlb_misses.tenant{tenant_id}"
            )
        miss.value += 1
        sim = self.sim
        sim.events.push_raw(sim.now + self._l2_hit_latency,
                            self._enqueue_walk, (sm_id, tenant_id, vpn))

    def _enqueue_walk(self, sm_id: int, tenant_id: int, vpn: int) -> None:
        """The L2-TLB-miss hop: hand the translation to the walkers."""
        self._pws[tenant_id].request_walk(
            tenant_id, vpn, _WalkDone(self, sm_id, tenant_id, vpn))

    def _walk_done(self, sm_id: int, tenant_id: int, vpn: int,
                   request: WalkRequest) -> None:
        frame = self.tenants[tenant_id].page_table.translate(vpn)
        self._finish_translation(sm_id, tenant_id, vpn, frame, True)

    def _finish_translation(self, sm_id: int, tenant_id: int, vpn: int,
                            frame: int, from_walk: bool) -> None:
        if from_walk:
            l2 = self._l2_tlbs[tenant_id]
            if self.mask is None or self.mask.allow_l2_fill(tenant_id):
                l2.insert(tenant_id, vpn, frame)
        self.l1_tlbs[sm_id].insert(tenant_id, vpn, frame)
        mshrs = self._xlat_mshrs[sm_id]
        waiters = mshrs.pop((tenant_id, vpn), [])
        for waiter in waiters:
            waiter(frame)
        self._drain_xlat_overflow(sm_id)

    def _drain_xlat_overflow(self, sm_id: int) -> None:
        overflow = self._xlat_overflow[sm_id]
        mshrs = self._xlat_mshrs[sm_id]
        while overflow and len(mshrs) < self.config.sm.l1_tlb.mshr_entries:
            tenant_id, vpn, on_translated = overflow.popleft()
            self._translate(sm_id, tenant_id, vpn, on_translated)
            # _translate may hit (no MSHR used) or allocate one; loop
            # re-checks capacity either way.

    # ------------------------------------------------------------------
    # Fast-path introspection (benchmark / tests; not simulated state)
    # ------------------------------------------------------------------
    def fastpath_stats(self) -> Dict[str, float]:
        """Fold tallies for the throughput benchmark's hit-path-fraction
        report.  Execution metadata like ``events_fired`` — never part
        of a snapshot, so folded and unfolded runs stay byte-identical.
        """
        total = self._folded_accesses + self._unfolded_accesses
        l2_total = self._folded_l2_hits + self._unfolded_l2_lookups
        batched_fetches = self.memory.l2._batched_fetches
        fetch_total = self.memory.l2._misses.value
        return {
            "folded_accesses": self._folded_accesses,
            "unfolded_accesses": self._unfolded_accesses,
            "hit_path_fraction": self._folded_accesses / total if total else 0.0,
            "folded_l2_tlb_hits": self._folded_l2_hits,
            "batched_dram_fetches": batched_fetches,
            "batched_dram_returns": self.memory.dram._batched_returns,
            # Per-rung fold fractions (DESIGN.md §14): how much of each
            # stage's traffic the rung absorbed.  Denominators are the
            # stage's own totals — L2 TLB lookups for rung (a), L2-miss
            # fetches for rung (c) — so the fractions say which regime
            # each pair exercises.
            "l2_fold_fraction":
                self._folded_l2_hits / l2_total if l2_total else 0.0,
            "dram_batch_fraction":
                batched_fetches / fetch_total if fetch_total else 0.0,
        }

    # ------------------------------------------------------------------
    # Accounting: called by SMs
    # ------------------------------------------------------------------
    def count_instructions(self, tenant_id: int, count: int) -> None:
        context = self.tenants[tenant_id]
        context.instructions += count
        counter = self._instr_c.get(tenant_id)
        if counter is None:
            counter = self._instr_c[tenant_id] = self.sim.stats.counter(
                f"gpu.instructions.tenant{tenant_id}"
            )
        counter.value += count

    def note_warp_done(self, sm_id: int, warp: Warp) -> None:
        context = self.tenants[warp.tenant_id]
        context.active_warps -= 1
        if context.active_warps == 0 and context.on_complete is not None:
            callback, context.on_complete = context.on_complete, None
            callback()
