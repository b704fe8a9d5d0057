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

        An L1 TLB hit resolves the frame at once and schedules the
        data-cache probe one hit latency later as a single raw entry;
        a miss continues through the translation MSHRs.
        """
        vpn = vaddr >> self._page_bits
        page_table = self.tenants[tenant_id].page_table
        page_table.ensure_mapped(vpn)
        offset = vaddr & self._page_mask
        if self.l1_tlbs[sm_id].lookup(tenant_id, vpn):
            sim = self.sim
            paddr = page_table.translate(vpn) * self._frame_bytes + offset
            sim.events.push_raw(
                sim.now + self._l1_hit_latency, self._deliver_hit,
                (sm_id, paddr, is_write, on_done, tenant_id),
            )
            return

        def translated(frame: int) -> None:
            paddr = frame * self._frame_bytes + offset
            self.memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

        self._translate_miss(sm_id, tenant_id, vpn, translated)

    def access_burst(self, sm_id: int, tenant_id: int,
                     accesses: Sequence[Tuple[int, int]], is_write: bool,
                     on_done: Callable[[], None]) -> None:
        """Issue a coalesced op's unique-page accesses back to back.

        ``on_done`` is invoked once per access (the SM passes a join
        object).
        """
        access = self.access_memory
        for _page, addr in accesses:
            access(sm_id, tenant_id, addr, is_write, on_done)

    def _deliver_hit(self, sm_id: int, paddr: int, is_write: bool,
                     on_done: Callable[[], None], tenant_id: int) -> None:
        """The L1-TLB-hit continuation: probe the data cache."""
        self.memory.data_access(sm_id, paddr, is_write, on_done, tenant_id)

    def _translate(self, sm_id: int, tenant_id: int, vpn: int,
                   on_translated: Callable[[int], None]) -> None:
        l1 = self.l1_tlbs[sm_id]
        if l1.lookup(tenant_id, vpn):
            frame = self.tenants[tenant_id].page_table.translate(vpn)
            self.sim.after(self._l1_hit_latency, on_translated, frame)
            return
        self._translate_miss(sm_id, tenant_id, vpn, on_translated)

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
        sim.events.push_raw(sim.now + self._l1_miss_step,
                            self._l2_tlb_lookup, (sm_id, tenant_id, vpn))

    def _l2_tlb_lookup(self, sm_id: int, tenant_id: int, vpn: int) -> None:
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

    def fastpath_stats(self) -> Dict[str, float]:
        """Empty: the engine has a single event path and no fold tallies.

        Kept only because ``perfbench/layers.py`` still reads it.
        """
        return {}

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
