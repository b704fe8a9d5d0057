"""Integration tests for the assembled GPU."""

import dataclasses

import pytest

from repro.engine.config import GpuConfig
from repro.engine.simulator import Simulator
from repro.gpu.gpu import Gpu
from repro.gpu.warp import WarpOp
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.base import Workload
from repro.workloads.suite import BENCHMARKS

#: HS shrunk to a 4 KiB footprint: after its first walk every
#: translation hits the L1 TLB, so no SM ever fills its MSHRs.
L1_RESIDENT_SPEC = dataclasses.replace(BENCHMARKS["HS"], name="HS4K",
                                       footprint_bytes=4096)


def small_config(**kw):
    cfg = GpuConfig.baseline(num_sms=4)
    for name, value in kw.items():
        cfg = getattr(cfg, name)(value) if callable(getattr(cfg, name, None)) else cfg
    return cfg


def make_gpu(config=None, tenants=(0, 1)):
    sim = Simulator()
    cfg = config or GpuConfig.baseline(num_sms=4)
    gpu = Gpu(sim, cfg, list(tenants))
    for t in tenants:
        gpu.add_tenant(t)
    return sim, gpu


def stream(ops):
    return iter(ops)


class TestAssembly:
    def test_sm_partitioning_two_tenants(self):
        sim, gpu = make_gpu()
        assert gpu.tenants[0].sm_ids == [0, 1]
        assert gpu.tenants[1].sm_ids == [2, 3]

    def test_sm_partitioning_three_tenants_uneven(self):
        sim, gpu = make_gpu(tenants=(0, 1, 2))
        sizes = [len(gpu.tenants[t].sm_ids) for t in (0, 1, 2)]
        assert sorted(sizes) == [1, 1, 2]
        covered = sorted(sm for t in (0, 1, 2) for sm in gpu.tenants[t].sm_ids)
        assert covered == [0, 1, 2, 3]

    def test_shared_l2_tlb_by_default(self):
        sim, gpu = make_gpu()
        assert gpu.l2_tlb_for(0) is gpu.l2_tlb_for(1)
        assert gpu.walk_subsystem_for(0) is gpu.walk_subsystem_for(1)

    def test_s_tlb_separates_tlbs_only(self):
        sim, gpu = make_gpu(GpuConfig.baseline(num_sms=4).with_separate_tlb())
        assert gpu.l2_tlb_for(0) is not gpu.l2_tlb_for(1)
        assert gpu.walk_subsystem_for(0) is gpu.walk_subsystem_for(1)

    def test_s_tlb_ptw_separates_both(self):
        cfg = GpuConfig.baseline(num_sms=4).with_separate_tlb_and_walkers()
        sim, gpu = make_gpu(cfg)
        assert gpu.l2_tlb_for(0) is not gpu.l2_tlb_for(1)
        assert gpu.walk_subsystem_for(0) is not gpu.walk_subsystem_for(1)

    def test_undeclared_tenant_rejected(self):
        sim = Simulator()
        gpu = Gpu(sim, GpuConfig.baseline(num_sms=4), [0])
        with pytest.raises(ValueError):
            gpu.add_tenant(3)


class TestDatapath:
    def test_warp_completes_and_counts_instructions(self):
        sim, gpu = make_gpu()
        done = []
        gpu.tenants[0].on_complete = lambda: done.append(sim.now)
        gpu.launch_warps(0, [stream([WarpOp(3, [0x1000]), WarpOp(2, [0x2000])])])
        sim.drain()
        assert done
        assert gpu.tenants[0].instructions == 4 + 3

    def test_first_access_walks_then_l1_tlb_hits(self):
        sim, gpu = make_gpu()
        gpu.launch_warps(0, [stream([WarpOp(0, [0x1000]), WarpOp(0, [0x1008])])])
        sim.drain()
        assert sim.stats.counter("gpu.l2tlb_misses.tenant0").value == 1
        assert sim.stats.counter("pws.completed.tenant0").value == 1
        # the second access hit in the L1 TLB
        assert sim.stats.counter("l1tlb.sm0.hits").value == 1

    def test_l2_tlb_shared_across_sms_of_same_tenant(self):
        sim, gpu = make_gpu()
        # two warps on different SMs touch the same page sequentially
        gpu.launch_warps(0, [stream([WarpOp(0, [0x1000])])])
        sim.drain()
        walks_before = sim.stats.counter("pws.completed.tenant0").value
        gpu.launch_warps(0, [stream([WarpOp(0, [0x1000])]),
                             stream([WarpOp(0, [0x1000])])])
        sim.drain()
        # no further walks: SM1's L1 miss was satisfied by the shared L2 TLB
        assert sim.stats.counter("pws.completed.tenant0").value == walks_before

    def test_tenants_use_disjoint_page_tables(self):
        sim, gpu = make_gpu()
        gpu.launch_warps(0, [stream([WarpOp(0, [0x1000])])])
        gpu.launch_warps(1, [stream([WarpOp(0, [0x1000])])])
        sim.drain()
        # same virtual page, but each tenant had to walk its own table
        assert sim.stats.counter("pws.completed.tenant0").value == 1
        assert sim.stats.counter("pws.completed.tenant1").value == 1

    def test_duplicate_inflight_translations_merge(self):
        sim, gpu = make_gpu()
        # two warps on the same SM touch the same cold page concurrently
        gpu.launch_warps(0, [stream([WarpOp(0, [0x7000])]),
                             stream([WarpOp(0, [0x7000])])])
        sim.drain()
        assert sim.stats.counter("pws.completed.tenant0").value == 1

    def test_instructions_attributed_to_right_tenant(self):
        sim, gpu = make_gpu()
        gpu.launch_warps(0, [stream([WarpOp(10, [0x1000])])])
        gpu.launch_warps(1, [stream([WarpOp(20, [0x1000])])])
        sim.drain()
        assert gpu.tenants[0].instructions == 11
        assert gpu.tenants[1].instructions == 21


class TestPolicyIntegration:
    def run_burst(self, policy_name):
        cfg = GpuConfig.baseline(num_sms=4).with_policy(policy_name)
        sim, gpu = make_gpu(cfg)
        # tenant 0: many warps, each divergent across distant pages, so
        # walks queue up well beyond tenant 0's walker share
        streams = []
        for w in range(12):
            ops = [
                WarpOp(0, [(1 + w * 97 + i * 13 + k * 7919) << 12
                           for k in range(4)])
                for i in range(8)
            ]
            streams.append(stream(ops))
        gpu.launch_warps(0, streams)
        gpu.launch_warps(1, [stream([WarpOp(0, [p << 12]) for p in range(1, 6)])])
        sim.drain()
        return sim, gpu

    @pytest.mark.parametrize("policy", ["baseline", "static", "dws", "dwspp",
                                        "mask", "mask+dws"])
    def test_all_policies_run_to_completion(self, policy):
        sim, gpu = self.run_burst(policy)
        t0 = sim.stats.counter("pws.completed.tenant0").value
        t1 = sim.stats.counter("pws.completed.tenant1").value
        assert t0 > 0 and t1 > 0

    def test_dws_records_steals(self):
        sim, gpu = self.run_burst("dws")
        stolen = sim.stats.get("pws.stolen.tenant0")
        # tenant 0 overflows its own walkers; tenant 1's walkers steal
        assert stolen is not None and stolen.value > 0


class TestMaskIntegration:
    def test_mask_controller_present_only_for_mask(self):
        sim, gpu = make_gpu(GpuConfig.baseline(num_sms=4).with_policy("mask"))
        assert gpu.mask is not None
        sim2, gpu2 = make_gpu(GpuConfig.baseline(num_sms=4))
        assert gpu2.mask is None

    def test_mask_observes_l2_lookups(self):
        sim, gpu = make_gpu(GpuConfig.baseline(num_sms=4).with_policy("mask"))
        gpu.launch_warps(0, [stream([WarpOp(0, [0x1000])])])
        sim.drain()
        assert gpu.mask._lookups_this_epoch > 0


def test_mshr_stall_counters_present_at_zero():
    """The per-SM mshr_stalls counters appear in every snapshot, zero
    when no stall occurred, so stalling and non-stalling runs of one
    config share snapshot keys."""
    config = GpuConfig.baseline(num_sms=4)
    manager = MultiTenantManager(
        config, [Tenant(0, Workload(L1_RESIDENT_SPEC, 0.5))],
        warps_per_sm=1, seed=3)
    result = manager.run()
    keys = [k for k in result.stats
            if k.startswith("l1tlb.") and k.endswith(".mshr_stalls")]
    assert len(keys) == config.sm.num_sms
    assert all(result.stats[k] == 0 for k in keys)
