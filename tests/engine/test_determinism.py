"""End-to-end determinism of the fast-path kernel.

The calendar queue and the tight run loop are only admissible if they
are *invisible*: repeated runs must agree bit for bit, and a full
multi-tenant simulation must produce identical results under the
calendar kernel and the seed heap kernel.
"""

import pytest

import repro.engine.simulator as simulator_module
from repro.engine.config import GpuConfig
from repro.engine.event import HeapEventQueue
from repro.engine.simulator import Simulator
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.pairs import REPRESENTATIVE_PAIRS
from repro.workloads.suite import benchmark

SCALE = 0.05


def run_pair(pair="HS.MM", policy="dws", kernel=None):
    previous = simulator_module.EventQueue
    if kernel is not None:
        simulator_module.EventQueue = kernel
    try:
        config = GpuConfig.baseline(num_sms=2).with_policy(policy)
        tenants = [Tenant(i, benchmark(name, scale=SCALE))
                   for i, name in enumerate(pair.split("."))]
        manager = MultiTenantManager(config, tenants, warps_per_sm=2, seed=0)
        return manager.run()
    finally:
        simulator_module.EventQueue = previous


def fingerprint(result):
    return (
        result.total_cycles,
        result.events_fired,
        {t: (s.instructions, s.completed_executions, s.ipc)
         for t, s in result.tenants.items()},
        sorted(result.stats.items()),
    )


class TestSameCycleOrdering:
    def test_zero_delay_chains_run_fifo(self):
        # Callbacks scheduled with after(0, ...) at the same cycle must
        # fire in schedule order — the simulator's components lean on
        # this for e.g. MSHR fill-then-drain sequencing.
        sim = Simulator()
        order = []

        def chain(tag, depth):
            order.append((tag, depth))
            if depth:
                sim.after(0, chain, tag, depth - 1)

        sim.at(5, chain, "a", 2)
        sim.at(5, chain, "b", 2)
        sim.run()
        assert order == [("a", 2), ("b", 2), ("a", 1), ("b", 1),
                         ("a", 0), ("b", 0)]

    def test_mixed_at_and_after_share_one_fifo(self):
        sim = Simulator()
        order = []
        sim.at(3, order.append, "at-first")
        sim.after(3, order.append, "after-second")
        sim.at(3, order.append, "at-third")
        sim.run()
        assert order == ["at-first", "after-second", "at-third"]


class TestRepeatedRuns:
    def test_same_seed_same_everything(self):
        assert fingerprint(run_pair()) == fingerprint(run_pair())


class TestKernelEquivalence:
    def test_calendar_matches_heap_kernel(self):
        calendar = run_pair()
        heap = run_pair(kernel=HeapEventQueue)
        assert fingerprint(calendar) == fingerprint(heap)

    @pytest.mark.parametrize("policy", ("baseline", "dwspp"))
    @pytest.mark.parametrize(
        "pair", [p for pairs in REPRESENTATIVE_PAIRS.values() for p in pairs])
    def test_equivalence_holds_across_policies(self, pair, policy):
        calendar = run_pair(pair, policy)
        heap = run_pair(pair, policy, kernel=HeapEventQueue)
        assert fingerprint(calendar) == fingerprint(heap)
