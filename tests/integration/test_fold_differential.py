"""Byte-identity of the latency-folding fast path (DESIGN.md §12).

The fold is a pure scheduling optimisation: a combinational access (L1
TLB hit + L1 data hit with no in-flight state that could reorder it)
completes arithmetically instead of through the event queue.  Nothing
observable may change — these tests run every suite archetype under
every policy with folding on and off and require the full observable
state (stats snapshot, per-tenant run stats, total cycles) to match
exactly.

The audit levels get the same treatment: an installed audit hook
disables folding (the auditor samples *event-path* state that folds
bypass), so a fold-requested run under ``audit=cheap``/``full`` must be
byte-identical to a fold-off run under the same audit level — and must
fold nothing.
"""

import dataclasses
import os

import pytest

from repro.engine.config import GpuConfig
from repro.integrity import IntegrityConfig
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.base import Workload
from repro.workloads.suite import BENCHMARKS, benchmark

SCALE = 0.05
#: The resident pair needs a longer trace: folds only start once the
#: 4 KiB footprint's cold misses are behind it.
RESIDENT_SCALE = 0.5
POLICIES = ("baseline", "static", "dws", "dwspp")

#: An L1-resident variant of HS: the fast path's home regime (every
#: post-warm-up access is an L1 TLB + L1 data hit).  The suite
#: archetypes at their standard footprints rarely fold; this one folds
#: on nearly every access, so it is the case that actually stresses the
#: folded completion ordering.
RESIDENT_SPEC = dataclasses.replace(BENCHMARKS["HS"], name="HSR",
                                    footprint_bytes=4096)


def run_once(workloads, policy, fold, warps=2, integrity=None, sms=4,
             walk=None):
    os.environ["REPRO_FASTPATH"] = "1" if fold else "0"
    if walk is not None:
        os.environ["REPRO_FASTPATH_WALK"] = "1" if walk else "0"
    try:
        cfg = GpuConfig.baseline(num_sms=sms).with_policy(policy)
        tenants = [Tenant(i, wl) for i, wl in enumerate(workloads)]
        manager = MultiTenantManager(cfg, tenants, warps_per_sm=warps,
                                     seed=3, integrity=integrity)
        result = manager.run()
    finally:
        os.environ.pop("REPRO_FASTPATH", None)
        os.environ.pop("REPRO_FASTPATH_WALK", None)
    return result, manager


def observable(result):
    """Everything a fold is forbidden to change.

    ``events_fired`` is deliberately excluded: folding completes hits
    without queue events, so firing fewer of them is the one permitted
    difference.
    """
    return (
        result.total_cycles,
        result.stats,
        {t: dataclasses.asdict(s) for t, s in result.tenants.items()},
    )


@pytest.mark.parametrize("archetype", sorted(BENCHMARKS))
def test_fold_identity_all_policies(archetype):
    """Fold on == fold off for every archetype under every policy."""
    for policy in POLICIES:
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        on, _ = run_once(pair, policy, fold=True)
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        off, _ = run_once(pair, policy, fold=False)
        assert observable(on) == observable(off), (
            f"{archetype} under {policy}: folding changed observable state")


@pytest.mark.parametrize("policy", POLICIES)
def test_fold_identity_resident_pair(policy):
    """The hit-dominated regime, where folds actually fire en masse."""
    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    on, manager = run_once(pair(), policy, fold=True, warps=1)
    off, off_manager = run_once(pair(), policy, fold=False, warps=1)
    assert observable(on) == observable(off)
    stats = manager.gpu.fastpath_stats()
    assert stats["folded_accesses"] > 0, "resident pair must exercise the fold"
    assert stats["hit_path_fraction"] > 0.5
    assert off_manager.gpu.fastpath_stats()["folded_accesses"] == 0
    # folding must strictly reduce queue traffic when it fires
    assert on.events_fired < off.events_fired


@pytest.mark.parametrize("audit", ["cheap", "full"])
def test_fold_disabled_under_audit(audit):
    """An installed audit hook closes the fold gate entirely."""
    integrity = IntegrityConfig(audit=audit, audit_interval=64)

    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    on, manager = run_once(pair(), "dws", fold=True, warps=1,
                           integrity=integrity)
    assert manager.gpu.fastpath_stats()["folded_accesses"] == 0, (
        "folds must not fire while the auditor's per-event hook is installed")
    off, _ = run_once(pair(), "dws", fold=False, warps=1, integrity=integrity)
    assert observable(on) == observable(off)
    assert on.events_fired == off.events_fired


def test_kill_switch_disables_folding():
    """REPRO_FASTPATH=0 must zero the fold counters outright."""
    _, manager = run_once(
        [Workload(RESIDENT_SPEC, RESIDENT_SCALE)], "baseline", fold=False, warps=1)
    assert manager.gpu.fold_enabled is False
    stats = manager.gpu.fastpath_stats()
    assert stats["folded_accesses"] == 0
    assert stats["hit_path_fraction"] == 0.0


def test_fold_identity_across_stop_boundary():
    """Hit ticks must not leak past ``sim.stop()``.

    At 8 SMs this seed stops the run with deferred data-cache probes
    still queued; the event path never fires them, so the fold's
    eagerly-probed accesses must not count their hits up front —
    the eager tick made ``l1c.sm3.hits`` differ by 2.
    """
    def pair():
        return [Workload(RESIDENT_SPEC, RESIDENT_SCALE),
                Workload(RESIDENT_SPEC, RESIDENT_SCALE)]

    on, _ = run_once(pair(), "dws", fold=True, warps=1, sms=8)
    off, _ = run_once(pair(), "dws", fold=False, warps=1, sms=8)
    assert observable(on) == observable(off)


def test_fold_tick_rides_the_probe_slot():
    """The deferred hit tick must occupy the probe's exact queue slot.

    Deferring the tick to a *completion batch* at the probe cycle is
    not enough: a batch carrier pushed earlier in the same cycle by a
    previous fold lets the tick fire ahead of a same-cycle stop that
    the probe event would not have survived, over-counting hits
    (``l1c.sm7.hits`` +2 on this trace).  Pushing the tick as a raw
    entry at the probe cycle reproduces the probe's FIFO position, so
    it fires or drops exactly with the event it replaces.  This is the
    benchmark sweep's ``light_resident`` configuration (seed 0).
    """
    def run(fold):
        os.environ["REPRO_FASTPATH"] = "1" if fold else "0"
        try:
            cfg = GpuConfig.baseline(num_sms=8)
            tenants = [Tenant(i, Workload(RESIDENT_SPEC, 2.0))
                       for i in range(2)]
            return MultiTenantManager(cfg, tenants, warps_per_sm=1,
                                      seed=0).run()
        finally:
            os.environ.pop("REPRO_FASTPATH", None)

    assert observable(run(True)) == observable(run(False))


@pytest.mark.parametrize("archetype", sorted(BENCHMARKS))
def test_walk_fold_identity_all_policies(archetype):
    """Walk rungs on == off for every archetype under every policy.

    Both sides keep the parent fold on: this isolates the DESIGN.md §14
    rungs (L2-TLB-hit fold, DRAM batching) from the §12 hit fold the
    previous tests cover.
    """
    for policy in POLICIES:
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        on, _ = run_once(pair, policy, fold=True, walk=True)
        pair = [benchmark(archetype, scale=SCALE), benchmark("HS", scale=SCALE)]
        off, _ = run_once(pair, policy, fold=True, walk=False)
        assert observable(on) == observable(off), (
            f"{archetype} under {policy}: walk folding changed observable "
            "state")


@pytest.mark.parametrize("policy", POLICIES)
def test_walk_fold_engagement(policy):
    """The miss-dominated regime, where the walk rungs actually fire.

    JPEG.LIB at this scale warms the L2 TLB enough for rung (a) to
    engage while every L2 miss exercises rung (c); a walk-rung
    differential on a config where they never fire would be vacuous.
    """
    def pair():
        return [benchmark("JPEG", scale=0.2), benchmark("LIB", scale=0.2)]

    on, manager = run_once(pair(), policy, fold=True, walk=True, warps=1)
    off, off_manager = run_once(pair(), policy, fold=True, walk=False,
                                warps=1)
    assert observable(on) == observable(off)
    stats = manager.gpu.fastpath_stats()
    assert stats["folded_l2_tlb_hits"] > 0, "rung (a) must engage"
    assert stats["batched_dram_fetches"] > 0, "rung (c) must engage"
    assert stats["batched_dram_returns"] > 0
    off_stats = off_manager.gpu.fastpath_stats()
    assert off_stats["folded_l2_tlb_hits"] == 0
    assert off_stats["batched_dram_fetches"] == 0
    # Batching and folding must never add queue traffic.  Equality is
    # legitimate at this scale: the lazy batch protocol keeps the first
    # two same-cycle completions on their own entries (direct + carrier)
    # and only saves entries from the third member on.
    assert on.events_fired <= off.events_fired


def test_walk_fold_identity_across_stop_boundary():
    """Walk-rung ticks must not leak past ``sim.stop()``.

    Rungs (a) and (c) push their deferred ticks and batch carriers at
    the slots of the events they replace, and the slot-exact discipline
    (DESIGN.md §14) requires each to fire or drop at a stop exactly as
    that event would have.  At 8 SMs this trace stops mid-traffic, with
    L2 fills still queued.
    """
    def pair():
        return [benchmark("JPEG", scale=0.5), benchmark("LIB", scale=0.5)]

    on, _ = run_once(pair(), "dws", fold=True, walk=True, warps=1, sms=8)
    off, _ = run_once(pair(), "dws", fold=True, walk=False, warps=1, sms=8)
    assert observable(on) == observable(off)


def test_walk_kill_switches():
    """REPRO_FASTPATH_WALK=0 zeroes only the walk rungs; REPRO_FASTPATH=0
    zeroes them too (the parent switch wins)."""
    pair = [benchmark("JPEG", scale=0.2), benchmark("LIB", scale=0.2)]
    _, manager = run_once(pair, "dws", fold=True, walk=False, warps=1)
    assert manager.gpu.fold_walk_enabled is False
    assert manager.gpu.fold_enabled is True
    stats = manager.gpu.fastpath_stats()
    assert stats["folded_l2_tlb_hits"] == 0
    assert stats["batched_dram_fetches"] == 0
    assert stats["batched_dram_returns"] == 0

    pair = [benchmark("JPEG", scale=0.2), benchmark("LIB", scale=0.2)]
    _, manager = run_once(pair, "dws", fold=False, walk=True, warps=1)
    stats = manager.gpu.fastpath_stats()
    assert stats["folded_l2_tlb_hits"] == 0
    assert stats["batched_dram_fetches"] == 0


def test_walk_fold_disabled_under_audit():
    """An installed audit hook closes every walk-rung gate too."""
    integrity = IntegrityConfig(audit="cheap", audit_interval=64)
    pair = [benchmark("JPEG", scale=0.2), benchmark("LIB", scale=0.2)]
    _, manager = run_once(pair, "dws", fold=True, walk=True, warps=1,
                          integrity=integrity)
    stats = manager.gpu.fastpath_stats()
    assert stats["folded_l2_tlb_hits"] == 0
    assert stats["batched_dram_fetches"] == 0
    assert stats["batched_dram_returns"] == 0


def test_mshr_stall_counters_present_at_zero():
    """The hoisted per-SM mshr_stalls counters must appear in every
    snapshot, zero-valued when no stall occurred, so fold-on and
    fold-off snapshots stay key-identical."""
    result, manager = run_once(
        [Workload(RESIDENT_SPEC, RESIDENT_SCALE)], "baseline", fold=True, warps=1)
    keys = [k for k in result.stats
            if k.startswith("l1tlb.") and k.endswith(".mshr_stalls")]
    assert len(keys) == manager.config.sm.num_sms
    assert all(result.stats[k] == 0 for k in keys)
