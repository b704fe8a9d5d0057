"""The collector scope a simulation is built, run and dropped in.

:func:`~repro.tenancy.manager.collector_quiet` pauses the cyclic
collector for one simulation and frees the dead graph in one
generation-0 pass.  These tests pin what that rests on: the graph is
gone once the harness returns, the collector's state is restored on
every exit, results are unchanged, and a running simulation makes no
cyclic garbage of its own (so the pause cannot grow memory).
"""

import gc

import pytest

from repro.engine.config import GpuConfig
from repro.engine.simulator import EventBudgetExceeded, Simulator
from repro.gpu.gpu import Gpu
from repro.harness import parallel
from repro.harness.parallel import Job
from repro.harness.runner import Session
from repro.integrity.config import IntegrityConfig
from repro.tenancy.manager import MultiTenantManager, collector_quiet
from repro.tenancy.tenant import Tenant
from repro.workloads.suite import benchmark

SCALE = 0.05
WARPS = 2


def small_job(pair="HS.MM", max_events=parallel.DEFAULT_MAX_EVENTS):
    return Job(label=pair, names=tuple(pair.split(".")),
               config=GpuConfig.baseline(num_sms=2), scale=SCALE,
               warps_per_sm=WARPS, max_events=max_events)


def simulation_objects():
    """Names, not objects: a failed assert must not keep them alive."""
    return [type(o).__name__ for o in gc.get_objects()
            if isinstance(o, (Simulator, Gpu))]


@pytest.fixture
def passes():
    """Record the generation of every collection the test triggers."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()  # earlier tests' garbage is not this test's
    gc.callbacks.append(record)
    try:
        yield seen
    finally:
        gc.callbacks.remove(record)


class TestGraphIsFreed:
    def test_execute_leaves_no_simulation_behind(self, passes):
        parallel._execute(small_job())
        assert simulation_objects() == []

    @pytest.mark.parametrize("run", [
        lambda s, cfg: s.run_custom("hs", [benchmark("HS", scale=SCALE)],
                                    cfg),
        lambda s, cfg: s.run_names(["HS", "MM"], cfg),
        lambda s, cfg: s.run_profiled(["HS", "MM"], cfg),
    ], ids=["run_custom", "run_names", "run_profiled"])
    def test_session_leaves_no_simulation_behind(self, passes, run):
        session = Session(scale=SCALE, warps_per_sm=WARPS)
        run(session, GpuConfig.baseline(num_sms=2))
        assert session.simulations_executed == 1
        assert simulation_objects() == []

    def test_one_young_pass_per_scope(self, passes):
        with collector_quiet():
            assert not gc.isenabled()
            passes.clear()  # paused: nothing runs until the exit
        assert passes == [0]


class TestCollectorState:
    def test_reenabled_after_a_completed_job(self):
        parallel._execute(small_job())
        assert gc.isenabled()

    def test_reenabled_after_an_exhausted_event_budget(self):
        with pytest.raises(EventBudgetExceeded):
            parallel._execute(small_job(max_events=100))
        assert gc.isenabled()

    def test_caller_disabled_collector_is_left_alone(self, passes):
        gc.disable()
        try:
            passes.clear()  # paused: any pass now is the scope's
            parallel._execute(small_job())
            assert not gc.isenabled()
            assert passes == []
        finally:
            gc.enable()


def test_execute_matches_a_plain_run():
    job = small_job("GUPS.SAD")
    _label, result = parallel._execute(job)
    plain = MultiTenantManager(
        job.config,
        [Tenant(i, benchmark(name, scale=job.scale))
         for i, name in enumerate(job.names)],
        warps_per_sm=job.warps_per_sm, seed=job.seed,
        max_events=job.max_events).run()
    assert result.events_fired == plain.events_fired
    assert result.total_cycles == plain.total_cycles
    assert result.stats == plain.stats


_BASE = GpuConfig.baseline()


@pytest.mark.parametrize("pair,config,integrity", [
    ("HS.MM", _BASE, None),
    ("GUPS.SAD", _BASE.with_policy("dws"), None),
    ("HS.MM", _BASE.with_policy("dwspp"), None),
    ("JPEG.LIB.BLK", _BASE.with_policy("mask+dws"), None),
    ("GUPS.SAD", _BASE.with_separate_tlb_and_walkers(), None),
    ("HS.MM", _BASE.with_policy("static").with_page_size_bits(16), None),
    ("GUPS.SAD", _BASE.with_policy("dwspp"), IntegrityConfig(audit="cheap")),
    ("HS.MM", _BASE.with_policy("dws"), IntegrityConfig(audit="full")),
], ids=["HS.MM-baseline", "GUPS.SAD-dws", "HS.MM-dwspp",
        "JPEG.LIB.BLK-mask+dws", "GUPS.SAD-S-(TLB+PTW)", "HS.MM-static-64KB",
        "GUPS.SAD-dwspp-audit-cheap", "HS.MM-dws-audit-full"])
def test_running_simulation_makes_no_cyclic_garbage(pair, config, integrity):
    """The invariant the pause rests on: with the collector paused, the
    live graph is the only growth, and it becomes garbage only when
    dropped.  A change that allocates cycles per event fails here."""
    gc.collect()
    gc.disable()
    try:
        manager = MultiTenantManager(
            config,
            [Tenant(i, benchmark(name, scale=SCALE))
             for i, name in enumerate(pair.split("."))],
            integrity=integrity)
        result = manager.run()
        unreachable = gc.collect()
        assert manager.sim.now == result.total_cycles  # still referenced
    finally:
        gc.enable()
    assert result.events_fired > 0
    assert unreachable == 0
