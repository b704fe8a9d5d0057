"""Forward-progress watchdog: stall detection without false positives."""

import pytest

from repro.engine.config import GpuConfig
from repro.integrity import IntegrityConfig, ProgressStall, ProgressWatchdog
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.suite import benchmark


def _manager(integrity=None, pair=("HS", "MM"), scale=0.04):
    config = GpuConfig.baseline(num_sms=4)
    tenants = [Tenant(i, benchmark(name, scale=scale))
               for i, name in enumerate(pair)]
    return MultiTenantManager(config, tenants, warps_per_sm=2, seed=7,
                              integrity=integrity)


def test_healthy_run_never_stalls():
    result = _manager(IntegrityConfig(watchdog_window=500)).run()
    assert result.tenants[0].completed_executions >= 1
    assert result.tenants[1].completed_executions >= 1


def test_healthy_run_is_byte_identical_under_watchdog():
    plain = _manager().run()
    watched = _manager(IntegrityConfig(watchdog_window=500)).run()
    assert watched.stats == plain.stats
    assert watched.events_fired == plain.events_fired


def test_window_must_be_positive():
    manager = _manager()
    with pytest.raises(ValueError):
        ProgressWatchdog(manager, 0)


def test_check_cadence_tracks_window():
    manager = _manager()
    assert ProgressWatchdog(manager, 100).check_every == 25
    assert ProgressWatchdog(manager, 3).check_every == 1
    assert ProgressWatchdog(manager, 1_000_000).check_every == 1024


def _wedge(manager):
    """Turn the first subsystem into a livelock: walks are accepted and
    dispatched but the walker never issues its memory access, so nothing
    completes, while a self-rescheduling heartbeat keeps the clock (and
    event counter) advancing — exactly the wedged-but-alive shape the
    watchdog exists for (a drained queue would stop on its own)."""
    pws = manager.gpu.walk_subsystems()[0]
    for walker in pws.walkers:
        walker._issue_level = lambda *a, **k: None

    def heartbeat():
        manager.sim.after(5, heartbeat)

    manager.sim.after(5, heartbeat)
    return pws


def test_wedged_subsystem_raises_global_stall():
    manager = _manager(IntegrityConfig(watchdog_window=2_000))
    _wedge(manager)
    with pytest.raises(ProgressStall) as excinfo:
        manager.run()
    stall = excinfo.value
    assert stall.window == 2_000
    assert stall.inflight_walks > 0
    assert stall.stalled_tenants  # names who is stuck
    assert "no walk completed" in str(stall)
    # diagnosis fields are JSON-portable for the forensics bundle
    details = stall.details()
    assert details["type"] == "ProgressStall"
    assert details["inflight_walks"] == stall.inflight_walks


def test_wedged_run_stalls_promptly():
    window = 2_000
    manager = _manager(IntegrityConfig(watchdog_window=window))
    _wedge(manager)
    harness = manager._integrity_harness()
    with pytest.raises(ProgressStall):
        with harness:
            manager._run()
    # raised within ~a window of the stall beginning (plus the short
    # productive phase before every warp blocks), not at the
    # event-budget horizon
    assert harness.events_seen < 3 * window


def test_stall_carries_queue_depths_and_busy_walkers():
    manager = _manager(IntegrityConfig(watchdog_window=1_500))
    _wedge(manager)
    with pytest.raises(ProgressStall) as excinfo:
        manager.run()
    stall = excinfo.value
    # wedged walkers hold their requests forever: busy but not completing
    assert sum(stall.busy_walkers.values()) > 0
    assert isinstance(stall.queue_depths, dict)


def test_stall_survives_pickling():
    import pickle

    stall = ProgressStall("wedged", stalled_tenants=[1],
                          queue_depths={1: 4}, busy_walkers={1: 2},
                          window=100, inflight_walks=6, active_warps=3,
                          sim_time=42)
    clone = pickle.loads(pickle.dumps(stall))
    assert clone.stalled_tenants == (1,)
    assert clone.queue_depths == {1: 4}
    assert clone.window == 100
    assert clone.sim_time == 42
    assert "wedged" in str(clone)
