"""Invariant auditor: differential byte-identity, probes, corruption."""

import dataclasses

import pytest

from repro.engine.config import GpuConfig, PolicySpec
from repro.harness.faults import FaultSpec, clear_faults, install_faults
from repro.integrity import (
    Auditor,
    IntegrityConfig,
    InvariantViolation,
    build_auditor,
)
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.suite import benchmark


def _manager(policy="dws", integrity=None, pair=("HS", "MM"), seed=7,
             separate=False):
    config = GpuConfig.baseline(num_sms=4)
    config = dataclasses.replace(
        config, policy=PolicySpec(name=policy),
        separate_l2_tlb=separate, separate_walkers=separate)
    tenants = [Tenant(i, benchmark(name, scale=0.04))
               for i, name in enumerate(pair)]
    return MultiTenantManager(config, tenants, warps_per_sm=2, seed=seed,
                              integrity=integrity)


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    from repro.integrity import clear_install
    clear_faults()
    clear_install()
    yield
    clear_faults()
    clear_install()


# ----------------------------------------------------------------------
# Byte-identical discipline: auditing must never change results
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", ["baseline", "static", "dws", "dwspp"])
@pytest.mark.parametrize("audit", ["cheap", "full"])
def test_audited_run_is_byte_identical(policy, audit):
    plain = _manager(policy).run()
    audited = _manager(
        policy, integrity=IntegrityConfig(audit=audit, audit_interval=64),
    ).run()
    assert audited.stats == plain.stats
    assert audited.total_cycles == plain.total_cycles
    assert audited.events_fired == plain.events_fired
    for t in plain.tenant_ids:
        assert audited.tenants[t].instructions == plain.tenants[t].instructions
        assert audited.tenants[t].cycles == plain.tenants[t].cycles


def test_off_config_attaches_nothing():
    manager = _manager("dws", integrity=IntegrityConfig(audit="off"))
    assert manager._integrity_harness() is None
    result = manager.run()
    assert manager.sim.audit_hook is None
    assert result.tenants[0].completed_executions >= 1


def test_full_mode_runs_probes_and_transition_checks():
    manager = _manager("dws")
    config = IntegrityConfig(audit="full")
    harness = manager._integrity_harness() or None
    assert harness is None  # no ambient config installed
    from repro.integrity.harness import IntegrityHarness
    with IntegrityHarness(manager, config) as harness:
        manager._run()
    auditor = harness.auditor
    assert auditor is not None
    assert auditor.sweeps > 0
    # full mode sweeps once per event plus per-transition re-checks
    assert auditor.checks_run > auditor.sweeps
    # detached on exit
    assert manager.sim.audit_hook is None
    for pws in manager.gpu.walk_subsystems():
        assert pws.auditor is None


def test_cheap_mode_samples_at_interval():
    manager = _manager("dws")
    from repro.integrity.harness import IntegrityHarness
    with IntegrityHarness(
            manager, IntegrityConfig(audit="cheap", audit_interval=128),
    ) as harness:
        result = manager._run()
    assert harness.auditor.sweeps == result.events_fired // 128


# ----------------------------------------------------------------------
# The auditor catches seeded violations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("target,probe", [
    ("busy", "occupancy"),
    ("walks", "walk_accounting"),
])
def test_seeded_corruption_is_caught(target, probe):
    install_faults([FaultSpec(kind="corrupt", after_events=150,
                              target=target)])
    manager = _manager("dws", integrity=IntegrityConfig(audit="full"))
    with pytest.raises(InvariantViolation) as excinfo:
        manager.run()
    assert probe in excinfo.value.probe
    assert excinfo.value.sim_time is not None
    # typed errors stay catchable through the pre-existing hierarchy
    assert isinstance(excinfo.value, RuntimeError)


def test_cheap_mode_catches_corruption_within_interval():
    install_faults([FaultSpec(kind="corrupt", after_events=10,
                              target="walks")])
    manager = _manager(
        "dws", integrity=IntegrityConfig(audit="cheap", audit_interval=32))
    with pytest.raises(InvariantViolation):
        manager.run()


def test_corruption_without_audit_is_inert():
    # The corrupt fault needs the integrity hook to be applied at all;
    # auditing off means no hook, no corruption, clean run.
    install_faults([FaultSpec(kind="corrupt", after_events=10,
                              target="walks")])
    result = _manager("dws").run()
    assert result.tenants[0].completed_executions >= 1


def test_corruption_label_filtering():
    install_faults([FaultSpec(kind="corrupt", label="other-job",
                              after_events=10, target="walks")])
    manager = _manager("dws", integrity=IntegrityConfig(audit="full"))
    result = manager.run()  # label mismatch: fault never fires
    assert result.tenants[0].completed_executions >= 1


# ----------------------------------------------------------------------
# Probe unit behaviour
# ----------------------------------------------------------------------
def test_register_and_sweep_raise_on_failure():
    auditor = Auditor(level="cheap", interval=1)
    calls = []
    auditor.register("ok", lambda: calls.append("ok") and None)
    auditor.register("bad", lambda: "measured 2, expected 1")
    with pytest.raises(InvariantViolation, match="bad: measured 2"):
        auditor.sweep()
    assert auditor.checks_run == 2


def test_check_component_scopes_to_registered_component():
    auditor = Auditor(level="full")
    target = object()
    hits = []
    auditor.register("scoped", lambda: hits.append(1) and None,
                     component=target)
    auditor.check_component(object())  # unknown component: nothing runs
    assert hits == []
    auditor.check_component(target)
    assert hits == [1]


def test_build_auditor_covers_every_layer():
    manager = _manager("dwspp", separate=True)
    auditor = build_auditor(manager, IntegrityConfig(audit="cheap"))
    names = [name for name, _probe in auditor._probes]
    assert "sim.monotonic_time" in names
    assert "tenancy.accounting" in names
    assert any(n.endswith(".walk_accounting") for n in names)
    assert any(n.endswith(".occupancy") for n in names)
    assert any(n.endswith(".policy") for n in names)
    assert any(n.endswith(".residency") for n in names)
    auditor.sweep()  # a healthy idle manager passes every probe


def test_cli_tables_byte_identical_under_audit(capsys):
    """`--audit full` must not perturb a paper table by one byte."""
    from repro.cli import main

    argv = ["experiment", "fig5", "--pairs", "HS.MM",
            "--scale", "0.03", "--warps", "2"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--audit", "full"]) == 0
    audited = capsys.readouterr().out
    assert audited == plain
    assert main(argv + ["--audit", "cheap", "--watchdog-window",
                        "100000"]) == 0
    assert capsys.readouterr().out == plain


def test_probe_detects_hand_broken_busy_count():
    manager = _manager("dws")
    auditor = build_auditor(manager, IntegrityConfig(audit="cheap"))
    pws = manager.gpu.walk_subsystems()[0]
    pws._busy_by_tenant[0] = -1
    with pytest.raises(InvariantViolation, match="negative"):
        auditor.sweep()
