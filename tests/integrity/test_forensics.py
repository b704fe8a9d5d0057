"""Crash forensics: typed errors, bundle round-trips, CLI replay."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.engine.config import GpuConfig
from repro.engine.simulator import (
    EventBudgetExceeded,
    SimulationError,
    WalkAccountingError,
)
from repro.harness.faults import FaultSpec, clear_faults, install_faults
from repro.harness.parallel import Job, run_jobs
from repro.harness.supervision import SupervisionStats
from repro.integrity import (
    BUNDLE_FORMAT,
    IntegrityConfig,
    InvariantViolation,
    clear_install,
    install,
    load_bundle,
    replay_bundle,
    write_bundle,
)
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.suite import benchmark


@pytest.fixture(autouse=True)
def _clean_env():
    clear_faults()
    clear_install()
    yield
    clear_faults()
    clear_install()


def _manager(integrity=None, scale=0.04, max_events=100_000_000):
    config = GpuConfig.baseline(num_sms=4)
    tenants = [Tenant(i, benchmark(name, scale=scale))
               for i, name in enumerate(("HS", "MM"))]
    return MultiTenantManager(config, tenants, warps_per_sm=2, seed=7,
                              max_events=max_events, integrity=integrity)


# ----------------------------------------------------------------------
# Typed error hierarchy (satellite a/b)
# ----------------------------------------------------------------------
def test_negative_busy_count_raises_typed_error():
    manager = _manager()
    pws = manager.gpu.walk_subsystems()[0]
    with pytest.raises(WalkAccountingError) as excinfo:
        pws._update_busy(0, -1)
    error = excinfo.value
    assert error.tenant_id == 0
    assert error.sim_time == manager.sim.now
    assert isinstance(error, SimulationError)
    assert isinstance(error, RuntimeError)  # legacy handlers still match
    details = error.details()
    assert details["type"] == "WalkAccountingError"
    assert details["tenant_id"] == 0


def test_event_budget_error_keeps_legacy_message():
    manager = _manager(scale=0.5, max_events=200)
    # pre-existing callers match on RuntimeError + "max_events"
    with pytest.raises(RuntimeError, match="max_events") as excinfo:
        manager.run()
    assert isinstance(excinfo.value, EventBudgetExceeded)
    assert excinfo.value.context["incomplete_tenants"]


def test_simulation_error_pickles_with_fields():
    import pickle

    error = WalkAccountingError("busy count negative", tenant_id=3,
                                walker_id=2, sim_time=99, extra="x")
    clone = pickle.loads(pickle.dumps(error))
    assert clone.tenant_id == 3
    assert clone.walker_id == 2
    assert clone.sim_time == 99
    assert clone.context == {"extra": "x"}


# ----------------------------------------------------------------------
# Bundle round trip (satellite d)
# ----------------------------------------------------------------------
def test_bundle_write_load_round_trip(tmp_path):
    config = GpuConfig.baseline(num_sms=4)
    error = InvariantViolation("tenant 0: off by one", probe="pws.occupancy",
                               sim_time=123)
    job = Job(label="HS.MM/dws", names=("HS", "MM"), config=config,
              scale=0.04, warps_per_sm=2, seed=7, max_events=1000)
    path = write_bundle(
        tmp_path, error=error, job=job,
        integrity=IntegrityConfig(audit="full"),
        stats={"pws.walks.tenant0": 5.0}, sim_now=123, events_fired=456)
    assert path.name.endswith(".forensics.json")
    bundle = load_bundle(path)
    assert bundle["format"] == BUNDLE_FORMAT
    assert bundle["error"]["probe"] == "pws.occupancy"
    assert bundle["job"]["names"] == ["HS", "MM"]
    assert bundle["job"]["seed"] == 7
    assert bundle["integrity"]["audit"] == "full"
    assert str(path) in bundle["command"]
    # the config survives the dict round trip exactly
    from repro.engine.config import config_from_dict
    assert config_from_dict(bundle["config"]) == config


def test_load_bundle_rejects_garbage(tmp_path):
    path = tmp_path / "x.forensics.json"
    path.write_text(json.dumps({"format": 999}))
    with pytest.raises(ValueError, match="not a format"):
        load_bundle(path)
    path.write_text(json.dumps({"format": BUNDLE_FORMAT}))
    with pytest.raises(ValueError, match="missing"):
        load_bundle(path)


def test_crash_capture_and_replay_reproduces(tmp_path):
    install_faults([FaultSpec(kind="corrupt", after_events=150,
                              target="busy")])
    manager = _manager(IntegrityConfig(audit="full",
                                       forensics_dir=str(tmp_path)))
    with pytest.raises(InvariantViolation) as excinfo:
        manager.run()
    bundle_path = excinfo.value.bundle_path
    assert bundle_path and str(tmp_path) in bundle_path
    bundle = load_bundle(bundle_path)
    assert bundle["environment"]["REPRO_FAULTS"]  # plan travels along
    assert bundle["stats"]  # a snapshot at death was captured
    assert bundle["sim"]["events_fired"] > 0

    # The embedded command's replay must reproduce the exact failure —
    # even with the fault plan cleared from this process.
    clear_faults()
    outcome = replay_bundle(bundle_path)
    assert outcome.reproduced
    assert type(outcome.error).__name__ == "InvariantViolation"
    # deterministic to the message: same probe, same counts, same cycle
    assert str(outcome.error) == str(excinfo.value)


def test_replay_does_not_mint_nested_bundles(tmp_path):
    install_faults([FaultSpec(kind="corrupt", after_events=150,
                              target="walks")])
    manager = _manager(IntegrityConfig(audit="full",
                                       forensics_dir=str(tmp_path)))
    with pytest.raises(InvariantViolation) as excinfo:
        manager.run()
    clear_faults()
    before = sorted(tmp_path.glob("*.forensics.json"))
    assert len(before) == 1
    outcome = replay_bundle(before[0])
    assert outcome.reproduced
    assert sorted(tmp_path.glob("*.forensics.json")) == before
    assert getattr(excinfo.value, "bundle_path", None) == str(before[0])


def test_bundle_ring_buffer_holds_recent_events(tmp_path):
    install_faults([FaultSpec(kind="corrupt", after_events=400,
                              target="walks")])
    manager = _manager(IntegrityConfig(audit="full",
                                       forensics_dir=str(tmp_path),
                                       ring_capacity=64))
    with pytest.raises(InvariantViolation) as excinfo:
        manager.run()
    bundle = load_bundle(excinfo.value.bundle_path)
    events = bundle["recent_events"]
    assert 0 < len(events) <= 64
    times = [e["time"] for e in events]
    assert times == sorted(times)
    # tracer attached by the harness was detached again afterwards
    for pws in manager.gpu.walk_subsystems():
        assert pws.tracer is None


# ----------------------------------------------------------------------
# CLI (satellite: --audit / --forensics-dir / replay command)
# ----------------------------------------------------------------------
def test_cli_flags_capture_and_replay(tmp_path, monkeypatch, capsys):
    from repro.cli import main

    monkeypatch.setenv(
        "REPRO_FAULTS",
        json.dumps([dataclasses.asdict(
            FaultSpec(kind="corrupt", after_events=300, target="walks"))]))
    code = main(["run", "HS.MM", "--scale", "0.04", "--warps", "2",
                 "--audit", "full", "--forensics-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "InvariantViolation" in err
    assert "forensics bundle:" in err
    bundles = list(tmp_path.glob("*.forensics.json"))
    assert len(bundles) == 1

    monkeypatch.delenv("REPRO_FAULTS")
    code = main(["replay", str(bundles[0])])
    out = capsys.readouterr().out
    assert code == 0
    assert "reproduced: InvariantViolation" in out


def test_cli_replay_exit_3_when_not_reproducing(tmp_path, capsys):
    # A bundle recording a failure that a clean rerun does not hit.
    config = GpuConfig.baseline(num_sms=4)
    error = InvariantViolation("phantom", probe="pws.occupancy")
    job = Job(label="HS.MM", names=("HS", "MM"), config=config,
              scale=0.04, warps_per_sm=2, seed=7, max_events=100_000_000)
    path = write_bundle(tmp_path, error=error, job=job)
    from repro.cli import main
    assert main(["replay", str(path)]) == 3
    assert "did not reproduce" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Replay runs the Job path: every failure run_jobs records replays, and
# a bundle no job describes is refused
# ----------------------------------------------------------------------
def _small_job(max_rss_mb=None):
    return Job(label="HS.MM/dws", names=("HS", "MM"),
               config=GpuConfig.baseline(num_sms=4).with_policy("dws"),
               scale=0.04, warps_per_sm=2, seed=7, max_rss_mb=max_rss_mb)


def _bundles(directory):
    return sorted(directory.glob("*.forensics.json"))


def _replay_cli(path, capsys):
    from repro.cli import main

    code = main(["replay", str(path)])
    captured = capsys.readouterr()
    return code, captured.out + captured.err


def _run_jobs_bundle(directory, job, validate=False):
    """Run ``job`` through run_jobs with forensics on; its bundle."""
    stats = SupervisionStats()
    install(IntegrityConfig(forensics_dir=str(directory)))
    assert run_jobs([job], workers=1, stats=stats, validate=validate) == {}
    clear_install()
    clear_faults()
    assert _bundles(directory) == [Path(stats.forensics[job.label])]
    return stats.forensics[job.label]


def test_cli_replay_reproduces_a_validation_failure(tmp_path, monkeypatch,
                                                    capsys):
    from repro.harness import parallel
    from repro.harness.validate import ValidationReport

    def reject(result):
        return ValidationReport(violations=["seeded: walks do not balance"],
                                checks_run=1)

    # Patched for the capture and the replay alike.
    monkeypatch.setattr(parallel, "validate_result", reject)
    path = _run_jobs_bundle(tmp_path, _small_job(), validate=True)
    code, text = _replay_cli(path, capsys)
    assert code == 0
    assert "reproduced: ResultValidationError" in text
    assert _bundles(tmp_path) == [Path(path)]


def test_cli_replay_reproduces_a_budget_breach(tmp_path, capsys):
    install_faults([FaultSpec(kind="rss_spike", rss_mb=4096.0)])
    path = _run_jobs_bundle(tmp_path, _small_job(max_rss_mb=256.0))
    code, text = _replay_cli(path, capsys)
    assert code == 0
    assert "reproduced: ResourceBudgetExceeded" in text
    assert _bundles(tmp_path) == [Path(path)]
    assert load_bundle(path)["job"]["max_rss_mb"] == 256.0


def _corruption_bundle(directory, run):
    """The bundle of ``run`` dying under a seeded corruption."""
    install_faults([FaultSpec(kind="corrupt", after_events=150,
                              target="walks")])
    install(IntegrityConfig(audit="full", forensics_dir=str(directory)))
    with pytest.raises(InvariantViolation) as excinfo:
        run()
    clear_install()
    clear_faults()
    return excinfo.value.bundle_path


def test_cli_replay_refuses_a_custom_footprint_bundle(tmp_path, capsys):
    from repro.harness.runner import Session
    from repro.workloads.base import Workload

    session = Session(scale=0.04, warps_per_sm=2)
    plain = session.workload("HS")
    enhanced = Workload(dataclasses.replace(
        plain.spec, footprint_bytes=plain.spec.footprint_bytes * 16),
        plain.scale)
    config = GpuConfig.baseline(num_sms=4).with_page_size_bits(16)
    path = _corruption_bundle(
        tmp_path, lambda: session.run_custom("HS@x16", [enhanced], config))
    code, text = _replay_cli(path, capsys)
    assert code == 2
    assert "cannot be replayed" in text
    assert _bundles(tmp_path) == [Path(path)]
    assert load_bundle(path)["job"]["replayable"] is False


def test_cli_replay_refuses_a_characterize_bundle(tmp_path, capsys):
    from repro.workloads.characterize import characterize

    path = _corruption_bundle(tmp_path, lambda: characterize(
        benchmark("HS", scale=0.04), GpuConfig.baseline(num_sms=4),
        warps_per_sm=2))
    code, text = _replay_cli(path, capsys)
    assert code == 2
    assert "cannot be replayed" in text
    assert load_bundle(path)["job"]["replayable"] is False


@pytest.mark.parametrize("field,value,message", [
    ("warps_per_sm", None, "malformed job description"),
    ("scale", "large", "malformed job description"),
    ("names", 5, "lists no workload names"),
])
def test_cli_replay_rejects_a_malformed_job_section(tmp_path, capsys,
                                                    field, value, message):
    path = write_bundle(tmp_path, error=InvariantViolation("phantom"),
                        job=_small_job())
    bundle = json.loads(path.read_text())
    if value is None:
        del bundle["job"][field]
    else:
        bundle["job"][field] = value
    path.write_text(json.dumps(bundle))
    code, text = _replay_cli(path, capsys)
    assert code == 2
    assert message in text


def test_cli_replay_rejects_a_malformed_environment(tmp_path, capsys):
    path = write_bundle(tmp_path, error=InvariantViolation("phantom"),
                        job=_small_job())
    bundle = json.loads(path.read_text())
    bundle["environment"] = ["REPRO_FAULTS"]
    path.write_text(json.dumps(bundle))
    code, text = _replay_cli(path, capsys)
    assert code == 2
    assert "environment is not a map of strings" in text


def test_bundle_from_before_the_replayable_field_still_replays(tmp_path):
    install_faults([FaultSpec(kind="corrupt", after_events=150,
                              target="busy")])
    manager = _manager(IntegrityConfig(audit="full",
                                       forensics_dir=str(tmp_path)))
    with pytest.raises(InvariantViolation) as excinfo:
        manager.run()
    clear_faults()
    bundle = load_bundle(excinfo.value.bundle_path)
    assert bundle["job"]["replayable"] is True
    # The job section as bundles wrote it before: no replayable flag,
    # no RSS budget, and no label for a run outside the Job path.
    del bundle["job"]["replayable"], bundle["job"]["max_rss_mb"]
    bundle["job"]["label"] = None
    assert replay_bundle(bundle).reproduced


def test_cli_restores_prior_integrity_env(monkeypatch):
    from repro.cli import main
    from repro.integrity import INTEGRITY_ENV

    monkeypatch.setenv(INTEGRITY_ENV, "sentinel")
    code = main(["run", "HS.MM", "--scale", "0.03", "--warps", "2",
                 "--audit", "cheap"])
    assert code == 0
    import os
    assert os.environ[INTEGRITY_ENV] == "sentinel"
