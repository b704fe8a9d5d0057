"""Result validation wired into supervised dispatch: fatal, quarantined."""

import pytest

from repro.engine.config import GpuConfig
from repro.harness import parallel
from repro.harness.parallel import Job, run_jobs
from repro.harness.supervision import (
    DOMAIN_VALIDATE,
    RetryPolicy,
    SupervisionPolicy,
    SupervisionStats,
)
from repro.harness.validate import ValidationReport


def _jobs():
    config = GpuConfig.baseline(num_sms=4)
    return [Job(label=f"{pair}/dws", names=tuple(pair.split(".")),
                config=config.with_policy("dws"), scale=0.03, warps_per_sm=2)
            for pair in ("HS.MM", "FFT.HS")]


@pytest.fixture(autouse=True)
def _clean_env():
    from repro.integrity import clear_install
    clear_install()
    yield
    clear_install()


def _failing_validator(bad_label_fragment):
    def fake_validate(result):
        report = ValidationReport()
        names = {s.workload_name for s in result.tenants.values()}
        if bad_label_fragment in names:
            report.violations.append("seeded: walks do not balance")
        report.checks_run = 1
        return report
    return fake_validate


def test_validation_failure_quarantines_without_retry(monkeypatch):
    monkeypatch.setattr(parallel, "validate_result",
                        _failing_validator("FFT"))
    stats = SupervisionStats()
    results = run_jobs(
        _jobs(), workers=1,
        supervision=SupervisionPolicy(retry=RetryPolicy(max_attempts=3)),
        stats=stats, validate=True)
    # the healthy job landed; the invalid one is quarantined
    assert set(results) == {"HS.MM/dws"}
    assert "FFT.HS/dws" in stats.quarantined
    assert "seeded: walks do not balance" in stats.quarantined["FFT.HS/dws"]
    # deterministic failure: no retry budget burned, single attempt
    assert stats.attempts["FFT.HS/dws"] == 1
    assert stats.retries == 0
    assert stats.failures == {DOMAIN_VALIDATE: 1}


def test_validation_failure_captures_forensics_bundle(monkeypatch, tmp_path):
    from repro.integrity import IntegrityConfig, install

    monkeypatch.setattr(parallel, "validate_result",
                        _failing_validator("FFT"))
    install(IntegrityConfig(forensics_dir=str(tmp_path)))
    stats = SupervisionStats()
    run_jobs(_jobs(), workers=1, supervision=SupervisionPolicy(),
             stats=stats, validate=True)
    assert "FFT.HS/dws" in stats.forensics
    bundle_path = stats.forensics["FFT.HS/dws"]
    assert "[bundle: " in stats.quarantined["FFT.HS/dws"]

    from repro.integrity import load_bundle
    bundle = load_bundle(bundle_path)
    assert bundle["error"]["type"] == "ResultValidationError"
    assert bundle["error"]["violations"] == ["seeded: walks do not balance"]
    assert bundle["job"]["label"] == "FFT.HS/dws"
    assert bundle["stats"]  # the invalid result's stats ride along


def test_validation_passes_are_invisible():
    stats = SupervisionStats()
    results = run_jobs(_jobs(), workers=1, supervision=SupervisionPolicy(),
                       stats=stats, validate=True)
    assert set(results) == {"HS.MM/dws", "FFT.HS/dws"}
    assert stats.ok
    assert not stats.forensics


def test_default_policy_quarantines_validation_failure(monkeypatch):
    # No policy passed: the default one still quarantines instead of
    # raising, after a single attempt.
    monkeypatch.setattr(parallel, "validate_result",
                        _failing_validator("HS"))
    stats = SupervisionStats()
    assert run_jobs(_jobs()[:1], workers=1, stats=stats,
                    validate=True) == {}
    assert "ResultValidationError" in stats.quarantined["HS.MM/dws"]
    assert stats.attempts["HS.MM/dws"] == 1
    assert stats.retries == 0


def test_campaign_jobs_validate_by_default(tmp_path):
    # run_campaign passes validate=True; a real (healthy) slice must
    # still come through clean with validation on.
    from repro.harness.campaign import run_campaign
    from repro.harness.runner import Session

    session = Session(scale=0.03, warps_per_sm=2, seed=0)
    report = run_campaign(session, ["fig5"], ["HS.MM"], workers=1)
    assert report.ok
    assert report.supervision.failures.get(DOMAIN_VALIDATE, 0) == 0
