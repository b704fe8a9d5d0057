"""Resource governance chaos suite: deterministic budget kills and
host-pressure readings.

Every scenario drives the resource ladder from injected readings
(``REPRO_FAULTS`` kinds ``rss_spike`` / ``host_pressure``), never from
what the test host happens to be doing, and asserts the ISSUE's
acceptance invariant: governance changes *scheduling*, not *answers* —
any run that completes produces tables byte-identical to an ungoverned
run, and a budget breach becomes a no-retry quarantine with forensics
instead of machine-wide collateral damage.
"""

import pickle

import pytest

from repro.engine.config import GpuConfig
from repro.harness import faults, resources
from repro.harness.campaign import run_campaign
from repro.harness.parallel import Job, run_jobs
from repro.harness.reporting import format_table
from repro.harness.resources import (
    HostPressureMonitor,
    PressurePolicy,
    ResourceBudgetExceeded,
    RssSampler,
    check_rss_budget,
)
from repro.harness.runner import Session
from repro.harness.supervision import (
    DOMAIN_RESOURCE,
    RetryPolicy,
    SupervisionPolicy,
    SupervisionStats,
)

SCALE = 0.05
WARPS = 2
FIGURES = ["fig5"]
PAIRS = ["HS.MM"]

QUICK = SupervisionPolicy(retry=RetryPolicy(max_attempts=3,
                                            base_delay=0.001))


@pytest.fixture(autouse=True)
def _clean_env():
    from repro.integrity import clear_install
    faults.clear_faults()
    clear_install()
    yield
    faults.clear_faults()
    clear_install()


def small_session():
    return Session(scale=SCALE, warps_per_sm=WARPS, seed=0)


def tiny_job(label, pair="HS.MM", seed=0, max_rss_mb=None):
    return Job(label=label, names=tuple(pair.split(".")),
               config=GpuConfig.baseline(num_sms=2), scale=SCALE,
               warps_per_sm=WARPS, seed=seed, max_rss_mb=max_rss_mb)


def spike(label="*", rss_mb=4096.0):
    return faults.FaultSpec(kind=faults.KIND_RSS_SPIKE, label=label,
                            rss_mb=rss_mb)


def pressure(available_mb=0.0, load=0.0):
    return faults.FaultSpec(kind=faults.KIND_HOST_PRESSURE,
                            available_mb=available_mb, load=load)


class TestReadings:
    def test_rss_spike_overrides_current_rss(self):
        faults.install_faults([spike(rss_mb=1234.5)])
        assert resources.current_rss_mb() == 1234.5
        assert resources.lifetime_peak_rss_mb() == 1234.5

    def test_rss_spike_filters_by_label(self):
        faults.install_faults([spike(label="fat-job", rss_mb=999.0)])
        assert resources.current_rss_mb("fat-job") == 999.0
        real = resources.current_rss_mb("other-job")
        assert real != 999.0

    def test_host_pressure_overrides_available_and_load(self):
        faults.install_faults([pressure(available_mb=12.0, load=64.0)])
        assert resources.read_available_mb() == 12.0
        assert resources.read_load_per_cpu() == 64.0

    def test_real_readings_are_sane(self):
        # A live Linux process has a nonzero RSS; MemAvailable is either
        # unreadable (None == "no signal") or positive.
        assert resources.current_rss_mb() > 0.0
        available = resources.read_available_mb()
        assert available is None or available > 0.0
        assert resources.read_load_per_cpu() >= 0.0

    def test_resource_reading_rejects_non_reading_kind(self):
        with pytest.raises(ValueError):
            faults.resource_reading("raise")


class TestRssSampler:
    def test_tracks_injected_peak(self):
        faults.install_faults([spike(rss_mb=512.0)])
        with RssSampler("x", interval_s=0.0) as sampler:
            pass
        assert sampler.peak_mb >= 512.0
        assert sampler.samples >= 2  # entry + exit

    def test_snapshot_is_json_portable(self):
        faults.install_faults([spike(rss_mb=512.0)])
        with RssSampler("x", interval_s=0.0) as sampler:
            pass
        snap = sampler.snapshot()
        assert snap["peak_rss_mb"] >= 512.0
        assert snap["lifetime_hwm_mb"] >= 512.0
        assert snap["samples"] == sampler.samples

    def test_check_rss_budget(self):
        faults.install_faults([spike(rss_mb=512.0)])
        sampler = RssSampler("x", interval_s=0.0)
        check_rss_budget("x", None, sampler)           # no budget: no-op
        check_rss_budget("x", 1024.0, sampler)         # under budget
        with pytest.raises(ResourceBudgetExceeded) as excinfo:
            check_rss_budget("x", 256.0, sampler)
        err = excinfo.value
        assert err.observed_mb >= 512.0
        assert err.budget_mb == 256.0
        assert err.resource == "rss"


class TestBudgetError:
    def test_pickle_roundtrip_keeps_fields(self):
        err = ResourceBudgetExceeded(
            "job 'a' peak RSS 600.0 MB exceeded its 256 MB budget",
            resource="rss", observed_mb=600.0, budget_mb=256.0, label="a")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ResourceBudgetExceeded)
        assert clone.observed_mb == 600.0
        assert clone.budget_mb == 256.0
        assert clone.resource == "rss"
        assert clone.context["label"] == "a"
        details = clone.details()
        assert details["observed_mb"] == 600.0
        assert details["budget_mb"] == 256.0


class TestBudgetQuarantine:
    def test_breach_quarantines_without_retry(self):
        faults.install_faults([spike(label="fat", rss_mb=4096.0)])
        stats = SupervisionStats()
        results = run_jobs(
            [tiny_job("fat", max_rss_mb=256.0), tiny_job("lean")],
            workers=1, supervision=QUICK, stats=stats)
        assert set(results) == {"lean"}
        assert "fat" in stats.quarantined
        assert "ResourceBudgetExceeded" in stats.quarantined["fat"]
        # deterministic failure: one attempt, zero retries burned
        assert stats.attempts["fat"] == 1
        assert stats.retries == 0
        assert stats.failures == {DOMAIN_RESOURCE: 1}

    def test_breach_captures_forensics_with_resources_block(self, tmp_path):
        from repro.integrity import IntegrityConfig, install, load_bundle

        install(IntegrityConfig(forensics_dir=str(tmp_path)))
        faults.install_faults([spike(rss_mb=4096.0)])
        stats = SupervisionStats()
        run_jobs([tiny_job("fat", max_rss_mb=256.0)], workers=1,
                 supervision=QUICK, stats=stats)
        assert "fat" in stats.forensics
        assert "[bundle: " in stats.quarantined["fat"]

        bundle = load_bundle(stats.forensics["fat"])
        assert bundle["error"]["type"] == "ResourceBudgetExceeded"
        assert bundle["error"]["observed_mb"] >= 4096.0
        assert bundle["error"]["budget_mb"] == 256.0
        assert bundle["job"]["label"] == "fat"
        assert bundle["resources"]["peak_rss_mb"] >= 4096.0
        assert bundle["resources"]["samples"] >= 1

    def test_unbudgeted_job_ignores_rss_faults(self):
        faults.install_faults([spike(rss_mb=10**6)])
        stats = SupervisionStats()
        results = run_jobs([tiny_job("a")], workers=1, supervision=QUICK,
                           stats=stats)
        assert results["a"].total_cycles > 0
        assert stats.ok

    def test_generous_budget_passes(self):
        stats = SupervisionStats()
        results = run_jobs([tiny_job("a", max_rss_mb=1e6)], workers=1,
                           supervision=QUICK, stats=stats)
        assert results["a"].total_cycles > 0
        assert stats.ok
        assert not stats.quarantined

    def test_breach_crosses_process_boundary(self):
        # The exception must pickle back from a pool worker and still
        # quarantine without retry.
        faults.install_faults([spike(label="fat", rss_mb=4096.0)])
        stats = SupervisionStats()
        try:
            results = run_jobs(
                [tiny_job("fat", max_rss_mb=256.0), tiny_job("lean")],
                workers=2, supervision=QUICK, stats=stats)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert set(results) == {"lean"}
        assert "fat" in stats.quarantined
        assert stats.attempts["fat"] == 1
        assert stats.failures.get(DOMAIN_RESOURCE) == 1

    def test_default_policy_quarantines_breach(self):
        # No policy passed: the default one quarantines the breach after
        # a single attempt instead of raising.
        faults.install_faults([spike(rss_mb=4096.0)])
        stats = SupervisionStats()
        assert run_jobs([tiny_job("fat", max_rss_mb=256.0)], workers=1,
                        stats=stats) == {}
        assert "ResourceBudgetExceeded" in stats.quarantined["fat"]
        assert stats.attempts["fat"] == 1
        assert stats.retries == 0


class TestCampaignDeterminism:
    """The acceptance scenario: injected rss_spike quarantines jobs; a
    re-run without injection is byte-identical to a fault-free run."""

    def test_quarantine_then_clean_rerun_matches_fault_free(self):
        clean = run_campaign(small_session(), FIGURES, pairs=PAIRS,
                             workers=1)
        assert clean.ok
        expected = {f: format_table(r) for f, r in clean.results.items()}

        faults.install_faults([spike(rss_mb=4096.0)])
        hurt = run_campaign(small_session(), FIGURES, pairs=PAIRS,
                            workers=1, supervision=QUICK, max_rss_mb=256.0)
        assert not hurt.ok
        assert len(hurt.quarantined) == hurt.plan.unique_jobs
        assert hurt.supervision.failures.get(DOMAIN_RESOURCE) \
            == hurt.plan.unique_jobs
        assert hurt.supervision.retries == 0

        faults.clear_faults()
        rerun = run_campaign(small_session(), FIGURES, pairs=PAIRS,
                             workers=1, supervision=QUICK, max_rss_mb=256.0)
        assert rerun.ok
        got = {f: format_table(r) for f, r in rerun.results.items()}
        assert got == expected


class TestPressurePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            PressurePolicy(min_available_mb=-1.0)
        with pytest.raises(ValueError):
            PressurePolicy(max_load_per_cpu=0.0)

    def test_default(self):
        policy = PressurePolicy()
        assert policy.min_available_mb > 0
        assert policy.max_load_per_cpu > 0


class TestHostPressureMonitor:
    def _monitor(self):
        return HostPressureMonitor(PressurePolicy(min_interval_s=0.0))

    def test_readings_flag_memory_and_load_pressure(self):
        monitor = self._monitor()
        faults.install_faults([pressure(available_mb=0.0)])
        reading = monitor.sample()
        assert reading.memory_pressured and not reading.load_pressured
        faults.install_faults([pressure(available_mb=10**6, load=64.0)])
        reading = monitor.sample()
        assert reading.load_pressured and not reading.memory_pressured
        faults.install_faults([pressure(available_mb=10**6, load=0.0)])
        assert not monitor.sample().pressured
        assert monitor.samples == 3
        assert monitor.pressured_samples == 2

    def test_throttle_reuses_last_reading(self):
        monitor = HostPressureMonitor(PressurePolicy(min_interval_s=60.0))
        first = monitor.sample()
        second = monitor.sample()
        assert second is first
        assert monitor.samples == 1
        assert monitor.sample(force=True) is not first

    def test_snapshot_schema(self):
        faults.install_faults([pressure(available_mb=12.0, load=64.0)])
        snap = self._monitor().snapshot()
        assert snap["pressured"] is True
        assert snap["memory_pressured"] is True
        assert snap["load_pressured"] is True
        assert snap["available_mb"] == 12.0
        assert snap["load_per_cpu"] == 64.0
        assert set(snap["watermarks"]) == {"min_available_mb",
                                           "max_load_per_cpu"}
        for key in ("samples", "pressured_samples"):
            assert snap[key] >= 0

