"""Chaos suite: deterministic fault injection against the supervised
campaign stack.

Every scenario asserts the same invariant the ISSUE states: with
injected worker crashes, hangs past the deadline, transient exceptions,
corrupted cache entries, and mid-campaign kills, a campaign either
completes with tables *byte-identical* to a fault-free run, or resumes
from its checkpoint re-executing only the unfinished jobs.
"""

import multiprocessing
import time

import pytest

from repro.engine.config import GpuConfig
from repro.harness import faults
from repro.harness.campaign import plan_campaign, run_campaign
from repro.harness.parallel import MAX_POOL_RESPAWNS, Job, WorkerPool, run_jobs
from repro.harness.reporting import format_table
from repro.harness.runner import Session
from repro.harness.supervision import (
    RetryPolicy,
    SupervisionPolicy,
    SupervisionStats,
)

SCALE = 0.05
WARPS = 2
FIGURES = ["fig5"]
PAIRS = ["HS.MM", "FFT.HS"]

#: Fast-failing policy for in-process scenarios.
QUICK = SupervisionPolicy(retry=RetryPolicy(max_attempts=3,
                                            base_delay=0.001))


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear_faults()
    yield
    faults.clear_faults()


def small_session(tmp_path=None):
    return Session(scale=SCALE, warps_per_sm=WARPS, seed=0,
                   cache_dir=None if tmp_path is None else str(tmp_path))


def tiny_job(label, pair="HS.MM", seed=0):
    return Job(label=label, names=tuple(pair.split(".")),
               config=GpuConfig.baseline(num_sms=2), scale=SCALE,
               warps_per_sm=WARPS, seed=seed)


def fault_free_tables():
    report = run_campaign(small_session(), FIGURES, pairs=PAIRS, workers=1)
    assert report.ok
    return {f: format_table(r) for f, r in report.results.items()}


def planned_labels():
    plan = plan_campaign(small_session(), FIGURES, pairs=PAIRS)
    return [job.label for job in plan.jobs.values()]


class TestTransientFaults:
    def test_every_job_failing_once_still_matches_fault_free(self):
        expected = fault_free_tables()
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label="*", fail_attempts=1)])
        report = run_campaign(small_session(), FIGURES, pairs=PAIRS,
                              workers=1, supervision=QUICK)
        got = {f: format_table(r) for f, r in report.results.items()}
        assert got == expected
        assert report.ok
        assert report.supervision.retries == report.plan.unique_jobs
        assert all(r.retries == 1 for r in report.job_results.values())

    def test_poison_job_is_quarantined_not_fatal(self):
        expected = fault_free_tables()
        labels = planned_labels()
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label=labels[0],
                              fail_attempts=99)])
        report = run_campaign(small_session(), FIGURES, pairs=PAIRS,
                              workers=1, supervision=QUICK)
        assert labels[0] in report.quarantined
        assert not report.ok
        # The figure still replayed (the missing job re-simulated on
        # demand, outside the fault-instrumented dispatch layer), so the
        # tables survive even a quarantine.
        assert not report.figure_errors
        assert {f: format_table(r) for f, r in report.results.items()} \
            == expected


class TestWorkerCrash:
    def test_crashed_worker_respawns_and_completes(self):
        jobs = [tiny_job("a"), tiny_job("b", pair="FFT.HS"),
                tiny_job("c", seed=1)]
        clean = run_jobs(jobs, workers=1)
        faults.install_faults(
            [faults.FaultSpec(kind="crash", label="a", fail_attempts=1)])
        stats = SupervisionStats()
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_attempts=4, base_delay=0.001))
        try:
            survived = run_jobs(jobs, workers=2, supervision=policy,
                                stats=stats)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert stats.pool_respawns >= 1
        assert stats.failures.get("worker", 0) >= 1
        assert set(survived) == set(clean)
        for label in clean:
            assert survived[label].total_cycles == clean[label].total_cycles

    def test_pool_broken_past_the_cap_finishes_in_process(self):
        # Job "a" kills its worker on every pool attempt, so the pool is
        # torn down MAX_POOL_RESPAWNS + 1 times; past the cap the rest
        # of the run, "a"'s next attempt included, runs in-process.
        jobs = [tiny_job("a"), tiny_job("b", pair="FFT.HS"),
                tiny_job("c", seed=1)]
        clean = run_jobs(jobs, workers=1)
        faults.install_faults(
            [faults.FaultSpec(kind="crash", label="a",
                              fail_attempts=MAX_POOL_RESPAWNS + 1)])
        stats = SupervisionStats()
        policy = SupervisionPolicy(retry=RetryPolicy(
            max_attempts=2 * (MAX_POOL_RESPAWNS + 1), base_delay=0.001))
        try:
            survived = run_jobs(jobs, workers=2, supervision=policy,
                                stats=stats)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert stats.degraded_serial
        assert stats.pool_respawns == MAX_POOL_RESPAWNS + 1
        assert stats.attempts["a"] == MAX_POOL_RESPAWNS + 2
        assert stats.ok
        assert list(survived) == list(clean)
        for label in clean:
            assert survived[label].stats == clean[label].stats
        assert multiprocessing.active_children() == []

    def test_crash_in_serial_fallback_is_survivable(self):
        # On the in-process path a "crash" degrades to an exception
        # (InjectedWorkerCrash) — retried like any failure, and the
        # harness itself must obviously survive.
        faults.install_faults(
            [faults.FaultSpec(kind="crash", label="a", fail_attempts=1)])
        stats = SupervisionStats()
        results = run_jobs([tiny_job("a")], workers=1, supervision=QUICK,
                           stats=stats)
        assert results["a"].total_cycles > 0
        assert stats.retries == 1
        assert stats.failures == {"worker": 1}


class TestHangWatchdog:
    def test_hung_job_is_killed_and_retried(self):
        jobs = [tiny_job("a"), tiny_job("b", pair="FFT.HS")]
        clean = run_jobs(jobs, workers=1)
        faults.install_faults(
            [faults.FaultSpec(kind="hang", label="a", fail_attempts=1,
                              hang_seconds=60.0)])
        stats = SupervisionStats()
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
            job_deadline=1.5)
        try:
            survived = run_jobs(jobs, workers=2, supervision=policy,
                                stats=stats)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert stats.timeouts == 1
        assert stats.pool_respawns >= 1
        assert stats.failures.get("timeout") == 1
        for label in clean:
            assert survived[label].total_cycles == clean[label].total_cycles

    def test_queued_jobs_do_not_time_out(self):
        # Eight jobs held 0.4 s each on two workers take about 1.6 s in
        # all.  The 1 s deadline must count from when a worker starts a
        # job, not from when it was handed to the pool, or the jobs
        # still queued behind the first two are called hung.
        jobs = [tiny_job(f"j{seed}", seed=seed) for seed in range(8)]
        faults.install_faults(
            [faults.FaultSpec(kind="hang", label="*", fail_attempts=99,
                              hang_seconds=0.4)])
        stats = SupervisionStats()
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
            job_deadline=1.0)
        try:
            results = run_jobs(jobs, workers=2, supervision=policy,
                               stats=stats)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert stats.timeouts == 0
        assert stats.pool_respawns == 0
        assert stats.retries == 0
        assert list(results) == [job.label for job in jobs]
        assert multiprocessing.active_children() == []


class TestCompositeChaos:
    def test_crash_hang_transient_together_match_fault_free(self):
        """The acceptance scenario: several fault classes in one
        campaign, tables byte-identical to the fault-free run."""
        expected = fault_free_tables()
        labels = planned_labels()
        faults.install_faults([
            faults.FaultSpec(kind="crash", label=labels[0],
                             fail_attempts=1),
            faults.FaultSpec(kind="hang", label=labels[1],
                             fail_attempts=1, hang_seconds=60.0),
            faults.FaultSpec(kind="raise", label=labels[2],
                             fail_attempts=1),
        ])
        policy = SupervisionPolicy(
            retry=RetryPolicy(max_attempts=5, base_delay=0.001),
            job_deadline=2.0)
        try:
            report = run_campaign(small_session(), FIGURES, pairs=PAIRS,
                                  workers=2, supervision=policy)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert report.ok, report.supervision.summary()
        got = {f: format_table(r) for f, r in report.results.items()}
        assert got == expected
        assert report.supervision.retries >= 1
        assert report.supervision.pool_respawns >= 1


class TestCorruptedCache:
    def _one_entry(self, cache):
        paths = sorted(cache.root.glob("*/*.pkl"))
        assert paths, "expected at least one cache entry"
        return paths[0]

    def test_truncated_entry_recomputes_byte_identically(self, tmp_path):
        expected = fault_free_tables()
        cold = run_campaign(small_session(tmp_path), FIGURES, pairs=PAIRS,
                            workers=1)
        assert cold.ok
        cache = small_session(tmp_path).disk_cache
        faults.truncate_file(self._one_entry(cache), keep_bytes=20)

        session = small_session(tmp_path)
        warm = run_campaign(session, FIGURES, pairs=PAIRS, workers=1)
        assert warm.ok
        assert warm.simulated == 1          # only the torn entry re-ran
        assert session.disk_cache.corrupt == 1
        assert warm.supervision.failures.get("cache") == 1
        assert {f: format_table(r) for f, r in warm.results.items()} \
            == expected

    def test_bitflipped_entry_recomputes_byte_identically(self, tmp_path):
        expected = fault_free_tables()
        run_campaign(small_session(tmp_path), FIGURES, pairs=PAIRS,
                     workers=1)
        cache = small_session(tmp_path).disk_cache
        faults.bitflip_file(self._one_entry(cache))

        warm = run_campaign(small_session(tmp_path), FIGURES, pairs=PAIRS,
                            workers=1)
        assert warm.ok
        assert warm.simulated == 1
        assert {f: format_table(r) for f, r in warm.results.items()} \
            == expected


class TestMidCampaignKill:
    def test_interrupted_campaign_resumes_from_checkpoint(self, tmp_path):
        expected = fault_free_tables()
        faults.install_faults(
            [faults.FaultSpec(kind="interrupt", after_results=2)])
        with pytest.raises(KeyboardInterrupt):
            run_campaign(small_session(tmp_path), FIGURES, pairs=PAIRS,
                         workers=1)
        faults.clear_faults()

        resumed = run_campaign(small_session(tmp_path), FIGURES,
                               pairs=PAIRS, workers=1)
        # Only the unfinished jobs re-executed; the two that completed
        # before the kill came back from cache + checkpoint.
        assert resumed.resumed_from_checkpoint == 2
        assert resumed.cache_hits == 2
        assert resumed.simulated == resumed.plan.unique_jobs - 2
        assert {f: format_table(r) for f, r in resumed.results.items()} \
            == expected

    def test_checkpoint_scopes_to_campaign_identity(self, tmp_path):
        faults.install_faults(
            [faults.FaultSpec(kind="interrupt", after_results=1)])
        with pytest.raises(KeyboardInterrupt):
            run_campaign(small_session(tmp_path), FIGURES, pairs=PAIRS,
                         workers=1)
        faults.clear_faults()
        # A different campaign (other pair subset) starts its own
        # checkpoint; it must not claim the first one's progress.
        other = run_campaign(small_session(tmp_path), FIGURES,
                             pairs=["HS.MM"], workers=1)
        assert other.resumed_from_checkpoint == 0

    @pytest.mark.parametrize("owner", ["run_jobs", "caller"])
    def test_interrupt_cancels_the_queued_jobs(self, owner):
        # Sixteen jobs held 0.5 s each on two workers need eight rounds
        # (4 s).  After an interrupt only the running jobs may finish:
        # the two on workers and the few the executor already queued
        # for them, at most four rounds.  Jobs the pool has not started
        # are cancelled, whether run_jobs or the caller owns the pool.
        jobs = [tiny_job(f"j{seed}", seed=seed) for seed in range(16)]
        faults.install_faults([
            faults.FaultSpec(kind="hang", label="*", fail_attempts=99,
                             hang_seconds=0.5),
            faults.FaultSpec(kind="interrupt", after_results=1)])
        start = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                if owner == "caller":
                    with WorkerPool(2) as pool:
                        run_jobs(jobs, pool=pool)
                else:
                    run_jobs(jobs, workers=2)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert time.perf_counter() - start < 3.0
        assert multiprocessing.active_children() == []
