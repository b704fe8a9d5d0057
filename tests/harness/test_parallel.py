"""Tests for the parallel batch runner."""

import dataclasses
import json
import os
import threading
import time
import warnings

import pytest

import repro.harness.parallel as parallel_module
from repro.engine.config import GpuConfig
from repro.harness.parallel import (
    DEFAULT_MAX_EVENTS,
    Job,
    WorkerPool,
    expected_cost,
    job_from_dict,
    job_to_dict,
    pair_jobs,
    run_jobs,
)
from repro.harness.result_cache import ResultCache, cost_key, job_key
from repro.harness.supervision import (
    RetryPolicy,
    SupervisionPolicy,
    SupervisionStats,
)

SCALE = 0.05


def tiny_job(label, pair="HS.MM", policy="baseline", seed=0,
             max_events=DEFAULT_MAX_EVENTS):
    return Job(label=label, names=tuple(pair.split(".")),
               config=GpuConfig.baseline(num_sms=2).with_policy(policy),
               scale=SCALE, warps_per_sm=2, seed=seed,
               max_events=max_events)


class TestJobConstruction:
    def test_job_requires_names(self):
        with pytest.raises(ValueError):
            Job(label="x", names=(), config=GpuConfig.baseline())

    def test_pair_jobs_grid(self):
        configs = {"base": GpuConfig.baseline(),
                   "dws": GpuConfig.baseline().with_policy("dws")}
        jobs = pair_jobs(["HS.MM", "FFT.HS"], configs, scale=SCALE)
        assert len(jobs) == 4
        assert {j.label for j in jobs} == {
            "HS.MM/base", "HS.MM/dws", "FFT.HS/base", "FFT.HS/dws",
        }

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            run_jobs([tiny_job("same"), tiny_job("same")], workers=1)


class TestJobSerialization:
    def job(self):
        config = (GpuConfig.baseline(num_sms=2).with_policy("dwspp")
                  .with_l2_tlb_entries(512).with_walker_count(8))
        return Job(label="pair/cfg", names=("HS", "MM"), config=config,
                   scale=0.25, warps_per_sm=2, seed=3, max_events=12345)

    def test_roundtrip_preserves_identity(self):
        job = self.job()
        clone = job_from_dict(job_to_dict(job))
        assert clone == job
        # The property the serve manifest actually relies on: the clone
        # addresses the same cache entry.
        assert job_key(clone) == job_key(job)

    def test_dict_is_json_portable(self):
        job = self.job()
        wire = json.loads(json.dumps(job_to_dict(job)))
        assert job_from_dict(wire) == job

    def test_malformed_input_raises_cleanly(self):
        # Manifests and bundles are input from outside the program:
        # every malformation is a ValueError, never a KeyError/TypeError.
        with pytest.raises(ValueError):
            job_from_dict({"label": "x"})
        broken = job_to_dict(self.job())
        broken["scale"] = "not-a-number"
        with pytest.raises(ValueError):
            job_from_dict(broken)
        broken = job_to_dict(self.job())
        del broken["config"]["l2_tlb"]
        with pytest.raises(ValueError):
            job_from_dict(broken)
        with pytest.raises(ValueError):
            job_from_dict(["not", "a", "dict"])


class TestSerialExecution:
    def test_results_keyed_by_label(self):
        results = run_jobs([tiny_job("a"), tiny_job("b", policy="dws")],
                           workers=1)
        assert set(results) == {"a", "b"}
        for r in results.values():
            assert r.total_cycles > 0
            assert all(t.completed_executions >= 1
                       for t in r.tenants.values())

    def test_single_job_shortcut(self):
        results = run_jobs([tiny_job("solo")], workers=8)
        assert "solo" in results


class TestParallelMatchesSerial:
    def test_process_pool_reproduces_serial_results(self):
        # Same results, returned in caller order.
        jobs = [tiny_job("a"), tiny_job("b", pair="FFT.HS"),
                tiny_job("c", seed=1)]
        serial = run_jobs(jobs, workers=1)
        try:
            parallel = run_jobs(jobs, workers=2)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert list(parallel) == ["a", "b", "c"]
        for label in serial:
            assert (serial[label].total_cycles
                    == parallel[label].total_cycles)
            assert (serial[label].tenants[0].instructions
                    == parallel[label].tenants[0].instructions)


class TestMaxEvents:
    def test_max_events_reaches_the_simulator(self, tmp_path):
        # An impossible budget must trip the manager's exhaustion guard
        # — proof the field actually threads through run_job.
        cache = ResultCache(tmp_path)
        stats = SupervisionStats()
        assert run_jobs([tiny_job("cut", max_events=10)], workers=1,
                        cache=cache, stats=stats) == {}
        assert "EventBudgetExceeded" in stats.quarantined["cut"]
        assert "max_events" in stats.quarantined["cut"]
        assert stats.attempts["cut"] == 1
        assert cache.stores == 0 and cache.misses == 1

    def test_exhausted_budget_is_not_retried(self):
        # The same job with the same budget exhausts it again, so the
        # first exhaustion quarantines: one attempt, no retry.
        stats = SupervisionStats()
        results = run_jobs([tiny_job("cut", max_events=100)], workers=1,
                           supervision=SupervisionPolicy.default(),
                           stats=stats)
        assert results == {}
        assert stats.attempts == {"cut": 1}
        assert stats.retries == 0
        assert stats.failures == {"job": 1}

    def test_max_events_leaves_job_key(self):
        # A run that exhausts its budget raises rather than returning a
        # truncated result, so the budget is an execution limit like
        # max_rss_mb: budget variants share one cache entry.
        job = tiny_job("a")
        assert job_key(tiny_job("a", max_events=1000)) == job_key(job)
        assert (job_key(dataclasses.replace(job, max_rss_mb=64.0))
                == job_key(job))

    def test_session_jobs_carry_session_max_events(self):
        from repro.harness.runner import Session

        session = Session(scale=SCALE, warps_per_sm=2, max_events=1234)
        job = session.job_for(("HS", "MM"), GpuConfig.baseline(num_sms=2))
        assert job.max_events == 1234


class TestIncrementalStores:
    def test_results_persist_up_to_a_mid_sweep_crash(self, tmp_path,
                                                     monkeypatch):
        # Completed jobs must already be on disk when a later job dies.
        cache = ResultCache(tmp_path)
        real_run_job = parallel_module.run_job

        def fail_on_b(job, validate=False):
            if job.label == "b":
                raise RuntimeError("worker died")
            return real_run_job(job, validate)

        monkeypatch.setattr(parallel_module, "run_job", fail_on_b)
        jobs = [tiny_job("a"), tiny_job("b", pair="FFT.HS")]
        stats = SupervisionStats()
        once = SupervisionPolicy(retry=RetryPolicy(max_attempts=1))
        assert set(run_jobs(jobs, workers=1, cache=cache, supervision=once,
                            stats=stats)) == {"a"}
        assert "RuntimeError: worker died" in stats.quarantined["b"]
        assert stats.attempts["b"] == 1
        assert cache.stores == 1  # "a" survived the crash
        assert cache.misses == 2

        monkeypatch.setattr(parallel_module, "run_job", real_run_job)
        rerun = run_jobs(jobs, workers=1, cache=cache)
        assert cache.hits == 1  # only "b" was re-simulated
        assert set(rerun) == {"a", "b"}


class TestCostModel:
    def test_recorded_cost_beats_heuristic(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job("a")
        cache.record_cost(cost_key(job), 42.0)
        assert expected_cost(job, cache) == pytest.approx(42.0)

    def test_cold_cache_falls_back_to_footprint(self, tmp_path):
        cache = ResultCache(tmp_path)
        light = tiny_job("l", pair="HS.MM")
        heavy = tiny_job("h", pair="GUPS.MM")  # GUPS: huge footprint
        assert expected_cost(heavy, cache) > expected_cost(light, cache)
        assert expected_cost(light, None) > 0

    def test_config_variants_share_one_cost_bucket(self):
        assert (cost_key(tiny_job("a", policy="baseline"))
                == cost_key(tiny_job("b", policy="dws")))
        assert (cost_key(tiny_job("a"))
                != cost_key(tiny_job("a", pair="FFT.HS")))

    def test_run_jobs_records_costs(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = tiny_job("a")
        run_jobs([job], workers=1, cache=cache)
        assert cache.expected_cost(cost_key(job)) is not None


class TestWorkerPool:
    def test_pool_reused_across_run_jobs_calls(self):
        jobs1 = [tiny_job("a"), tiny_job("b", pair="FFT.HS")]
        jobs2 = [tiny_job("c", seed=1), tiny_job("d", policy="dws")]
        serial = run_jobs(jobs1 + jobs2, workers=1)
        try:
            with WorkerPool(2) as pool:
                first = run_jobs(jobs1, workers=2, pool=pool)
                second = run_jobs(jobs2, workers=2, pool=pool)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        combined = {**first, **second}
        for label in serial:
            assert (combined[label].total_cycles
                    == serial[label].total_cycles)

    def test_shutdown_is_idempotent(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()

    def test_kill_reaps_terminated_workers(self):
        pool = WorkerPool(2)
        try:
            # Workers spawn lazily on first submit: run a job to get a
            # live pool before killing it.
            run_jobs([tiny_job("a"), tiny_job("b", pair="FFT.HS")],
                     workers=2, pool=pool)
            processes = list(pool.executor._processes.values())
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert processes
        pool.kill()
        # No zombies left behind: every terminated worker was joined
        # (exitcode set means the parent reaped it).
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None

    def test_kill_waits_for_the_executor_to_reap(self, monkeypatch):
        """kill() must not race the executor for its workers' exits.

        Once a terminated worker's sentinel fires, the executor's
        management thread reaps every worker itself.  A second
        ``waitpid`` on the same child from kill()'s thread gets ECHILD,
        which ``multiprocessing`` reads as "not started yet", so a dead
        worker looked alive and kill() warned that it survived.  This
        forces that order: the management thread reaps each worker
        first and records its exit status late, and any other thread's
        ``waitpid`` on a worker waits until that reap has happened.
        """
        pool = WorkerPool(2)
        try:
            run_jobs([tiny_job("a"), tiny_job("b", pair="FFT.HS")],
                     workers=2, pool=pool)
            executor = pool.executor
            processes = list(executor._processes.values())
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        manager = executor._executor_manager_thread
        reaped = {process.pid: threading.Event() for process in processes}
        real_waitpid = os.waitpid

        def waitpid(pid, options):
            if pid not in reaped:
                return real_waitpid(pid, options)
            if threading.current_thread() is not manager:
                reaped[pid].wait(timeout=5.0)
                return real_waitpid(pid, options)
            result = real_waitpid(pid, options)
            if result[0] == pid:
                reaped[pid].set()
                time.sleep(0.2)  # reaped; exit status not yet recorded
            return result

        monkeypatch.setattr(os, "waitpid", waitpid)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pool.kill()
        assert not [w for w in caught if "survived" in str(w.message)]
        for process in processes:
            assert not process.is_alive()
            assert process.exitcode is not None

    def test_kill_then_reuse_respawns_fresh_pool(self):
        pool = WorkerPool(2)
        try:
            jobs = [tiny_job("a")]
            first = run_jobs(jobs, workers=2, pool=pool)
            pool.kill()
            second = run_jobs(jobs, workers=2, pool=pool)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        finally:
            pool.shutdown()
        assert first["a"].total_cycles == second["a"].total_cycles

    def test_kill_without_executor_is_a_noop(self):
        WorkerPool(2).kill()  # never spun up: nothing to terminate
