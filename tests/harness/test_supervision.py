"""Unit tests for the supervision policy layer (no simulations)."""

import pytest

from repro.harness import faults
from repro.harness.supervision import (
    DOMAIN_CACHE,
    RetryPolicy,
    SupervisionPolicy,
    SupervisionStats,
)


class TestRetryPolicy:
    def test_delay_grows_exponentially(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=100.0, jitter=0.0)
        assert policy.delay_for(1) == pytest.approx(0.1)
        assert policy.delay_for(2) == pytest.approx(0.2)
        assert policy.delay_for(3) == pytest.approx(0.4)

    def test_delay_capped(self):
        policy = RetryPolicy(base_delay=1.0, max_delay=2.0, jitter=0.0)
        assert policy.delay_for(10) == pytest.approx(2.0)

    def test_jitter_is_deterministic_per_key(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        assert (policy.delay_for(2, key="HS/MM")
                == policy.delay_for(2, key="HS/MM"))

    def test_jitter_spreads_keys(self):
        # A herd of failed jobs must not retry in lockstep: across many
        # keys, at least two distinct delays appear.
        policy = RetryPolicy(base_delay=0.1, jitter=0.5)
        delays = {policy.delay_for(1, key=f"job{i}") for i in range(16)}
        assert len(delays) > 1
        assert all(d >= policy.base_delay for d in delays)

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.0)
        assert policy.delay_for(1, key="a") == policy.delay_for(1, key="b")

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay": -1.0},
        {"jitter": 1.5},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestSupervisionPolicy:
    def test_defaults_are_sane(self):
        policy = SupervisionPolicy.default()
        assert policy.retry.max_attempts >= 2
        assert policy.job_deadline is None

    @pytest.mark.parametrize("kwargs", [
        {"job_deadline": 0.0},
        {"job_deadline": -5.0},
    ])
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)


class TestSupervisionStats:
    def test_fresh_stats_are_ok(self):
        stats = SupervisionStats()
        assert stats.ok
        assert "retries 0" in stats.summary()

    def test_quarantine_flips_ok(self):
        stats = SupervisionStats()
        stats.quarantined["HS/MM"] = "boom"
        assert not stats.ok
        assert "quarantined 1" in stats.summary()

    def test_domains_reported(self):
        stats = SupervisionStats()
        stats.record_failure("worker")
        stats.record_failure("worker")
        stats.record_failure("timeout")
        assert stats.failures == {"worker": 2, "timeout": 1}
        assert "worker=2" in stats.summary()

    def test_cache_corruption_merged(self):
        stats = SupervisionStats()
        stats.merge_cache_corruption(2)
        stats.merge_cache_corruption(0)  # no-op
        assert stats.failures == {DOMAIN_CACHE: 2}

    def test_to_dict_round_trips_through_json(self):
        import json

        stats = SupervisionStats(retries=3, requeues=1, timeouts=1)
        stats.quarantined["a"] = "err"
        stats.attempts["a"] = 3
        parsed = json.loads(json.dumps(stats.to_dict()))
        assert parsed["retries"] == 3
        assert parsed["quarantined"] == {"a": "err"}


class TestFaultSpecs:
    def setup_method(self):
        faults.clear_faults()

    def teardown_method(self):
        faults.clear_faults()

    def test_specs_round_trip_through_environment(self):
        spec = faults.FaultSpec(kind="raise", label="HS/MM",
                                fail_attempts=2)
        faults.install_faults([spec])
        assert faults.faults_active()
        assert faults.active_specs() == (spec,)
        faults.clear_faults()
        assert not faults.faults_active()
        assert faults.active_specs() == ()

    def test_matching_is_attempt_bounded(self):
        spec = faults.FaultSpec(kind="raise", label="a", fail_attempts=2)
        assert spec.matches("a", 0)
        assert spec.matches("a", 1)
        assert not spec.matches("a", 2)   # retries eventually succeed
        assert not spec.matches("b", 0)   # other jobs untouched

    def test_wildcard_label(self):
        spec = faults.FaultSpec(kind="raise", label="*")
        assert spec.matches("anything", 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultSpec(kind="meteor")

    def test_injection_raises_on_match_only(self):
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label="a", fail_attempts=1)])
        with pytest.raises(faults.InjectedFault):
            faults.maybe_inject("a", 0)
        faults.maybe_inject("a", 1)  # retry attempt: clean
        faults.maybe_inject("b", 0)  # other job: clean

    def test_malformed_plan_is_ignored(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "{not json")
        assert faults.active_specs() == ()
        faults.maybe_inject("a", 0)  # must not raise

    def test_no_faults_is_cheap_noop(self):
        faults.maybe_inject("a", 0)
        faults.note_result()


class TestJobOutcome:
    def test_clean_job_is_ok(self):
        from repro.harness.supervision import OUTCOME_OK, job_outcome

        stats = SupervisionStats()
        stats.attempts["a"] = 1
        assert job_outcome(stats, "a") == OUTCOME_OK
        # Absent from the ledger (cache hit): also clean.
        assert job_outcome(stats, "never-ran") == OUTCOME_OK

    def test_retried_and_quarantined_ranked(self):
        from repro.harness.supervision import (OUTCOME_QUARANTINED,
                                               OUTCOME_RETRIED, job_outcome)

        stats = SupervisionStats()
        stats.attempts["r"] = 2
        stats.attempts["q"] = 3
        stats.quarantined["q"] = "boom"
        assert job_outcome(stats, "r") == OUTCOME_RETRIED
        # Quarantine dominates the retry history.
        assert job_outcome(stats, "q") == OUTCOME_QUARANTINED


class TestStatsToDict:
    def test_schema_and_json_portability(self):
        import json

        stats = SupervisionStats(retries=2, requeues=1, timeouts=1,
                                 pool_respawns=1, degraded_serial=True)
        stats.quarantined["j"] = "err"
        stats.failures["job"] = 2
        stats.attempts["j"] = 3
        stats.forensics["j"] = "/tmp/b.json"
        doc = stats.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["retries"] == 2
        assert doc["quarantined"] == {"j": "err"}
        assert doc["degraded_serial"] is True
        # Mutating the dict must not reach back into the stats.
        doc["quarantined"]["x"] = "y"
        assert "x" not in stats.quarantined
