"""Supervision policy for long-running campaign execution.

A full-paper regeneration is a multi-hour, parallel, disk-caching batch
job; at that shape a single crashed worker, hung simulation, or flaky
transient must not take down (or silently poison) the whole campaign.
This module defines the *policy* side of fault tolerance — what to do
when a job fails — while :mod:`repro.harness.parallel` implements the
*mechanism* (detecting worker death, respawning the pool, re-enqueueing
in-flight work).

Concepts
--------

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter.  Jitter is derived from a hash of the job label
  and attempt number, not a live RNG, so two runs of the same failing
  campaign schedule identically (and tests are reproducible).
* **Deadline / watchdog** — ``job_deadline`` bounds one attempt's wall
  clock from when a worker starts it.  An attempt that exceeds it is
  presumed hung; the executor's crash domain is torn down and the job
  re-enters the queue as a failure (it still only gets
  ``max_attempts`` tries in total).
* **Quarantine** — a job that exhausts its attempts is *quarantined*:
  recorded with its final error, excluded from results, never retried
  again this run.  One poison job cannot wedge a campaign.
* **Crash-domain accounting** — :class:`SupervisionStats` tallies
  failures by where they happened (``job`` exception, ``worker`` death,
  ``timeout``, ``cache`` corruption) so a degraded run is diagnosable
  from its summary line alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

#: Crash-domain labels used by :class:`SupervisionStats.failures`.
DOMAIN_JOB = "job"          # the job body raised an ordinary exception
DOMAIN_WORKER = "worker"    # a worker process died (BrokenProcessPool)
DOMAIN_TIMEOUT = "timeout"  # an attempt exceeded its wall-clock deadline
DOMAIN_CACHE = "cache"      # a cache entry failed integrity checks
DOMAIN_VALIDATE = "validate"  # a completed result failed validation
DOMAIN_RESOURCE = "resource"  # a job breached its resource budget


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and deterministic jitter."""

    #: Total attempts per job (first try included).  1 disables retries.
    max_attempts: int = 3
    #: Backoff before the first retry, in seconds.
    base_delay: float = 0.05
    #: Ceiling on any single backoff delay, in seconds.
    max_delay: float = 2.0
    #: Fraction of the delay added as deterministic jitter (0 disables).
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def delay_for(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based) of ``key``.

        Exponential in the attempt number, capped at ``max_delay``, plus
        a jitter fraction derived from ``sha256(key, attempt)`` — stable
        across runs, different across jobs, so a herd of failed jobs
        does not retry in lockstep.
        """
        if attempt < 1:
            return 0.0
        delay = min(self.base_delay * (2.0 ** (attempt - 1)), self.max_delay)
        if self.jitter and delay > 0:
            digest = hashlib.sha256(f"{key}#{attempt}".encode()).digest()
            fraction = digest[0] / 255.0  # deterministic in [0, 1]
            delay += delay * self.jitter * fraction
        return min(delay, self.max_delay * (1 + self.jitter))


@dataclass(frozen=True)
class SupervisionPolicy:
    """Everything the executor needs to know about failure handling."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Wall-clock seconds one attempt may run, from when a worker starts
    #: it, before the watchdog calls it hung and tears the worker pool
    #: down.  ``None`` disables the watchdog.  In-process execution
    #: cannot preempt a hung simulation, so deadlines are only enforced
    #: under a process pool.
    job_deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError("job_deadline must be positive")

    @classmethod
    def default(cls) -> "SupervisionPolicy":
        return cls()


@dataclass
class SupervisionStats:
    """What fault handling actually happened during one execution."""

    #: Re-executions caused by that job's own failure (exception,
    #: presumed-culprit worker death, or deadline overrun).
    retries: int = 0
    #: Innocent in-flight jobs re-enqueued because a *sibling* tore the
    #: pool down; their attempt budget is not charged.
    requeues: int = 0
    #: Attempts presumed hung by the watchdog.
    timeouts: int = 0
    #: Worker-pool teardown/respawn cycles.
    pool_respawns: int = 0
    #: True once the pool broke too often and the rest of the run went
    #: to the in-process executor.
    degraded_serial: bool = False
    #: Jobs that exhausted their attempts: label -> final error.
    quarantined: Dict[str, str] = field(default_factory=dict)
    #: Failure tally by crash domain (job/worker/timeout/cache).
    failures: Dict[str, int] = field(default_factory=dict)
    #: Attempts used per job label (1 = clean first-try success).
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Forensics bundles captured for failed jobs: label -> bundle path.
    forensics: Dict[str, str] = field(default_factory=dict)

    def record_failure(self, domain: str) -> None:
        self.failures[domain] = self.failures.get(domain, 0) + 1

    @property
    def ok(self) -> bool:
        """True when every job ultimately produced a result."""
        return not self.quarantined

    def merge_cache_corruption(self, corrupt_entries: int) -> None:
        """Fold cache-integrity failures into the crash-domain tally."""
        if corrupt_entries > 0:
            self.failures[DOMAIN_CACHE] = (
                self.failures.get(DOMAIN_CACHE, 0) + corrupt_entries)

    def summary(self) -> str:
        """One line an operator can read off a degraded run."""
        parts = [f"retries {self.retries}", f"requeues {self.requeues}",
                 f"quarantined {len(self.quarantined)}"]
        if self.timeouts:
            parts.append(f"timeouts {self.timeouts}")
        if self.pool_respawns:
            parts.append(f"pool respawns {self.pool_respawns}")
        if self.degraded_serial:
            parts.append("degraded to serial")
        if self.forensics:
            parts.append(f"forensics bundles {len(self.forensics)}")
        if self.failures:
            domains = ", ".join(f"{k}={v}"
                                for k, v in sorted(self.failures.items()))
            parts.append(f"failures by domain: {domains}")
        return "supervision: " + ", ".join(parts)

    def to_dict(self) -> dict:
        """JSON-portable view.

        One schema, three consumers: the ``--supervision-report json``
        CLI output, the CI chaos artifact, and the serve layer's
        ``/healthz`` document all read these counters."""
        return {
            "retries": self.retries,
            "requeues": self.requeues,
            "timeouts": self.timeouts,
            "pool_respawns": self.pool_respawns,
            "degraded_serial": self.degraded_serial,
            "quarantined": dict(self.quarantined),
            "failures": dict(self.failures),
            "attempts": dict(self.attempts),
            "forensics": dict(self.forensics),
        }


#: Per-job outcome labels derived by :func:`job_outcome`.
OUTCOME_OK = "ok"
OUTCOME_RETRIED = "retried"
OUTCOME_QUARANTINED = "quarantined"


def job_outcome(stats: "SupervisionStats", label: str) -> str:
    """What ultimately happened to one supervised job.

    ``quarantined`` dominates ``retried`` (a job that burned retries and
    then died is a quarantine); a job absent from ``attempts`` is
    assumed clean (cache hits never enter the attempt ledger).  The
    serve layer's circuit breaker treats anything but ``ok`` as a
    backend failure signal — the "retry/quarantine rate" it trips on.
    """
    if label in stats.quarantined:
        return OUTCOME_QUARANTINED
    if stats.attempts.get(label, 1) > 1:
        return OUTCOME_RETRIED
    return OUTCOME_OK
