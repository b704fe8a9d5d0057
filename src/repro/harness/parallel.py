"""Multi-core execution of independent simulation jobs.

A full 45-pair, multi-policy sweep is hundreds of independent
simulations; they parallelize perfectly.  :func:`run_jobs` distributes
:class:`Job` descriptions over a process pool and returns their
:class:`~repro.tenancy.manager.RunResult` objects keyed by job label.

The scheduler echoes the paper's Dynamic Walk Stealing at the
orchestration layer: instead of a static ``pool.map`` chunk assignment
(where a worker that drew a chunk of Heavy pairs serializes the tail
while its siblings idle), jobs are submitted individually to a
``ProcessPoolExecutor`` and idle workers pull the next queued job the
moment they free up.  Three layers keep sweeps cheap:

* **Longest-expected-first ordering** — pending jobs are sorted by
  expected wall time before submission, so the heaviest simulations
  start first and cannot become the tail.  Expectations come from the
  :class:`~repro.harness.result_cache.ResultCache` cost model (an EMA of
  measured ``wall_seconds`` per :func:`~repro.harness.result_cache.cost_key`);
  on a cold cache a footprint heuristic stands in — total workload
  footprint tracks TLB-miss intensity, which tracks event count.
* **Result caching** — pass a
  :class:`~repro.harness.result_cache.ResultCache` and completed jobs
  are looked up by content hash before anything executes; only the
  misses are simulated.  Each fresh result is stored *as its future
  completes*, so a crash mid-sweep keeps every finished simulation.
* **Worker trace memoization** — each worker process keeps a
  :class:`~repro.workloads.base.TraceMemo`, so the N config variants of
  one pair regenerate their (config-independent) warp op streams once
  per worker instead of N times.

Determinism is preserved: each job is seeded independently of worker
scheduling and results are returned in caller order, so the output is
identical to a serial run (a test asserts this, cache on and off).
``workers=1`` bypasses multiprocessing entirely, which is also the safe
choice inside environments that restrict process creation.

Dispatch is always supervised, by one loop over two executors (the
process pool and an in-process one), under a
:class:`~repro.harness.supervision.SupervisionPolicy`: failed attempts
retry with exponential backoff, a dead worker process
(``BrokenProcessPool``) tears the pool down, respawns it and
re-enqueues the in-flight jobs, an attempt that overruns its
wall-clock deadline is presumed hung and killed, poison jobs are
quarantined after a bounded number of attempts, and repeated pool
failures switch the rest of the run to the in-process executor.  The
failure modes themselves are exercised deterministically by
:mod:`repro.harness.faults` and ``tests/harness/test_chaos.py``.

Every simulation in the program, not only the jobs dispatched here, is
built, run and dropped by :func:`simulate`, the one place that
constructs a :class:`~repro.tenancy.manager.MultiTenantManager`.
:func:`run_job` is the Job path on top of it: memoized suite tenants,
the job's budgets, validation and forensics.  Workers, serial
``run_jobs``, serve, seed studies and crash replay all run jobs through
it.

The static ``pool.map`` scheduler this replaced lives on in git history
(commit ``84c30fb``); ``benchmarks/bench_sweep_throughput.py`` runs that
tree in a child process as its reference.
"""

from __future__ import annotations

import dataclasses
import heapq
import os
import time
import warnings
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing.connection import wait as wait_for_exit
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.config import GpuConfig, config_from_dict
from repro.engine.simulator import EventBudgetExceeded
from repro.harness import faults, resources
from repro.harness.resources import ResourceBudgetExceeded, RssSampler
from repro.harness.result_cache import ResultCache, cost_key, job_key
from repro.harness.supervision import (
    DOMAIN_JOB,
    DOMAIN_RESOURCE,
    DOMAIN_TIMEOUT,
    DOMAIN_VALIDATE,
    DOMAIN_WORKER,
    SupervisionPolicy,
    SupervisionStats,
)
from repro.harness.validate import ResultValidationError, validate_result
from repro.tenancy.manager import (
    DEFAULT_MAX_EVENTS,
    MultiTenantManager,
    RunResult,
    collector_quiet,
)
from repro.tenancy.tenant import Tenant
from repro.workloads.base import MemoizedWorkload, TraceMemo
from repro.workloads.suite import BENCHMARKS, benchmark

#: Pseudo-seconds per footprint byte for the cold-cache cost heuristic.
#: The absolute value is irrelevant (only the ordering matters); it is
#: sized so unknown Heavy pairs sort ahead of measured Light ones, which
#: is the conservative choice for tail latency.
_FOOTPRINT_COST_PER_BYTE = 1e-8


@dataclass(frozen=True)
class Job:
    """One independent simulation: named workloads under one config."""

    label: str
    names: Tuple[str, ...]
    config: GpuConfig
    scale: float = 1.0
    warps_per_sm: int = 4
    seed: int = 0
    #: Event budget.  An execution constraint, not a result-determining
    #: input — a run that exhausts it raises instead of returning a
    #: truncated result — so it is excluded from
    #: :func:`~repro.harness.result_cache.job_key` and checked against a
    #: stored result's ``events_fired`` on lookup instead.
    max_events: int = DEFAULT_MAX_EVENTS
    #: Peak-RSS budget in MB; ``None`` disables enforcement.  An
    #: execution constraint, not a result-determining input — it is
    #: deliberately excluded from :func:`~repro.harness.result_cache.job_key`
    #: so budgeted and unbudgeted runs share cache entries.
    max_rss_mb: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("job needs at least one workload name")
        if self.max_events <= 0:
            raise ValueError("max_events must be positive")
        if self.max_rss_mb is not None and self.max_rss_mb <= 0:
            raise ValueError("max_rss_mb must be positive")


def job_to_dict(job: Job) -> dict:
    """JSON-portable description of one :class:`Job`.

    The serve layer checkpoints pending jobs across restarts and
    forensics bundles record the failed job, so the whole description —
    config included — must round-trip through plain JSON.
    :func:`job_from_dict` is the inverse.
    """
    return {
        "label": job.label,
        "names": list(job.names),
        "config": dataclasses.asdict(job.config),
        "scale": job.scale,
        "warps_per_sm": job.warps_per_sm,
        "seed": job.seed,
        "max_events": job.max_events,
        "max_rss_mb": job.max_rss_mb,
    }


def job_from_dict(data: dict) -> Job:
    """Rebuild a :class:`Job` from :func:`job_to_dict` output.

    The input comes from outside the program (a manifest, a bundle), so
    anything malformed raises ``ValueError``: callers treat it as lost
    work or an unreadable file, never as a crash.
    """
    try:
        return Job(
            label=str(data["label"]),
            names=tuple(str(n) for n in data["names"]),
            config=config_from_dict(data["config"]),
            scale=float(data["scale"]),
            warps_per_sm=int(data["warps_per_sm"]),
            seed=int(data["seed"]),
            max_events=int(data["max_events"]),
            # Absent in older manifests and bundles; missing means none.
            max_rss_mb=(None if data.get("max_rss_mb") is None
                        else float(data["max_rss_mb"])),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"malformed job description: {exc!r}") from None


def pair_jobs(pairs: Sequence[str], configs: Dict[str, GpuConfig],
              scale: float = 1.0, warps_per_sm: int = 4,
              seed: int = 0, max_events: int = DEFAULT_MAX_EVENTS,
              max_rss_mb: Optional[float] = None) -> list:
    """The common grid: every pair under every labeled config."""
    jobs = []
    for pair in pairs:
        names = tuple(pair.split("."))
        for config_label, config in configs.items():
            jobs.append(Job(
                label=f"{pair}/{config_label}", names=names, config=config,
                scale=scale, warps_per_sm=warps_per_sm, seed=seed,
                max_events=max_events, max_rss_mb=max_rss_mb,
            ))
    return jobs


def simulate(config: GpuConfig, tenants: Sequence[Tenant], *,
             warps_per_sm: int, seed: int, max_events: int,
             min_executions: int = 1, label: Optional[str] = None,
             profiler=None, max_rss_mb: Optional[float] = None) -> RunResult:
    """Build, run and drop one simulation: the program's one
    :class:`MultiTenantManager`.

    The graph is built and run inside :func:`collector_quiet` and
    dropped before its young pass frees it.  ``profiler`` (an
    :class:`~repro.engine.profile.EngineProfiler`) is attached around the
    run.  With ``max_rss_mb`` the run is sampled by an
    :class:`RssSampler` while the graph is alive: the budget is checked
    before the run starts (a worker already over budget must not take on
    more work), by the sampler's background thread, and after the run.
    A breach raises :class:`ResourceBudgetExceeded` carrying what
    forensics need: ``resources`` (the sampler's snapshot) and ``stats``
    (the finished run's, or ``None``).
    """
    with collector_quiet():
        manager = MultiTenantManager(
            config, tenants, warps_per_sm=warps_per_sm, seed=seed,
            max_events=max_events, min_executions=min_executions,
            label=label)
        if max_rss_mb is None:
            result = _run(manager, profiler)
        else:
            result = _run_within_rss_budget(manager, profiler, max_rss_mb)
        del manager  # unreachable before the scope's young pass
    return result


def _run(manager: MultiTenantManager, profiler) -> RunResult:
    if profiler is None:
        return manager.run()
    with profiler.attach(manager.sim):
        return manager.run()


def _run_within_rss_budget(manager: MultiTenantManager, profiler,
                           max_rss_mb: float) -> RunResult:
    label = manager.label
    sampler = RssSampler(label)
    result: Optional[RunResult] = None
    try:
        with sampler:
            resources.check_rss_budget(label, max_rss_mb, sampler)
            result = _run(manager, profiler)
        resources.check_rss_budget(label, max_rss_mb, sampler)
    except ResourceBudgetExceeded as exc:
        exc.resources = sampler.snapshot()
        exc.stats = result.stats if result is not None else None
        raise
    return result


#: One memo per process: in a worker it lives for the pool's lifetime,
#: so every job the worker steals shares generated traces; in the parent
#: (``workers=1``) it serves the serial path the same way.
_TRACE_MEMO = TraceMemo(max_entries=32)


def run_job(job: Job, validate: bool = False) -> RunResult:
    """Run one :class:`Job`: the path of campaign workers, serial
    :func:`run_jobs`, serve, seed studies and crash replay.

    Tenants are suite benchmarks whose traces come from the process's
    memo; the job's event and RSS budgets apply.  ``validate`` checks the
    result with :func:`~repro.harness.validate.validate_result` and
    raises :class:`ResultValidationError` on a violation.  A validation
    failure or a budget breach is bundled when forensics are configured,
    in whichever process ran the job; the bundle path rides back on the
    (picklable) exception.
    """
    tenants = [Tenant(i, MemoizedWorkload(benchmark(name, scale=job.scale),
                                          _TRACE_MEMO))
               for i, name in enumerate(job.names)]
    try:
        result = simulate(
            job.config, tenants, warps_per_sm=job.warps_per_sm,
            seed=job.seed, max_events=job.max_events, label=job.label,
            max_rss_mb=job.max_rss_mb)
    except ResourceBudgetExceeded as exc:
        _capture_forensics(job, exc, exc.stats, exc.resources)
        raise
    if validate:
        report = validate_result(result)
        if not report.ok:
            error = ResultValidationError(report.violations)
            _capture_forensics(job, error, result.stats)
            raise error
    return result


def _capture_forensics(job: Job, error: BaseException,
                       stats: Optional[Dict[str, float]],
                       resources: Optional[dict] = None) -> None:
    """Bundle a failure of ``job`` when forensics are configured, and
    pin the bundle's path to ``error``.  Never masks the failure."""
    from repro.integrity import active_config, write_bundle
    config = active_config()
    if config is None or config.forensics_dir is None:
        return
    try:
        error.bundle_path = str(write_bundle(
            config.forensics_dir, error=error, job=job, integrity=config,
            stats=stats, resources=resources))
    except OSError:
        pass  # forensics must never mask the failure itself


def _execute_attempt(job: Job, attempt: int,
                     validate: bool = False) -> Tuple[str, RunResult]:
    """Supervised worker entry point: attempt number ``attempt`` (1-based).

    The fault hook sees the 0-based count of *prior* failures, so a
    ``fail_attempts=1`` fault fires on the first try and lets the retry
    succeed.  With no faults installed this is one env lookup.
    """
    faults.maybe_inject(job.label, attempt - 1)
    return job.label, run_job(job, validate)


def _describe(exc: BaseException) -> str:
    """Quarantine-message form of a failure, with its forensics bundle."""
    message = f"{type(exc).__name__}: {exc}"
    bundle = getattr(exc, "bundle_path", None)
    if bundle:
        message += f" [bundle: {bundle}]"
    return message


#: Failures that are deterministic properties of the job itself — the
#: same inputs fail the same way on retry, so supervision skips the
#: retry budget and quarantines immediately.
_NO_RETRY = (ResultValidationError, ResourceBudgetExceeded,
             EventBudgetExceeded)

#: Pool teardowns (worker death or watchdog) one run survives; past
#: this many, its remaining jobs finish in-process.
MAX_POOL_RESPAWNS = 3

#: Seconds between deadline sweeps while attempts are in flight.
WATCHDOG_INTERVAL = 0.05


def _failure_domain(exc: BaseException) -> str:
    """Crash-domain label for one attempt's failure."""
    if isinstance(exc, ResultValidationError):
        return DOMAIN_VALIDATE
    if isinstance(exc, ResourceBudgetExceeded):
        return DOMAIN_RESOURCE
    if isinstance(exc, faults.InjectedWorkerCrash):
        return DOMAIN_WORKER
    return DOMAIN_JOB


def expected_cost(job: Job, cache: Optional[ResultCache] = None) -> float:
    """Expected wall seconds of ``job`` for longest-first ordering.

    Prefers the cache's measured EMA; degrades to the footprint
    heuristic when the cost model has never seen this (names, scale,
    warps) combination.  Heuristic values are pseudo-seconds — they only
    need to *order* correctly against each other, and the per-byte scale
    deliberately over-estimates so unmeasured Heavy jobs launch early.
    """
    if cache is not None:
        measured = cache.expected_cost(cost_key(job))
        if measured is not None:
            return measured
    footprint = sum(BENCHMARKS[name].footprint_bytes
                    for name in job.names if name in BENCHMARKS)
    return footprint * job.scale * _FOOTPRINT_COST_PER_BYTE


class WorkerPool:
    """A persistent process pool reused across :func:`run_jobs` calls.

    A campaign issues several waves of jobs; recreating the pool per
    wave would throw away warm worker processes — and with them every
    worker's :class:`~repro.workloads.base.TraceMemo`.  Create one
    ``WorkerPool`` (it is a context manager), pass it as ``pool=``, and
    the executor spins up lazily on first use and survives until
    :meth:`shutdown`.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._executor: Optional[ProcessPoolExecutor] = None

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        return self._executor

    def shutdown(self) -> None:
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def kill(self) -> None:
        """Tear the pool down *now*: terminate workers, drop the executor.

        This is the supervisor's hammer for hung or crashed crash
        domains — a hung simulation never returns, so a graceful
        ``shutdown()`` would block forever.  The next ``executor``
        access respawns a fresh pool (with cold
        :class:`~repro.workloads.base.TraceMemo`\\ s — correctness is
        unaffected, the memo is a pure optimization).
        """
        if self._executor is None:
            return
        executor, self._executor = self._executor, None
        # ProcessPoolExecutor has no public "terminate the workers" API;
        # reaching into ``_processes`` is the accepted escape hatch.
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass
        # Reap what we killed: an unjoined terminated child stays a
        # zombie until the parent waits on it, and a chaos run respawns
        # pools repeatedly — leaking one zombie per respawn.  Exactly one
        # thread may reap.  Once a dead worker's sentinel fires, the
        # executor's management thread joins every worker itself
        # (``terminate_broken``); a second ``waitpid`` from this thread
        # would lose that race with ECHILD, which ``multiprocessing``
        # reads as "not started yet", making a reaped worker look alive.
        # Wait for that thread instead, and join the workers here only
        # when it is not running.  The wait is bounded (terminate can
        # race an uninterruptible state): a worker whose sentinel has not
        # fired by the shared deadline is logged and abandoned.
        deadline = time.monotonic() + 5.0
        manager = getattr(executor, "_executor_manager_thread", None)
        if manager is not None and manager.is_alive():
            manager.join(max(0.0, deadline - time.monotonic()))
        else:
            for process in processes:
                try:
                    process.join(max(0.0, deadline - time.monotonic()))
                except Exception:
                    pass
        sentinels = [process.sentinel for process in processes]
        stragglers = len(sentinels) - len(wait_for_exit(sentinels, timeout=0))
        if stragglers:
            warnings.warn(
                f"WorkerPool.kill: {stragglers} worker process(es) "
                "survived terminate + bounded join; abandoning them",
                RuntimeWarning, stacklevel=2)
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()


class _InProcess:
    """The executor for ``workers <= 1``, a lone pending job, and the
    rest of a run whose pool broke more than :data:`MAX_POOL_RESPAWNS`
    times.  ``submit`` runs the job in this process at once and returns
    a finished future; a ``KeyboardInterrupt`` propagates instead of
    landing in the future.  Nothing here can preempt a hung job, so
    deadlines go unenforced."""

    @staticmethod
    def submit(fn, *args) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:
            future.set_exception(exc)
        return future


def _drain(pending: Sequence[Job], pool: Optional[WorkerPool],
           policy: SupervisionPolicy, stats: SupervisionStats,
           on_result: Callable[[str, RunResult, Job], None],
           validate: bool = False) -> None:
    """The dispatch loop: every attempt of every job goes through here.

    Jobs are submitted individually, longest-expected-first, to
    ``pool`` or, when it is ``None``, to :class:`_InProcess`; results
    are consumed as they land, so an idle worker pulls the next job the
    moment it frees up.  Failure handling:

    * an attempt that raises an ordinary exception retries with backoff
      until its budget runs out, then quarantines; a deterministic
      failure (:data:`_NO_RETRY`) quarantines at once;
    * a dead worker (``BrokenProcessPool``) charges every in-flight job
      one attempt (the executor cannot attribute the crash), tears the
      pool down and respawns it;
    * an attempt past ``job_deadline`` is presumed hung: the watchdog
      kills the pool, charges the overdue job, and *requeues* the
      innocent in-flight siblings without touching their budgets;
    * more than :data:`MAX_POOL_RESPAWNS` teardowns switch the rest of
      the run to the in-process executor.

    The pool takes every ready job at once, except under a deadline:
    then at most one job per worker is in flight, so a submitted job is
    a started job and its deadline clock does not run while it queues,
    and freed slots are refilled before the finished jobs are stored.
    The in-process executor takes one job at a time, so each result is
    stored before the next job runs.
    """
    retry = policy.retry
    ready: deque = deque((job, 1) for job in pending)
    backoff: List[Tuple[float, int, Job, int]] = []  # (due, seq, job, att)
    seq = 0
    inflight: Dict[Future, Tuple[Job, int, Optional[float]]] = {}

    def fail(job: Job, attempt: int, domain: str, error: str,
             exc: Optional[BaseException] = None) -> None:
        nonlocal seq
        stats.record_failure(domain)
        stats.attempts[job.label] = attempt
        bundle = getattr(exc, "bundle_path", None) if exc is not None else None
        if bundle:
            stats.forensics[job.label] = bundle
        if isinstance(exc, _NO_RETRY) or attempt >= retry.max_attempts:
            stats.quarantined[job.label] = error
            return
        stats.retries += 1
        seq += 1
        due = time.perf_counter() + retry.delay_for(attempt, key=job.label)
        heapq.heappush(backoff, (due, seq, job, attempt + 1))

    def break_pool(culprits: Dict[str, str], domain: str) -> None:
        """Tear down + respawn; ``culprits`` (label -> error) are charged
        an attempt, innocent in-flight jobs are requeued for free."""
        nonlocal pool
        stats.pool_respawns += 1
        victims = list(inflight.values())
        inflight.clear()
        pool.kill()
        for job, attempt, _deadline in victims:
            if job.label in culprits:
                fail(job, attempt, domain, culprits[job.label])
            else:
                stats.requeues += 1
                ready.append((job, attempt))
        if stats.pool_respawns > MAX_POOL_RESPAWNS:
            stats.degraded_serial = True
            pool = None

    def top_up() -> None:
        """Submit ready jobs until the executor's in-flight cap."""
        if pool is None:
            executor, cap = _InProcess, 1
        else:
            executor = pool.executor
            cap = pool.workers if policy.job_deadline else float("inf")
        try:
            while ready and len(inflight) < cap:
                job, attempt = ready[0]
                future = executor.submit(
                    _execute_attempt, job, attempt, validate)
                ready.popleft()
                inflight[future] = (job, attempt, (
                    time.perf_counter() + policy.job_deadline
                    if policy.job_deadline else None))
        except BrokenProcessPool as exc:
            break_pool({job.label: str(exc) or "worker process died"
                        for job, _a, _d in inflight.values()}, DOMAIN_WORKER)

    try:
        while ready or backoff or inflight:
            now = time.perf_counter()
            while backoff and backoff[0][0] <= now:
                _due, _s, job, attempt = heapq.heappop(backoff)
                ready.append((job, attempt))
            top_up()
            if not inflight:
                if backoff:  # waiting out a backoff window, nothing running
                    time.sleep(max(0.0, backoff[0][0] - time.perf_counter()))
                continue

            timeouts = [WATCHDOG_INTERVAL] if policy.job_deadline else []
            if backoff:
                timeouts.append(backoff[0][0] - now)
            done, _not_done = wait(set(inflight),
                                   timeout=max(0.0, min(timeouts)) if timeouts
                                   else None,
                                   return_when=FIRST_COMPLETED)

            landed = []
            pool_broken: Optional[str] = None
            for future in done:
                job, attempt, _deadline = inflight.pop(future)
                try:
                    _label, outcome = future.result()
                except BrokenProcessPool as exc:
                    pool_broken = str(exc) or "worker process died"
                    outcome = exc
                except Exception as exc:
                    outcome = exc
                landed.append((job, attempt, outcome))
            if pool is not None and pool_broken is None:
                top_up()  # refill freed slots before storing what landed
            for job, attempt, outcome in landed:
                if isinstance(outcome, BrokenProcessPool):
                    fail(job, attempt, DOMAIN_WORKER, pool_broken)
                elif isinstance(outcome, Exception):
                    fail(job, attempt, _failure_domain(outcome),
                         _describe(outcome), exc=outcome)
                else:
                    stats.attempts[job.label] = attempt
                    outcome.retries = attempt - 1
                    on_result(job.label, outcome, job)
            if pool_broken is not None:
                # Whatever was still in flight shares the dead pool's fate:
                # charge everyone (the crash cannot be attributed).
                break_pool({job.label: pool_broken
                            for job, _a, _d in inflight.values()},
                           DOMAIN_WORKER)
                continue

            if policy.job_deadline:
                now = time.perf_counter()
                overdue = {job.label: (f"exceeded {policy.job_deadline:g}s "
                                       "job deadline (presumed hung)")
                           for job, _a, deadline in inflight.values()
                           if now >= deadline}
                if overdue:
                    stats.timeouts += len(overdue)
                    break_pool(overdue, DOMAIN_TIMEOUT)
    except BaseException:
        # Unwinding (an interrupt, SIGTERM, a failing store): cancel
        # what the pool has not started, so shutting it down waits only
        # for the running jobs instead of simulating the whole queue.
        for future in inflight:
            future.cancel()
        raise


def run_jobs(jobs: Sequence[Job],
             workers: Optional[int] = None,
             cache: Optional[ResultCache] = None,
             pool: Optional[WorkerPool] = None,
             supervision: Optional[SupervisionPolicy] = None,
             stats: Optional[SupervisionStats] = None,
             progress: Optional[Callable[[Job, RunResult], None]] = None,
             validate: bool = False,
             ) -> Dict[str, RunResult]:
    """Run every job; returns results keyed by job label.

    ``workers`` defaults to the CPU count; 1 runs serially in-process.
    ``cache`` short-circuits jobs whose results are already on disk;
    fresh results (and their wall-time cost observations) are stored as
    each one completes.  ``pool`` reuses a :class:`WorkerPool` across
    calls instead of spinning up a fresh executor.  Duplicate labels are
    rejected up front (silent overwrites would make missing-result bugs
    invisible).

    Execution is supervised by ``supervision`` (default
    :class:`~repro.harness.supervision.SupervisionPolicy()`): failed
    attempts retry with backoff, dead workers respawn the pool, hung
    attempts are killed at the deadline, and jobs that exhaust their
    budget are *quarantined* — recorded in ``stats`` (a
    :class:`~repro.harness.supervision.SupervisionStats`, created fresh
    unless the caller passes one to inspect) and **omitted from the
    returned dict** instead of raising mid-sweep.
    ``progress`` is invoked after each fresh result lands (and is safely
    persisted if a cache is present) — the campaign checkpoint hook.

    ``validate`` runs :func:`~repro.harness.validate.validate_result` on
    every fresh result in the process that produced it; a violation
    raises :class:`~repro.harness.validate.ResultValidationError`, which
    is quarantined without retry (deterministic failures repeat), with
    a forensics bundle when one is configured.
    Cache hits were validated when first computed and are not re-checked.
    """
    labels = [job.label for job in jobs]
    if len(set(labels)) != len(labels):
        raise ValueError("job labels must be unique")
    if workers is None:
        workers = pool.workers if pool is not None else (os.cpu_count() or 1)
    if supervision is None:
        supervision = SupervisionPolicy()
    if stats is None:
        stats = SupervisionStats()

    results: Dict[str, RunResult] = {}
    pending: List[Job] = list(jobs)
    keys: Dict[str, str] = {}
    if cache is not None:
        corrupt_before = cache.corrupt
        pending = []
        for job in jobs:
            key = keys[job.label] = job_key(job)
            cached = cache.get(key, job.max_events)
            if cached is None:
                pending.append(job)
            else:
                results[job.label] = cached
        # Quarantined cache entries recompute below; account for them
        # so degraded storage is visible in the summary.
        stats.merge_cache_corruption(cache.corrupt - corrupt_before)

    if pending:
        # Longest-expected-first: the heaviest simulations must start
        # first, or whichever worker draws one last serializes the tail.
        pending.sort(key=lambda job: expected_cost(job, cache), reverse=True)

        def on_result(label: str, result: RunResult, job: Job) -> None:
            results[label] = result
            if cache is not None:
                # Stored immediately — a crash mid-sweep keeps every
                # finished simulation — along with its cost observation.
                cache.put(keys[label], result)
                if result.wall_seconds > 0:
                    cache.record_cost(cost_key(job), result.wall_seconds)
            if progress is not None:
                progress(job, result)
            # Chaos hook: may raise an injected KeyboardInterrupt, the
            # deterministic stand-in for a mid-sweep kill -9 — strictly
            # after the result was recorded and persisted.
            faults.note_result()

        own_pool = None
        if workers <= 1 or len(pending) <= 1:
            pool = None
        elif pool is None:
            pool = own_pool = WorkerPool(workers)
        try:
            _drain(pending, pool, supervision, stats, on_result, validate)
        finally:
            if own_pool is not None:
                own_pool.shutdown()
            if cache is not None:
                cache.flush_costs()

    # Return in the caller's job order, cache hits and fresh runs alike;
    # quarantined jobs are absent (see ``stats``).
    return {label: results[label] for label in labels if label in results}
