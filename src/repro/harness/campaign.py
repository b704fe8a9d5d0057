"""Campaign scheduling: plan-then-execute across many figures at once.

Regenerating the paper is 19 figure/table experiments that *share* most
of their simulations — Figures 5, 6 and 7 all need the same
Baseline/DWS/DWS++ runs, and nearly every figure needs the same
stand-alone baselines.  Run serially, each
:class:`~repro.harness.runner.Session` loop discovers that sharing one
cache lookup at a time; run through PR-1's ``run_jobs`` per figure, the
sharing is lost entirely.  The campaign layer recovers it up front:

1. **Plan** — every requested figure runs once against a
   :class:`PlanningSession`, which *records* each simulation the figure
   would need as a :class:`~repro.harness.parallel.Job` (returning
   phantom results instead of simulating).  Identical jobs collapse
   across figures by content hash — the same dedup the on-disk
   :class:`~repro.harness.result_cache.ResultCache` uses.
2. **Execute** — only the deduplicated misses are simulated, via
   :func:`~repro.harness.parallel.run_jobs`'s work-stealing pool:
   longest-expected-first ordering from the cache's wall-time cost
   model, per-job dynamic dispatch, incremental cache stores, worker
   trace memoization.
3. **Replay** — results prime the real session's memory cache and each
   experiment runs for real, now simulating nothing.  Anything the
   planner could not foresee (ad-hoc ``run_custom`` workloads, e.g.
   Figure 14's footprint-enhanced variants) simply simulates on demand
   during replay — planning is an optimization, never a correctness
   requirement — so every figure's output is byte-identical to a plain
   serial run.

Execution is *supervised* by default (see
:mod:`repro.harness.supervision`): failed jobs retry with backoff, dead
workers respawn, hung jobs are killed at their deadline, and poison
jobs are quarantined rather than allowed to wedge the campaign.  With a
disk cache the campaign is also *restartable*: results persist as each
job completes, a :class:`CampaignManifest` checkpoint records progress
under ``<cache_dir>/campaigns/``, and SIGINT/SIGTERM flush everything
finished before the process exits — a killed campaign re-executes only
its unfinished jobs on the next run.

Entry points: :func:`plan_campaign` (inspection / dry runs) and
:func:`run_campaign` (the whole pipeline; also behind
``python -m repro campaign``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.config import GpuConfig
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.fsutil import atomic_write_json
from repro.harness.parallel import Job, WorkerPool, run_jobs
from repro.harness.report import _PAIRED
from repro.harness.reporting import ExperimentResult
from repro.harness.result_cache import CACHE_FORMAT, job_key
from repro.harness.runner import Session
from repro.harness.supervision import SupervisionPolicy, SupervisionStats
from repro.tenancy.manager import RunResult
from repro.workloads.base import Workload


class _PhantomResult:
    """Stands in for a :class:`RunResult` during the planning pass.

    Experiments compute metrics on the results they request; during
    planning only the *requests* matter, so every stat reads as 1.0 —
    positive and finite, which keeps ratios, geomeans and the
    ``> 0`` guards in every experiment on their normal paths.
    """

    total_cycles = 1
    events_fired = 0
    wall_seconds = 0.0

    def __init__(self, num_tenants: int) -> None:
        self._num_tenants = num_tenants

    @property
    def tenant_ids(self) -> List[int]:
        return list(range(self._num_tenants))

    def ipc_of(self, tenant_id: int) -> float:
        return 1.0

    def stat(self, name: str, default: float = 0.0) -> float:
        return 1.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"_PhantomResult(tenants={self._num_tenants})"


class PlanningSession(Session):
    """A session that records requested simulations instead of running.

    ``run_names`` returns phantoms and logs the job; ``run_custom``
    (ad-hoc workload objects with no content-stable description) is
    counted but not planned — those runs stay with the replay pass.
    """

    def __init__(self, like: Session) -> None:
        super().__init__(scale=like.scale, warps_per_sm=like.warps_per_sm,
                         seed=like.seed, max_events=like.max_events)
        #: job content hash -> Job, insertion-ordered (= request order)
        self.jobs: Dict[str, Job] = {}
        #: total run_names requests (dedup denominator)
        self.requested = 0
        #: run_custom requests the planner cannot describe as Jobs
        self.unplanned_custom = 0

    def run_names(self, names: Sequence[str], config: GpuConfig) -> RunResult:
        self.requested += 1
        job = self.job_for(names, config)
        self.jobs.setdefault(job_key(job), job)
        return _PhantomResult(len(names))  # type: ignore[return-value]

    def run_custom(self, label: str, workloads: Sequence[Workload],
                   config: GpuConfig) -> RunResult:
        self.unplanned_custom += 1
        return _PhantomResult(len(workloads))  # type: ignore[return-value]


def _experiment_kwargs(figure: str, pairs: Optional[Sequence[str]]) -> dict:
    """Keyword arguments for one experiment function.

    A campaign-wide pair subset only applies to the experiments that
    take an open pair list (same rule as ``repro report``); the
    table/latency/share experiments keep their paper-defined sets.
    """
    if pairs is not None and figure in _PAIRED:
        return {"pairs": list(pairs)}
    return {}


@dataclass
class FigurePlan:
    """What one figure asked for during planning."""

    figure: str
    requested: int
    job_keys: Tuple[str, ...]
    unplanned_custom: int
    error: Optional[str] = None


@dataclass
class CampaignPlan:
    """The deduplicated work list for a set of figures."""

    figures: Tuple[str, ...]
    jobs: Dict[str, Job]                  # unique jobs by content hash
    per_figure: List[FigurePlan] = field(default_factory=list)

    @property
    def requested(self) -> int:
        """Simulations the figures would request, before any dedup."""
        return sum(f.requested for f in self.per_figure)

    @property
    def unique_jobs(self) -> int:
        return len(self.jobs)

    @property
    def deduplicated(self) -> int:
        """Requests answered by another figure's (or the same figure's
        earlier) identical job."""
        return self.requested - self.unique_jobs

    @property
    def unplanned_custom(self) -> int:
        return sum(f.unplanned_custom for f in self.per_figure)

    def summary(self) -> str:
        lines = [
            f"campaign plan: {len(self.figures)} figure(s), "
            f"{self.requested} simulation request(s) -> "
            f"{self.unique_jobs} unique job(s) "
            f"({self.deduplicated} deduplicated)",
        ]
        if self.unplanned_custom:
            lines.append(
                f"  + {self.unplanned_custom} ad-hoc run(s) outside the "
                "plan (simulated during replay)")
        for fig in self.per_figure:
            note = f" [planning failed: {fig.error}]" if fig.error else ""
            custom = (f" +{fig.unplanned_custom} custom"
                      if fig.unplanned_custom else "")
            lines.append(f"  {fig.figure}: {fig.requested} request(s), "
                         f"{len(set(fig.job_keys))} unique{custom}{note}")
        return "\n".join(lines)


def _resolve_figures(figures: Optional[Sequence[str]]) -> Tuple[str, ...]:
    if figures is None:
        return tuple(ALL_EXPERIMENTS)
    unknown = [f for f in figures if f not in ALL_EXPERIMENTS]
    if unknown:
        raise ValueError(
            f"unknown experiment id(s): {', '.join(unknown)}; "
            f"known: {', '.join(ALL_EXPERIMENTS)}")
    return tuple(dict.fromkeys(figures))  # keep order, drop repeats


def plan_campaign(session: Session,
                  figures: Optional[Sequence[str]] = None,
                  pairs: Optional[Sequence[str]] = None) -> CampaignPlan:
    """Dry-run every figure against a recorder; returns the job list.

    A figure whose planning pass raises is recorded with its error and
    whatever jobs it requested before failing — the replay pass will
    still produce it correctly (missing jobs simulate on demand).
    """
    figures = _resolve_figures(figures)
    plan = CampaignPlan(figures=figures, jobs={})
    for figure in figures:
        recorder = PlanningSession(session)
        error = None
        try:
            ALL_EXPERIMENTS[figure](recorder,
                                    **_experiment_kwargs(figure, pairs))
        except Exception as exc:  # planning is best-effort by design
            error = f"{type(exc).__name__}: {exc}"
        plan.per_figure.append(FigurePlan(
            figure=figure, requested=recorder.requested,
            job_keys=tuple(recorder.jobs),
            unplanned_custom=recorder.unplanned_custom, error=error,
        ))
        for key, job in recorder.jobs.items():
            plan.jobs.setdefault(key, job)
    return plan


def campaign_key(session: Session, figures: Sequence[str],
                 pairs: Optional[Sequence[str]]) -> str:
    """Content hash identifying one campaign's checkpoint lineage.

    Same recipe as :func:`~repro.harness.result_cache.job_key`: the
    canonical JSON of everything that determines the work list, so a
    changed figure set, pair subset or fidelity setting starts a fresh
    checkpoint instead of resuming a stale one.
    """
    payload = {
        "format": CACHE_FORMAT,
        "figures": list(figures),
        "pairs": None if pairs is None else list(pairs),
        "scale": session.scale,
        "warps_per_sm": session.warps_per_sm,
        "seed": session.seed,
        "max_events": session.max_events,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


MANIFEST_FORMAT = 1


class CampaignManifest:
    """Crash-safe progress checkpoint for one campaign.

    Lives at ``<cache_dir>/campaigns/<campaign_key>.json`` and records
    which planned jobs have completed (by content hash) and which were
    quarantined.  The result *payloads* live in the
    :class:`~repro.harness.result_cache.ResultCache`; the manifest is
    the restartable-batch-job ledger on top: an interrupted campaign
    reports exactly how much of it was already done, and a resumed one
    re-executes only the unfinished jobs.  Every save is an atomic
    whole-file replace, so a kill mid-checkpoint leaves the previous
    consistent checkpoint in place.
    """

    def __init__(self, path: Path, key: str) -> None:
        self.path = Path(path)
        self.key = key
        self.completed: Dict[str, str] = {}    # job key -> label
        self.quarantined: Dict[str, str] = {}  # label -> final error

    @classmethod
    def load(cls, path: Path, key: str) -> "CampaignManifest":
        """Read a checkpoint back; anything invalid starts fresh."""
        manifest = cls(path, key)
        try:
            raw = json.loads(Path(path).read_text())
            if (raw.get("format") == MANIFEST_FORMAT
                    and raw.get("campaign_key") == key):
                manifest.completed = {str(k): str(v) for k, v in
                                      raw.get("completed", {}).items()}
                manifest.quarantined = {str(k): str(v) for k, v in
                                        raw.get("quarantined", {}).items()}
        except (OSError, ValueError, TypeError, AttributeError):
            pass  # corrupt/missing checkpoint: resume from the cache alone
        return manifest

    def mark_completed(self, job_hash: str, label: str) -> None:
        self.completed[job_hash] = label
        self.save()

    def save(self) -> None:
        try:
            atomic_write_json(self.path, {
                "format": MANIFEST_FORMAT,
                "campaign_key": self.key,
                "completed": self.completed,
                "quarantined": self.quarantined,
            }, sort_keys=True, indent=1)
        except OSError:
            pass  # checkpointing is best-effort; the cache still resumes


@contextmanager
def _flush_signals():
    """Convert SIGTERM to ``KeyboardInterrupt`` for the guarded block.

    SIGINT already raises ``KeyboardInterrupt``; routing SIGTERM the
    same way means an orchestrator's polite kill unwinds through the
    same ``finally`` blocks — incremental cache stores are already on
    disk, the cost model and checkpoint manifest get flushed — instead
    of dying mid-write.  Outside the main thread (or where signals are
    unavailable) this is a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    def _raise(_signum, _frame):
        if multiprocessing.parent_process() is not None:
            # Forked pool workers inherit this handler; when the
            # supervisor terminates one (hung or crashed sibling), it
            # must just die — mimic default SIGTERM, 128+15 — rather
            # than spray a KeyboardInterrupt traceback over stderr.
            os._exit(143)
        raise KeyboardInterrupt("terminated")
    try:
        previous = signal.signal(signal.SIGTERM, _raise)
    except (ValueError, OSError):  # non-main interpreter contexts
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@dataclass
class CampaignReport:
    """Everything one campaign run produced."""

    plan: CampaignPlan
    results: Dict[str, ExperimentResult]   # figure id -> rows
    job_results: Dict[str, RunResult]      # job label -> result
    cache_hits: int
    simulated: int
    sim_wall_seconds: float                # sum of per-job wall times
    elapsed_seconds: float                 # end-to-end, this process
    #: fault handling that happened during execution
    supervision: SupervisionStats = field(default_factory=SupervisionStats)
    #: figures whose replay raised: figure id -> error (their rows are
    #: missing from ``results``)
    figure_errors: Dict[str, str] = field(default_factory=dict)
    #: planned jobs already checkpoint-complete from an earlier
    #: (interrupted) run of this same campaign
    resumed_from_checkpoint: int = 0

    @property
    def quarantined(self) -> Dict[str, str]:
        return self.supervision.quarantined

    @property
    def ok(self) -> bool:
        """True when every job ran and every figure replayed."""
        return not self.quarantined and not self.figure_errors

    def failure_summary(self) -> str:
        """Operator-facing digest of what ultimately failed."""
        lines = []
        for label, error in sorted(self.quarantined.items()):
            lines.append(f"  quarantined job {label}: {error}")
        for figure, error in sorted(self.figure_errors.items()):
            lines.append(f"  figure {figure} failed to replay: {error}")
        if not lines:
            return "campaign completed with no failures"
        return "campaign failures:\n" + "\n".join(lines)

    def summary(self) -> str:
        lines = [self.plan.summary()]
        if self.resumed_from_checkpoint:
            lines.append(
                f"resumed: {self.resumed_from_checkpoint} job(s) already "
                "complete in this campaign's checkpoint")
        lines.append(
            f"executed: {self.simulated} simulation(s), "
            f"{self.cache_hits} cache hit(s); "
            f"simulation wall time {self.sim_wall_seconds:.2f}s, "
            f"campaign elapsed {self.elapsed_seconds:.2f}s")
        degraded = (self.supervision.retries or self.supervision.requeues
                    or self.supervision.timeouts
                    or self.supervision.pool_respawns
                    or not self.supervision.ok)
        if degraded:
            lines.append(self.supervision.summary())
        if not self.ok:
            lines.append(self.failure_summary())
        return "\n".join(lines)


def run_campaign(session: Session,
                 figures: Optional[Sequence[str]] = None,
                 pairs: Optional[Sequence[str]] = None,
                 workers: Optional[int] = None,
                 pool: Optional[WorkerPool] = None,
                 supervision: Optional[SupervisionPolicy] = None,
                 max_rss_mb: Optional[float] = None) -> CampaignReport:
    """Plan, execute and replay a set of figures through one session.

    ``session`` supplies the fidelity settings and (optionally) the disk
    cache; ``workers``/``pool`` control the work-stealing executor.  The
    figures' outputs are byte-identical to running them serially through
    the same session — the campaign only changes *when and where* the
    simulations happen.

    Execution runs under ``supervision`` (default
    :meth:`SupervisionPolicy.default`: 3 attempts with backoff, no
    deadline): transient failures retry, dead workers respawn, poison
    jobs quarantine.  A quarantined job's figures replay on a
    best-effort basis — any that re-raise are recorded in
    ``report.figure_errors`` instead of aborting the rest;
    ``report.ok`` says whether anything failed.

    With a disk cache, progress checkpoints to a
    :class:`CampaignManifest` as each job lands, and SIGTERM/SIGINT
    flush finished state before unwinding — re-running the same
    campaign afterwards re-executes only the unfinished jobs.

    ``max_rss_mb`` applies a per-job peak-RSS budget (see
    :mod:`repro.harness.resources`) to every executed job; a breach is
    a no-retry quarantine with forensics.  The budget is an execution
    constraint, not a result input — it does not change job identity,
    so budgeted and unbudgeted campaigns share cache entries.
    """
    start = time.perf_counter()
    plan = plan_campaign(session, figures, pairs)

    cache = session.disk_cache
    hits_before = cache.hits if cache is not None else 0
    # Job labels may collide across figures (label is presentation, the
    # content hash is identity); relabel uniquely for run_jobs.
    unique_jobs = []
    seen_labels = set()
    for key, job in plan.jobs.items():
        label = job.label
        if label in seen_labels:
            label = f"{job.label}#{key[:8]}"
        seen_labels.add(label)
        unique_jobs.append((key, dataclasses.replace(
            job, label=label,
            max_rss_mb=max_rss_mb if max_rss_mb is not None
            else job.max_rss_mb,
        )))
    key_by_label = {job.label: key for key, job in unique_jobs}

    manifest: Optional[CampaignManifest] = None
    resumed = 0
    if cache is not None:
        ckey = campaign_key(session, plan.figures, pairs)
        manifest = CampaignManifest.load(
            cache.root / "campaigns" / f"{ckey}.json", ckey)
        resumed = sum(1 for key, _ in unique_jobs
                      if key in manifest.completed)

    stats = SupervisionStats()

    def checkpoint(job: Job, _result: RunResult) -> None:
        if manifest is not None:
            manifest.mark_completed(key_by_label[job.label], job.label)

    try:
        with _flush_signals():
            executed = run_jobs([job for _, job in unique_jobs],
                                workers=workers, cache=cache, pool=pool,
                                supervision=supervision, stats=stats,
                                progress=checkpoint, validate=True)
    except KeyboardInterrupt:
        # Finished results are already on disk (incremental stores) and
        # checkpointed per job; record any quarantine verdicts so the
        # resumed run knows about them, then unwind.
        if manifest is not None:
            manifest.quarantined.update(stats.quarantined)
            manifest.save()
        raise
    if manifest is not None:
        manifest.quarantined = dict(stats.quarantined)
        manifest.save()

    cache_hits = (cache.hits - hits_before) if cache is not None else 0
    simulated = len(executed) - cache_hits

    # Prime the session so the replay pass simulates nothing planned.
    # Quarantined jobs have no result; their figures replay best-effort
    # (anything missing simulates on demand — and may fail again, which
    # is caught per figure below).
    for (_, job) in unique_jobs:
        if job.label in executed:
            session.prime(job.names, job.config, executed[job.label])

    results: Dict[str, ExperimentResult] = {}
    figure_errors: Dict[str, str] = {}
    for figure in plan.figures:
        try:
            results[figure] = ALL_EXPERIMENTS[figure](
                session, **_experiment_kwargs(figure, pairs))
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            figure_errors[figure] = f"{type(exc).__name__}: {exc}"

    sim_wall = sum(r.wall_seconds for r in executed.values())
    return CampaignReport(
        plan=plan,
        results=results,
        job_results={job.label: executed[job.label]
                     for _, job in unique_jobs if job.label in executed},
        cache_hits=cache_hits,
        simulated=simulated,
        sim_wall_seconds=sim_wall,
        elapsed_seconds=time.perf_counter() - start,
        supervision=stats,
        figure_errors=figure_errors,
        resumed_from_checkpoint=resumed,
    )
