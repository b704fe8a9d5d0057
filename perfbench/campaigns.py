"""The two campaign workloads: a cold and a warm ``repro campaign``.

Both run all 15 experiments (Figs 2-14, Tables III/V/VI) through
``run_campaign`` with 2 workers.  ``campaign_cold`` starts from an empty
result cache, so every one of the 976 unique planned jobs simulates and
the cache is only written.  ``campaign_warm`` runs over a cache the same
code filled (copied fresh for every pass, outside the clock): every
planned lookup hits and only Figure 14's 18 ad-hoc runs simulate.
"""

from __future__ import annotations

import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

from common import (CAMPAIGN_SCALE, SETUP_SAMPLES, WARPS, WORKERS, Metric,
                    Outcome, WorkDir, campaign_child, fresh_copy, store_fill,
                    stored_fill)
from stats import finite_or, median, tail_percentile, with_failures

#: A warm pass takes about 2 s; at least this many make its median.
MIN_WARM_PASSES = 3
#: The cold traced run's overhead is measured on every 16th planned job.
CALIBRATION_STRIDE = 16
#: Plain and traced warm passes alternated to measure the warm overhead.
OVERHEAD_PAIRS = 3


def _check_pass(out: Outcome, report: Dict, cold: bool) -> None:
    out.check(report["quarantined"] == 0 and report["figure_errors"] == 0,
              f"campaign degraded: {report['quarantined']} quarantined, "
              f"{report['figure_errors']} figure error(s)")
    out.check(len(report["tables"]) == report["figures"],
              "not every figure rendered a table")
    if cold:
        out.check(report["cache_hits"] == 0
                  and report["simulated"] == report["unique_jobs"],
                  "cold campaign did not simulate every planned job")
    else:
        out.check(report["simulated"] == 0
                  and report["cache_hits"] == report["unique_jobs"],
                  f"warm campaign simulated {report['simulated']} planned "
                  f"job(s); every lookup should hit")


def _check_tables(out: Outcome, reference: List[str], tables: List[str],
                  what: str) -> None:
    out.check(tables == reference,
              f"{what} rendered tables that differ from the cold pass")


def _fill_setup_samples(work: Path, seed: int, setups: List[float]) -> None:
    while len(setups) < SETUP_SAMPLES:
        setups.append(campaign_child(work, seed, setup_only=True)["setup_s"])


def _metrics(out: Outcome, passes: List[Dict], setups: List[float]) -> None:
    walls = [p["wall_s"] for p in passes]
    out.attempted = sum(p["unique_jobs"] + p["figures"] for p in passes)
    out.failed = sum(p["quarantined"] + p["figure_errors"] for p in passes)
    sims = with_failures([w for p in passes for w in p["sim_walls"]],
                         sum(p["quarantined"] for p in passes))
    pct, tail = tail_percentile(sims)
    window_ms = sum(walls) * 1e3
    out.metrics.update({
        "setup_s": Metric(median(setups), "s",
                          f"median of {len(setups)} launches"),
        "wall_s": Metric(median(walls), "s",
                         f"median of {len(walls)} pass(es): "
                         + ", ".join(f"{w:.3f}" for w in walls)),
        "p50_ms": Metric(finite_or(median(sims) * 1e3, window_ms), "ms",
                         f"median host time per simulation, "
                         f"n={len(sims)}"),
        "p99_ms": Metric(finite_or(tail * 1e3, window_ms), "ms",
                         f"p{pct:.2f} host time per simulation, "
                         f"n={len(sims)}"),
        "queries_per_s": Metric(
            passes[0]["requests"] / median(walls), "1/s",
            f"{passes[0]['requests']} figure simulation requests per "
            "median pass"),
        "peak_rss_mb": Metric(max(p["peak_rss_mb"] for p in passes), "MB",
                              "largest of campaign parent and workers"),
    })
    busy = sum(p["sim_busy_s"] for p in passes)
    out.notes.append(f"worker utilization {busy / (WORKERS * sum(walls)):.3f}"
                     " (simulation host time / (workers x campaign wall))")


def run_cold(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    passes, setups = [], []
    with WorkDir() as work:
        while not passes or sum(p["wall_s"] for p in passes) < seconds:
            cache = work / f"cold{len(passes)}"
            report = campaign_child(cache, seed)
            _check_pass(out, report, cold=True)
            passes.append(report)
            setups.append(report["setup_s"])
            # Outside the clock: the filled cache must re-render the
            # same tables without simulating a planned job.
            again = campaign_child(cache, seed)
            _check_pass(out, again, cold=False)
            _check_tables(out, report["tables"], again["tables"],
                          "a warm re-render")
            setups.append(again["setup_s"])
            if out.problems:
                shutil.rmtree(cache)
            else:
                store_fill(seed, cache, report["tables"])
        _fill_setup_samples(work / "setup", seed, setups)
    _metrics(out, passes, setups)
    out.digest_parts = passes[0]["tables"]
    return out


def _warm_fill(out: Outcome, work: Path, seed: int):
    """``(cache, tables)`` filled by this checkout's code: a verified cold
    pass kept by an earlier run of either campaign workload, else a cold
    pass run now (outside the clock) and kept for later runs."""
    stored = stored_fill(seed)
    if stored is None:
        fill = campaign_child(work / "fill", seed)
        _check_pass(out, fill, cold=True)
        if out.problems:
            return work / "fill", fill["tables"]
        store_fill(seed, work / "fill", fill["tables"])
        stored = stored_fill(seed)
    return stored


def run_warm(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    passes, setups = [], []
    with WorkDir() as work:
        filled, tables = _warm_fill(out, work, seed)
        while (len(passes) < MIN_WARM_PASSES
               or sum(p["wall_s"] for p in passes) < seconds):
            cache = fresh_copy(filled, work / f"warm{len(passes)}")
            report = campaign_child(cache, seed)
            _check_pass(out, report, cold=False)
            _check_tables(out, tables, report["tables"], "a warm pass")
            passes.append(report)
            setups.append(report["setup_s"])
            shutil.rmtree(cache)
        _fill_setup_samples(work / "setup", seed, setups)
    _metrics(out, passes, setups)
    out.digest_parts = tables
    return out


# ----------------------------------------------------------------------
# Traced runs: in-process, one worker, every span in this process.
# ----------------------------------------------------------------------
def traced_pass(cache_dir: Path, seed: int, tracer=None) -> Dict:
    """One campaign pass in this process, under a root span when a
    ``tracer`` is given (its instrumentation must be installed)."""
    from campaign_child import render, summarize
    from repro.harness.campaign import run_campaign
    from repro.harness.runner import Session

    session = Session(scale=CAMPAIGN_SCALE, warps_per_sm=WARPS, seed=seed,
                      cache_dir=str(cache_dir))
    start = time.perf_counter()
    with (tracer.span("bench.campaign") if tracer else nullcontext()):
        report = run_campaign(session, workers=1)
        tables = render(report)
    return summarize(report, tables, time.perf_counter() - start)


def _job_overhead(seed: int) -> float:
    """Tracing overhead measured on every ``CALIBRATION_STRIDE``-th
    planned job: after one unmeasured run that memoizes its traces, each
    runs once plain and once under a fresh
    :class:`~layers.Instrumentation`, alternating which goes first."""
    from layers import Instrumentation
    from repro.harness.campaign import plan_campaign
    from repro.harness.parallel import run_jobs
    from repro.harness.runner import Session
    from repro.harness.supervision import SupervisionPolicy

    session = Session(scale=CAMPAIGN_SCALE, warps_per_sm=WARPS, seed=seed)
    jobs = list(plan_campaign(session).jobs.values())[::CALIBRATION_STRIDE]

    def timed(job, traced: bool) -> float:
        with (Instrumentation() if traced else nullcontext()):
            start = time.perf_counter()
            run_jobs([job], workers=1, validate=True,
                     supervision=SupervisionPolicy.default())
            return time.perf_counter() - start

    spent = {False: 0.0, True: 0.0}
    for index, job in enumerate(jobs):
        timed(job, traced=False)
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            spent[traced] += timed(job, traced)
    return spent[True] / spent[False] - 1.0


def trace_cold(inst, seed: int) -> Outcome:
    out = Outcome()
    # A whole untraced in-process cold campaign would double the run, so
    # the overhead is measured on a sample of its jobs; job execution is
    # about 90% of the traced wall and the rest carries few spans.
    out.overhead = _job_overhead(seed)
    with WorkDir() as work, inst:
        report = traced_pass(work / "cold", seed, inst.tracer)
    _check_pass(out, report, cold=True)
    out.attempted = report["unique_jobs"] + report["figures"]
    out.failed = report["quarantined"] + report["figure_errors"]
    out.digest_parts = report["tables"]
    out.traced_wall_s = report["wall_s"]
    return out


def trace_warm(inst, seed: int) -> Outcome:
    out = Outcome()
    with WorkDir() as work:
        filled, tables = _warm_fill(out, work, seed)
        plain, traced = [], []
        for n in range(OVERHEAD_PAIRS):
            cache = fresh_copy(filled, work / f"plain{n}")
            plain.append(traced_pass(cache, seed))
            shutil.rmtree(cache)
            cache = fresh_copy(filled, work / f"traced{n}")
            with inst:
                traced.append(traced_pass(cache, seed, inst.tracer))
            shutil.rmtree(cache)
    for report in plain + traced:
        _check_pass(out, report, cold=False)
        _check_tables(out, tables, report["tables"], "a warm pass")
    out.attempted = sum(r["unique_jobs"] + r["figures"] for r in traced)
    out.failed = sum(r["quarantined"] + r["figure_errors"] for r in traced)
    out.digest_parts = tables
    out.traced_wall_s = sum(r["wall_s"] for r in traced)
    out.overhead = (median(r["wall_s"] for r in traced)
                    / median(r["wall_s"] for r in plain) - 1.0)
    return out
