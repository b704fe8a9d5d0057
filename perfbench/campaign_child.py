"""One campaign pass in a fresh interpreter, as ``repro campaign`` runs it.

Started by ``run.py`` for every untraced campaign pass.  Set-up is timed
from the parent's launch stamp (``--launched-at``, a ``time.monotonic``
reading; the clock is shared by all processes) until the imports are
done and the worker pool's processes exist.  The pass is timed from
``run_campaign`` until every figure's table is rendered.  The last line
of stdout is one JSON object that the parent parses.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness import reporting  # noqa: E402
from repro.harness.campaign import run_campaign  # noqa: E402
from repro.harness.parallel import WorkerPool  # noqa: E402
from repro.harness.runner import Session  # noqa: E402


class RecordingSession(Session):
    """Keeps the results of ad-hoc runs (Figure 14's ``run_custom``),
    which never reach the campaign report, so their host time counts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.custom_results = {}

    def run_custom(self, label, workloads, config):
        result = super().run_custom(label, workloads, config)
        self.custom_results[id(result)] = result
        return result


def start_pool(workers: int) -> WorkerPool:
    """A pool whose worker processes already exist (fork context spawns
    all of them on the first submit)."""
    pool = WorkerPool(workers)
    if workers > 1:
        for future in [pool.executor.submit(os.getpid)
                       for _ in range(workers)]:
            future.result()
    return pool


def summarize(report, tables, wall_s: float) -> dict:
    """The pass facts both the untraced and the traced runs check."""
    return {
        "wall_s": wall_s,
        "tables": tables,
        "requests": report.plan.requested + report.plan.unplanned_custom,
        "unique_jobs": report.plan.unique_jobs,
        "figures": len(report.plan.figures),
        "simulated": report.simulated,
        "cache_hits": report.cache_hits,
        "quarantined": len(report.quarantined),
        "figure_errors": len(report.figure_errors),
    }


def render(report) -> list:
    return [reporting.format_table(report.results[figure])
            for figure in report.plan.figures if figure in report.results]


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and its reaped children, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--launched-at", type=float, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--warps", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    pool = start_pool(args.workers)
    setup_s = time.monotonic() - args.launched_at
    if args.setup_only:
        pool.shutdown()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    session = RecordingSession(scale=args.scale, warps_per_sm=args.warps,
                               seed=args.seed, cache_dir=args.cache_dir)
    start = time.perf_counter()
    report = run_campaign(session, workers=args.workers, pool=pool)
    tables = render(report)
    wall_s = time.perf_counter() - start
    pool.shutdown()

    # Cache hits carry the wall time of the run that stored them.
    planned = list(report.job_results.values()) if report.cache_hits == 0 \
        else []
    sim_walls = ([r.wall_seconds for r in planned]
                 + [r.wall_seconds for r in session.custom_results.values()])
    summary = summarize(report, tables, wall_s)
    summary.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb(),
                   sim_walls=sim_walls, sim_busy_s=sum(sim_walls))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
