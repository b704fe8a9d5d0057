"""Campaign scheduler throughput benchmark: campaign vs the PR-1 tree.

Renders the same multi-figure campaign two ways and reports wall time:

* **campaign** — the shipping scheduler
  (:func:`repro.harness.campaign.run_campaign`): one planning pass over
  every figure, cross-figure job dedup by content hash, and the
  deduplicated misses dispatched longest-expected-first to a persistent
  work-stealing process pool with per-worker trace memoization and
  incremental cache stores.
* **pr1_tree** — the tree of commit :data:`PR1_SHA`, the last one
  before the campaign layer existed, served by a child process
  (:mod:`_git_tree`).  The child renders each figure on its own fresh
  ``Session`` with that tree's own ``ALL_EXPERIMENTS`` and
  ``format_table``: serial, per-job trace regeneration, nothing shared
  between figures — what ``repro experiment`` did for each figure then.

Both sides start cold and must produce **byte-identical figure tables**
(asserted on every repeat; the simulator is deterministic, so any
divergence is a bug).  The run is interleaved (campaign, tree,
campaign, tree, ...) because host CPU speed drifts on the scale of
seconds; the headline ``speedup`` is the **median of paired wall-time
ratios**, robust to a slow epoch hitting either side.  Results land in
``BENCH_sweep.json``.

Where the win comes from: figures share most of their simulations
(Figures 5/6/7 need the same Baseline/DWS/DWS++ runs and the same
stand-alone baselines), so dedup alone removes a large fraction of the
work; trace memoization removes repeated stream generation for the
config variants of one pair; engine work since that commit makes each
simulation cheaper; and the campaign's ``--workers`` processes run in
parallel where the tree side runs serially, so on a multi-core host the
ratio includes the parallel speedup too.

The reference tree comes from ``git archive``, so the checkout needs
the full history (CI: ``fetch-depth: 0``).

Usage::

    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py
    PYTHONPATH=src python benchmarks/bench_sweep_throughput.py --smoke

This file is a stand-alone script, not a pytest benchmark; pytest
collects nothing from it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _git_tree import TreeChild
from bench_engine_throughput import host_info

from repro.harness.campaign import _experiment_kwargs, run_campaign
from repro.harness.parallel import WorkerPool
from repro.harness.reporting import format_table
from repro.harness.runner import Session

#: "Fast-path event kernel" — the last tree before the campaign layer.
PR1_SHA = "84c30fbb6dbc"

DEFAULT_FIGURES = "fig5,fig6,fig7"
DEFAULT_PAIRS = "GUPS.MM,BLK.HS,SAD.MM,HS.MM,FFT.HS,GUPS.JPEG"


def run_campaign_side(args, pool: WorkerPool) -> dict:
    """One cold-cache campaign run; returns timings + rendered tables."""
    with tempfile.TemporaryDirectory(prefix="bench_sweep_") as tmp:
        session = Session(scale=args.scale, warps_per_sm=args.warps,
                          seed=args.seed, cache_dir=tmp)
        start = time.perf_counter()
        report = run_campaign(session, args.figures, pairs=args.pairs,
                              workers=args.workers, pool=pool)
        elapsed = time.perf_counter() - start
    events = sum(r.events_fired for r in report.job_results.values())
    return {
        "wall_seconds": elapsed,
        "events": events,
        "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
        "jobs_executed": report.simulated,
        "jobs_requested": report.plan.requested,
        "jobs_deduplicated": report.plan.deduplicated,
        "tables": {fig: format_table(res)
                   for fig, res in report.results.items()},
    }


def run_tree_side(args, tree: TreeChild) -> dict:
    """The PR-1 tree renders each figure on its own, nothing shared."""
    tables = {}
    elapsed = 0.0
    events = 0
    jobs_executed = 0
    for figure in args.figures:
        reply = tree.figure(figure, _experiment_kwargs(figure, args.pairs),
                            scale=args.scale, warps=args.warps,
                            seed=args.seed)
        tables[figure] = reply["table"]
        elapsed += reply["wall_seconds"]
        events += reply["events"]
        jobs_executed += reply["simulations"]
    return {
        "wall_seconds": elapsed,
        "events": events,
        "events_per_sec": events / elapsed if elapsed > 0 else 0.0,
        "jobs_executed": jobs_executed,
        "tables": tables,
    }


def measure(args):
    """Warm-up pass per side, then ``--repeats`` interleaved pairs."""
    sides = {"campaign": {"runs": []}, "pr1_tree": {"runs": []}}
    ratios = []
    with WorkerPool(args.workers) as pool, TreeChild(PR1_SHA) as tree:
        for repeat in range(args.repeats + 1):  # +1 warm-up, discarded
            campaign = run_campaign_side(args, pool)
            reference = run_tree_side(args, tree)
            diverged = [f for f in args.figures
                        if campaign["tables"][f] != reference["tables"][f]]
            if diverged:
                raise SystemExit(
                    f"the campaign and the {PR1_SHA} tree rendered "
                    f"different tables for {', '.join(diverged)}")
            if repeat == 0:
                continue
            for name, run in (("campaign", campaign),
                              ("pr1_tree", reference)):
                sides[name]["runs"].append(
                    {k: v for k, v in run.items() if k != "tables"})
            ratios.append(reference["wall_seconds"] / campaign["wall_seconds"])
    for side in sides.values():
        side["median_wall_seconds"] = sorted(
            r["wall_seconds"] for r in side["runs"])[len(side["runs"]) // 2]
    speedup = sorted(ratios)[len(ratios) // 2]
    return sides, speedup, ratios


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--figures", default=DEFAULT_FIGURES,
                        help=f"comma-separated ids (default {DEFAULT_FIGURES})")
    parser.add_argument("--pairs", default=DEFAULT_PAIRS,
                        help=f"comma-separated pairs (default {DEFAULT_PAIRS})")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--warps", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int,
                        default=max(2, os.cpu_count() or 1))
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", default="BENCH_sweep.json",
                        help="output path (default: ./BENCH_sweep.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="2 figures, tiny scale, workers=2 (CI check)")
    args = parser.parse_args(argv)
    args.repeats = max(1, args.repeats)
    if args.smoke:
        args.figures = "fig2,fig3"
        args.pairs = "HS.MM,FFT.HS"
        args.scale = min(args.scale, 0.05)
        args.workers = 2
        args.repeats = 1
    args.figures = [f.strip() for f in args.figures.split(",") if f.strip()]
    args.pairs = [p.strip() for p in args.pairs.split(",") if p.strip()]

    host = host_info()  # sampled before the sweep: pre-bench load
    sides, speedup, ratios = measure(args)
    campaign = sides["campaign"]
    last = campaign["runs"][-1]
    payload = {
        "benchmark": "sweep_throughput",
        "figures": args.figures,
        "pairs": args.pairs,
        "scale": args.scale,
        "warps_per_sm": args.warps,
        "seed": args.seed,
        "workers": args.workers,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "reference": PR1_SHA,
        "host": host,
        "campaign": campaign,
        "pr1_tree": sides["pr1_tree"],
        "dedup": {
            "requested": last["jobs_requested"],
            "unique": last["jobs_executed"],
            "deduplicated": last["jobs_deduplicated"],
        },
        "speedup": speedup,
        "paired_ratios": ratios,
        "python": sys.version.split()[0],
    }
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"{'+'.join(args.figures)} x {len(args.pairs)} pairs "
          f"scale={args.scale}: campaign "
          f"{campaign['median_wall_seconds']:.2f}s vs pr1_tree "
          f"{sides['pr1_tree']['median_wall_seconds']:.2f}s "
          f"-> {speedup:.2f}x median of {len(ratios)} paired runs "
          f"({last['jobs_executed']} jobs for "
          f"{last['jobs_requested']} requests, json: {args.json})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
