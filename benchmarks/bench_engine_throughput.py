"""Engine throughput benchmark: working tree vs PR-4 vs seed.

Sweeps a pair triplet spanning the suite's contention classes and
reports wall-clock events/sec for three engine generations side by
side:

* **engine** — the working tree's ``src/``.
* **pr4_reference** — the tree of commit :data:`PR4_SHA`, the engine
  generation before raw entries and the fused run loop.
* **seed_reference** — the tree of commit :data:`SEED_SHA`, the
  original binary-heap engine with its peek-and-poll run loop.

Each side is its own git tree served by a long-lived child process
(:mod:`_git_tree`), so a reference cannot inherit the code it is
measured against, and every side pays the same process and pipe costs.
Only ``manager.run()`` is timed, inside the child.  Every run is an
identity check: all three sides must fire the same events and end on
the same cycle, and every stats key a reference records must appear in
the working tree's snapshot with an equal value — so the ratio between
sides is pure engine cost for identical work.

Methodology: per pair, one untimed warm-up run per side (it also
generates the traces that every later run replays), then ``--repeats``
interleaved (engine, pr4, seed) rounds.  Interleaving matters — the
effective CPU speed of a shared/virtualised host drifts on a scale of
seconds, so timing all of one side first lets drift masquerade as (or
mask) speedup.  Headline numbers are **medians** (of the per-round
paired ratios for speedups, of the per-round rates for events/sec);
min/max are recorded alongside.

The reference trees come from ``git archive``, so the checkout needs
the full history (CI: ``fetch-depth: 0``).  ``--audit-overhead`` and
the JSON's component profile measure the working tree in-process.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --smoke

This file is a stand-alone script, not a pytest benchmark; pytest
collects nothing from it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _git_tree import TreeChild, check_identity

from repro.engine.config import GpuConfig
from repro.engine.profile import EngineProfiler
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.base import MemoizedWorkload, TraceMemo
from repro.workloads.suite import benchmark

#: "Simulation integrity layer" — the last engine before raw entries.
PR4_SHA = "981e69f7f764"
#: The growth seed's engine.
SEED_SHA = "b172bd5278a2"

#: (json key, git tree; None is the working tree), in round order.
SIDES = (
    ("engine", None),
    ("pr4_reference", PR4_SHA),
    ("seed_reference", SEED_SHA),
)

#: (json key, pair) — the contention sweep.
PAIR_SWEEP = (
    ("light", "HS.MM"),
    ("medium", "JPEG.LIB"),
    ("heavy", "GUPS.SAD"),
)

#: Trace memo for the in-process working-tree runs (audit overhead and
#: the component profile), so no timed region pays for trace generation.
_MEMO = TraceMemo(max_entries=64)


def build_manager(pair: str, scale: float, sms: int,
                  warps: int) -> MultiTenantManager:
    """An in-process working-tree manager for the pair."""
    config = GpuConfig.baseline(num_sms=sms)
    tenants = [Tenant(i, MemoizedWorkload(benchmark(name, scale=scale), _MEMO))
               for i, name in enumerate(pair.split("."))]
    return MultiTenantManager(config, tenants, warps_per_sm=warps, seed=0)


def run_once(pcfg):
    """One timed in-process working-tree run; returns (events, seconds)."""
    manager = build_manager(*pcfg)
    start = time.perf_counter()
    events = manager.run().events_fired
    return events, time.perf_counter() - start


def _pair_config(entry, args):
    key, pair = entry
    return key, (pair, args.scale, args.sms, args.warps)


def measure_pair(children, pcfg, repeats):
    """Warm-up plus interleaved timed rounds, identity-checked throughout.

    Returns the per-pair record: per-side run lists with
    median/min/max events/sec, the canonical event count, and paired
    speedups vs PR-4 and vs seed.
    """
    def one_round():
        replies = {name: child.run(*pcfg) for name, child in children.items()}
        check_identity(pcfg[0], replies, working="engine")
        return replies

    canonical = one_round()["engine"]["events_fired"]  # warm-up, untimed
    sides = {name: {"events": canonical, "runs": []} for name in children}
    walls = {name: [] for name in children}
    for _ in range(repeats):
        for name, reply in one_round().items():
            elapsed = reply["wall_seconds"]
            walls[name].append(elapsed)
            sides[name]["runs"].append({
                "events": reply["events_fired"], "wall_seconds": elapsed,
                "events_per_sec": canonical / elapsed,
            })
    for side in sides.values():
        rates = [r["events_per_sec"] for r in side["runs"]]
        side["events_per_sec"] = statistics.median(rates)
        side["events_per_sec_min"] = min(rates)
        side["events_per_sec_max"] = max(rates)

    ratios_pr4 = [p / e for e, p in zip(walls["engine"],
                                        walls["pr4_reference"])]
    ratios_seed = [s / e for e, s in zip(walls["engine"],
                                         walls["seed_reference"])]
    return {
        "pair": pcfg[0],
        "scale": pcfg[1],
        "sms": pcfg[2],
        "warps_per_sm": pcfg[3],
        "canonical_events": canonical,
        "engine": sides["engine"],
        "pr4_reference": sides["pr4_reference"],
        "seed_reference": sides["seed_reference"],
        "speedup_vs_pr4": statistics.median(ratios_pr4),
        "speedup_vs_seed": statistics.median(ratios_seed),
        "ratios_vs_pr4": ratios_pr4,
        "ratios_vs_seed": ratios_seed,
    }


def host_info() -> dict:
    """CPU count and pre-bench load of the recording host, so a reader
    can tell a small or loaded runner from a regression."""
    cpu_count = os.cpu_count()
    try:
        load_1m = os.getloadavg()[0]
    except OSError:  # pragma: no cover - non-unix
        load_1m = None
    return {"cpu_count": cpu_count, "load_avg_1m": load_1m}


def measure_audit_overhead(pcfg, repeats):
    """Cost of an *installed but off* integrity config on the engine.

    Interleaves plain runs (no ``REPRO_INTEGRITY``) with runs under an
    installed ``IntegrityConfig(audit="off")``.  The off level must keep
    the engine's no-hook fast path — its entire cost budget is one
    environment lookup per manager run — so the median paired overhead
    is asserted to stay within a few percent (CI: ``audit-smoke``).

    Returns ``(overhead, ratios)`` where overhead is the median paired
    slowdown fraction (positive = installed-off is slower).
    """
    from repro.integrity import IntegrityConfig, clear_install, install

    def run_plain():
        clear_install()
        return run_once(pcfg)

    def run_off():
        install(IntegrityConfig(audit="off"))
        try:
            return run_once(pcfg)
        finally:
            clear_install()

    run_plain()  # warm-up, discarded
    run_off()
    ratios = []
    for _ in range(repeats):
        plain_events, plain_secs = run_plain()
        off_events, off_secs = run_off()
        if plain_events != off_events:
            raise SystemExit(
                f"audit=off changed the event count: {off_events} vs "
                f"{plain_events} — byte-identical discipline broken")
        ratios.append((off_events / off_secs) / (plain_events / plain_secs))
    return 1.0 - statistics.median(ratios), ratios


def component_profile(pcfg, top: int = 12) -> dict:
    """One extra profiled run for the per-callsite event breakdown."""
    manager = build_manager(*pcfg)
    profiler = EngineProfiler()
    with profiler.attach(manager.sim):
        manager.run()
    return profiler.summary(top=top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pairs", default=None,
                        help="comma-separated sweep keys to run "
                             f"(default: all of "
                             f"{','.join(k for k, *_ in PAIR_SWEEP)})")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--sms", type=int, default=8)
    parser.add_argument("--warps", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", default="BENCH_engine.json",
                        help="output path (default: ./BENCH_engine.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload, one repeat (CI wiring check)")
    parser.add_argument("--audit-overhead", action="store_true",
                        help="also measure the cost of an installed "
                             "IntegrityConfig(audit='off') vs no config")
    parser.add_argument("--assert-audit-overhead", type=float, default=None,
                        metavar="PCT",
                        help="fail if the audit-off overhead exceeds PCT "
                             "percent (implies --audit-overhead)")
    args = parser.parse_args(argv)
    args.repeats = max(1, args.repeats)
    if args.smoke:
        args.scale = min(args.scale, 0.1)
        args.repeats = 1
    selected = ([k.strip() for k in args.pairs.split(",")] if args.pairs
                else [k for k, *_ in PAIR_SWEEP])
    unknown = set(selected) - {k for k, *_ in PAIR_SWEEP}
    if unknown:
        raise SystemExit(f"unknown pair keys: {sorted(unknown)}")

    host = host_info()  # sampled before the sweep: pre-bench load
    pairs = {}
    heavy_pcfg = None
    with ExitStack() as stack:
        children = {name: stack.enter_context(TreeChild(sha))
                    for name, sha in SIDES}
        for entry in PAIR_SWEEP:
            key, pcfg = _pair_config(entry, args)
            if key == "heavy":
                heavy_pcfg = pcfg
            if key not in selected:
                continue
            record = measure_pair(children, pcfg, args.repeats)
            record["key"] = key
            pairs[key] = record
            print(f"{key} ({record['pair']}): "
                  f"engine {record['engine']['events_per_sec']:,.0f} ev/s, "
                  f"{record['speedup_vs_pr4']:.2f}x vs pr4, "
                  f"{record['speedup_vs_seed']:.2f}x vs seed "
                  f"({record['canonical_events']} events)")

    payload = {
        "benchmark": "engine_throughput",
        "scale": args.scale,
        "sms": args.sms,
        "warps_per_sm": args.warps,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "references": {name: sha for name, sha in SIDES if sha},
        "pairs": pairs,
        "host": host,
        "python": sys.version.split()[0],
    }
    if "heavy" in pairs:
        payload["profile"] = component_profile(heavy_pcfg)
    if args.audit_overhead or args.assert_audit_overhead is not None:
        overhead, audit_ratios = measure_audit_overhead(heavy_pcfg,
                                                        args.repeats)
        payload["audit_off_overhead"] = overhead
        payload["audit_off_ratios"] = audit_ratios
        print(f"audit=off overhead: {overhead * 100:+.2f}% "
              f"(median of {len(audit_ratios)} paired runs)")
        limit = args.assert_audit_overhead
        if limit is not None and overhead * 100 > limit:
            Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
            raise SystemExit(
                f"audit=off overhead {overhead * 100:.2f}% exceeds the "
                f"{limit:g}% budget — the disabled integrity layer must "
                f"not touch the hot path")
    Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"json: {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
