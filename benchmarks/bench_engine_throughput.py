"""Engine throughput benchmark: shipping engine vs PR-4 vs seed.

Sweeps a pair triplet spanning the suite's contention classes, plus an
L1-resident Light pair that exercises the latency-folding fast path
(DESIGN.md §12), and reports work-normalized wall-clock events/sec for
three engine generations side by side:

* **engine** — the shipping kernel: calendar queue, handle-free raw
  entries, the fused no-peek run loop, inlined component hot paths, and
  the latency-folding fast path (fold on, its production default).
* **pr4_reference** — the immediately preceding engine generation,
  reconstructed verbatim by :mod:`_pr4_reference`: calendar queue with
  per-event ``Event`` allocation plus free-list recycling, the PR-4 run
  loop, and the PR-4 component bodies (no folding, no raw entries).
  This is the baseline the fold's speedup claims are made against.
* **seed_reference** — the original seed engine reconstructed verbatim
  by :mod:`_seed_reference`: binary-heap queue, a run loop that peeks
  and polls a ``stop_when`` predicate per event, and the seed component
  hot paths.

The three sides simulate the identical machine state: the warm-up runs
assert the engine's stats snapshot is byte-identical to PR-4's, and
that PR-4 and seed fire the same event count under the same drive.
With folding on the engine fires *fewer* events than the reference
sides for the same simulated work, so all rates are normalized to the
**canonical event count** (the PR-4/seed count): rate = canonical
events / wall seconds.  The ratio between sides is then pure engine
cost for identical work.

Methodology: per pair, one untimed warm-up per side (doubles as the
identity check), then ``--repeats`` interleaved (engine, pr4, seed)
rounds.  Interleaving matters — the effective CPU speed of a
shared/virtualised host drifts on a scale of seconds, so timing all of
one side first lets drift masquerade as (or mask) speedup.  Headline
numbers are **medians** (of the per-round paired ratios for speedups,
of the per-round rates for events/sec); min/max are recorded alongside.
Workload traces are memoized at module level (:class:`TraceMemo`), so
trace generation is warmed out of every timed region on every side.

Per-pair hit-path fractions (folded / total translated accesses) are
recorded so the JSON states *which regime* each pair exercises: the
suite pairs are miss-dominated at their standard footprints and fold
rarely; the ``light_resident`` pair is built to fold on nearly every
access.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --smoke

This file is a stand-alone script, not a pytest benchmark; pytest
collects nothing from it.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from _pr4_reference import pr4_engine
from _seed_reference import seed_engine

import repro.engine.simulator as simulator_module
from repro.engine.config import GpuConfig
from repro.engine.event import EventQueue, HeapEventQueue
from repro.engine.profile import EngineProfiler
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.base import MemoizedWorkload, TraceMemo, Workload
from repro.workloads.suite import BENCHMARKS, benchmark

#: An L1-resident Light variant: the HS spec shrunk to a footprint that
#: fits entirely in one SM's L1 data cache *and* its L1 TLB reach, so
#: after the cold misses every access is an L1 TLB hit + L1 data hit.
#: This is the regime the latency-folding fast path is built for; the
#: standard suite footprints are deliberately cache-exceeding and fold
#: rarely (see the per-pair ``fastpath`` records).
#:
#: Shrinking ``footprint_bytes`` alone is not enough: the stencil
#: pattern keeps at least three rows, so HS's 8 KiB ``row_bytes`` would
#: leave a 24 KiB working set spilling out of the 16 KiB L1 — every
#: spill is a miss the hit fold cannot absorb.  1 KiB rows (3 KiB
#: working set) and a zeroed tail make the pair genuinely resident.
_HSR_SPEC = dataclasses.replace(
    BENCHMARKS["HS"], name="HSR", footprint_bytes=4096,
    pattern_args={"base_pattern": "stencil", "row_bytes": 1024,
                  "tail_bytes": 64 * 1024 * 1024, "tail_probability": 0.0})

#: (json key, pair, warps override, scale multiplier) — the contention
#: sweep.  ``None`` warps means the CLI value.  ``light_resident`` pins
#: warps=1 (with a single warp per SM there is never an in-flight access
#: ahead of the folding candidate, so the fold gates stay open) and
#: doubles the trace length: folding is a steady-state behaviour that
#: only dominates once the 4 KiB footprint's cold misses are a small
#: fraction of the run.
PAIR_SWEEP = (
    ("light", "HS.MM", None, 1.0),
    ("medium", "JPEG.LIB", None, 1.0),
    ("heavy", "GUPS.SAD", None, 1.0),
    ("light_resident", "HSR.HSR", 1, 2.0),
)

#: Module-level trace memo shared by every build on every side, so no
#: timed region ever pays for trace generation.
_MEMO = TraceMemo(max_entries=64)


def _workload(name: str, scale: float) -> MemoizedWorkload:
    if name == "HSR":
        wl = Workload(_HSR_SPEC, scale)
    else:
        wl = benchmark(name, scale=scale)
    return MemoizedWorkload(wl, _MEMO)


def build_manager(pair: str, scale: float, sms: int, warps: int,
                  kernel) -> MultiTenantManager:
    """A manager for the pair, with the simulator kernel swapped in.

    ``kernel=None`` leaves the kernel alone — the PR-4 side installs its
    own queue via its patched ``Simulator``.
    """
    previous = simulator_module.EventQueue
    if kernel is not None:
        simulator_module.EventQueue = kernel
    try:
        config = GpuConfig.baseline(num_sms=sms)
        tenants = [Tenant(i, _workload(name, scale))
                   for i, name in enumerate(pair.split("."))]
        return MultiTenantManager(config, tenants,
                                  warps_per_sm=warps, seed=0)
    finally:
        simulator_module.EventQueue = previous


def run_engine(manager: MultiTenantManager) -> int:
    """The shipping fast path: stop() from the completion callback."""
    return manager.run().events_fired


def run_seed_style(manager: MultiTenantManager) -> int:
    """The seed's drive loop: per-event stop_when polling, no stop()."""
    for tenant in manager.tenants:
        manager._launch(tenant)
    return manager.sim.run(stop_when=manager._all_completed_once,
                           max_events=manager.max_events)


#: (json key, simulator kernel, drive function, patch context).  The
#: reference contexts wrap construction too: the seed ``Walker.__init__``
#: and the PR-4 ``Simulator``, for two, differ from the shipping ones.
ENGINES = (
    ("engine", EventQueue, run_engine, nullcontext),
    ("pr4_reference", None, run_engine, pr4_engine),
    ("seed_reference", HeapEventQueue, run_seed_style, seed_engine),
)


def run_once(pcfg, kernel, drive, context):
    """One timed simulation; returns (events, wall seconds, manager)."""
    pair, scale, sms, warps = pcfg
    with context():
        manager = build_manager(pair, scale, sms, warps, kernel)
        start = time.perf_counter()
        events = drive(manager)
        elapsed = time.perf_counter() - start
    return events, elapsed, manager


def _pair_config(entry, args):
    key, pair, warps_override, scale_mult = entry
    warps = args.warps if warps_override is None else warps_override
    return key, (pair, args.scale * scale_mult, args.sms, warps)


def measure_pair(pcfg, repeats):
    """Warm-up (identity checks) plus interleaved timed rounds.

    Returns the per-pair record: per-side run lists with
    median/min/max work-normalized events/sec, the canonical event
    count, paired speedups vs PR-4 and vs seed, and the engine's
    fold statistics.
    """
    # -- warm-up: one run per side, doubling as the identity check ----
    warm = {}
    for name, kernel, drive, context in ENGINES:
        events, _, manager = run_once(pcfg, kernel, drive, context)
        warm[name] = events
        if name == "engine":
            engine_stats = dict(manager.sim.stats.snapshot())
            fastpath = manager.gpu.fastpath_stats()
        elif name == "pr4_reference":
            if dict(manager.sim.stats.snapshot()) != engine_stats:
                raise SystemExit(
                    f"{pcfg[0]}: engine (fold on) and pr4_reference produced "
                    "different stats snapshots — byte-identity broken")
    canonical = warm["pr4_reference"]
    if warm["seed_reference"] != canonical:
        raise SystemExit(
            f"{pcfg[0]}: pr4_reference and seed_reference fired different "
            f"event counts ({canonical} vs {warm['seed_reference']}) — "
            "determinism broken")

    # -- timed rounds, interleaved across the three sides -------------
    sides = {name: {"events": warm[name], "runs": []} for name, *_ in ENGINES}
    walls = {name: [] for name, *_ in ENGINES}
    for _ in range(repeats):
        for name, kernel, drive, context in ENGINES:
            events, elapsed, _ = run_once(pcfg, kernel, drive, context)
            if events != warm[name]:
                raise SystemExit(
                    f"{pcfg[0]}: {name} event count drifted between runs "
                    f"({events} vs {warm[name]}) — determinism broken")
            walls[name].append(elapsed)
            sides[name]["runs"].append({
                "events": events, "wall_seconds": elapsed,
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
        "fastpath": fastpath,
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
        events, elapsed, _ = run_once(pcfg, EventQueue, run_engine,
                                      nullcontext)
        return events, elapsed

    def run_off():
        install(IntegrityConfig(audit="off"))
        try:
            events, elapsed, _ = run_once(pcfg, EventQueue, run_engine,
                                          nullcontext)
            return events, elapsed
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
    pair, scale, sms, warps = pcfg
    manager = build_manager(pair, scale, sms, warps, EventQueue)
    profiler = EngineProfiler()
    with profiler.attach(manager.sim):
        manager.run()
    profiler.note_fold_rungs(manager.gpu.fastpath_stats())
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
    for entry in PAIR_SWEEP:
        key, pcfg = _pair_config(entry, args)
        if key == "heavy":
            heavy_pcfg = pcfg
        if key not in selected:
            continue
        record = measure_pair(pcfg, args.repeats)
        record["key"] = key
        pairs[key] = record
        print(f"{key} ({record['pair']}): "
              f"engine {record['engine']['events_per_sec']:,.0f} ev/s, "
              f"{record['speedup_vs_pr4']:.2f}x vs pr4, "
              f"{record['speedup_vs_seed']:.2f}x vs seed, "
              f"hit-path {record['fastpath']['hit_path_fraction']:.1%} "
              f"({record['canonical_events']} events)")

    payload = {
        "benchmark": "engine_throughput",
        "scale": args.scale,
        "sms": args.sms,
        "warps_per_sm": args.warps,
        "repeats": args.repeats,
        "smoke": args.smoke,
        "pairs": pairs,
        "host": host,
        "python": sys.version.split()[0],
    }
    if "heavy" in pairs:
        payload["profile"] = component_profile(heavy_pcfg)
    if args.audit_overhead or args.assert_audit_overhead is not None:
        audit_pcfg = heavy_pcfg or _pair_config(PAIR_SWEEP[2], args)[1]
        overhead, audit_ratios = measure_audit_overhead(audit_pcfg,
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
