"""CI perf gate: fail when the engine's measured speedup regresses.

Compares a freshly measured ``BENCH_engine.json`` against the committed
baseline and exits non-zero if any pair's median ``speedup_vs_pr4``
(or ``speedup_vs_seed``) fell more than ``--tolerance`` below the
baseline value.

The gate runs on *speedup ratios*, not raw events/sec: each side runs
in its own child process and the rounds interleave the sides, so the
host's absolute speed — which varies wildly between CI runners and has
nothing to do with the code — divides out.  Raw rates are still
recorded in both files for eyeballing trends.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py --json fresh.json
    python benchmarks/check_perf_gate.py --baseline BENCH_engine.json --fresh fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

GATED_METRICS = ("speedup_vs_pr4", "speedup_vs_seed")


def compare(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Return a list of human-readable regression descriptions."""
    failures = []
    base_pairs = baseline.get("pairs", {})
    fresh_pairs = fresh.get("pairs", {})
    missing = set(base_pairs) - set(fresh_pairs)
    if missing:
        failures.append(
            f"fresh results lack baseline pair(s): {sorted(missing)}")
    for key in sorted(set(base_pairs) & set(fresh_pairs)):
        for metric in GATED_METRICS:
            base = base_pairs[key].get(metric)
            got = fresh_pairs[key].get(metric)
            if base is None or got is None:
                continue
            floor = base * (1.0 - tolerance)
            if got < floor:
                failures.append(
                    f"{key}: {metric} {got:.3f} < {floor:.3f} "
                    f"(baseline {base:.3f} - {tolerance:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default="BENCH_engine.json",
                        help="committed baseline JSON")
    parser.add_argument("--fresh", required=True,
                        help="freshly measured JSON to gate")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional regression (default 0.10)")
    args = parser.parse_args(argv)

    baseline = json.loads(Path(args.baseline).read_text())
    fresh = json.loads(Path(args.fresh).read_text())
    if baseline.get("smoke") or fresh.get("smoke"):
        print("perf gate: refusing to gate on smoke-mode results "
              "(single repeat, tiny workloads)", file=sys.stderr)
        return 2

    failures = compare(baseline, fresh, args.tolerance)
    if failures:
        print("perf gate FAILED:")
        for failure in failures:
            print(f"  {failure}")
        return 1
    for key, record in sorted(fresh.get("pairs", {}).items()):
        base = baseline["pairs"].get(key, {})
        print(f"  {key}: speedup_vs_pr4 {record.get('speedup_vs_pr4', 0):.3f} "
              f"(baseline {base.get('speedup_vs_pr4', 0):.3f}) ok")
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
