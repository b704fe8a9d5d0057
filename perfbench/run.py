#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction: campaigns and the service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign_cold --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
untraced; ``--trace 1`` makes a separate in-process traced run and
reports the per-layer metrics.  Every run checks the program's outputs
and records the host.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check prints ``correct: false`` and exits 1.  See ``README.md`` for the
workloads, metrics and layers.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("campaign_cold", "campaign_warm", "serve_mixed")
#: Seed whose output digests are pinned in ``digests.json``.
DEFAULT_SEED = 0


def host_sample() -> dict:
    """Load and steal ticks now (``/proc/stat``; 0 where unavailable)."""
    steal = 0
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            steal = int(fields[8])
    except OSError:
        pass
    return {"load1": os.getloadavg()[0], "steal_ticks": steal}


def digest_family(workload: str) -> str:
    # Both campaign workloads render the same tables.
    return "campaign" if workload.startswith("campaign") else workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    import campaigns
    import serve_mix
    from common import (CAMPAIGN_SCALE, SERVE_SCALE, WARPS, WORKERS,
                        CheckFailed, Outcome)
    from stats import digest

    before = host_sample()
    out = Outcome()
    try:
        if args.trace:
            from layers import Instrumentation
            inst = Instrumentation()
            out = {"campaign_cold": campaigns.trace_cold,
                   "campaign_warm": campaigns.trace_warm,
                   "serve_mixed": serve_mix.trace_serve,
                   }[args.workload](inst, args.seed)
            layer_values = inst.metrics(out.serve_layers)
            layer_values.update({"trace.coverage": inst.coverage(),
                                 "trace.wall_s": out.traced_wall_s,
                                 "trace.overhead": out.overhead})
        else:
            out = {"campaign_cold": campaigns.run_cold,
                   "campaign_warm": campaigns.run_warm,
                   "serve_mixed": serve_mix.run_serve,
                   }[args.workload](args.seed, args.seconds)
    except CheckFailed as exc:
        out.problems.append(str(exc))
    after = host_sample()

    serve = args.workload == "serve_mixed"
    host = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "load1_start": before["load1"], "load1_end": after["load1"],
        "steal_ticks": after["steal_ticks"] - before["steal_ticks"],
        "scale": SERVE_SCALE if serve else CAMPAIGN_SCALE, "warps": WARPS,
        "workers": 1 if serve or args.trace else WORKERS,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print(f"host {json.dumps(host, sort_keys=True)}")

    metrics = {}
    if not out.problems:
        if out.digest_parts:
            run_digest = digest(out.digest_parts)
            pins = json.loads((HERE / "digests.json").read_text())
            pinned = pins.get(digest_family(args.workload), {}).get(
                str(args.seed))
            note = ("matches the pin" if pinned == run_digest else
                    "not pinned for this seed" if pinned is None else
                    f"DIFFERS from the pin {pinned}")
            print(f"digest {run_digest} ({note})")
            out.check(pinned in (None, run_digest),
                      "simulated outputs differ from the pinned digest")
        for entry in wanted:
            name = entry["name"]
            if args.trace:
                value = layer_values.get(name)
                detail = ""
            else:
                metric = out.metrics.get(name)
                value = None if metric is None else metric.value
                detail = "" if metric is None else metric.detail
            if value is None:
                out.problems.append(f"metric {name} was not measured")
                continue
            metrics[name] = {"value": value, "unit": entry["unit"]}
            print(f"metric {name} = {value:.6g} {entry['unit']}"
                  + (f"  ({detail})" if detail else ""))
    for note in out.notes:
        print(note)
    print(f"failed_ratio = {out.failed / max(out.attempted, 1):.6g}  "
          f"({out.failed} failed of {out.attempted} attempted)")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not out.problems
    print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1),
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
