"""Serve load benchmark: sustained query traffic against ``ReproServer``.

Drives the capacity-planning service the way an operator would — a
stream of placement queries — and records the **per-tier service
latency distribution** (p50/p90/p99 of ``QueryResponse.wall_ms``,
bucketed by the status that answered):

* ``exact`` — content-addressed cache hits; the steady-state tier.
* ``simulated`` — cold queries the background executor ran to
  completion inside the deadline.
* ``estimate`` / ``timeout`` — the degraded tiers: MPMI-band
  interpolation while the breaker is open, or a deadline expiring with
  the simulation still in flight.

With ``--faults`` the run adds a two-phase chaos episode, mirroring the
deterministic suite in ``tests/serve/test_chaos.py``:

1. every simulation attempt crashes once (``fail_attempts=1``) — the
   retried-first-try outcomes feed the breaker until it **trips**, and
   subsequent queries are answered estimate-only;
2. faults are cleared and traffic continues until a half-open probe
   **closes** the breaker again.

Three robustness invariants are asserted (exit non-zero on violation):

* every query received a typed answer — a status from ``STATUS_ORDER``,
  never an exception, never a hang past its deadline;
* every answer not backed by a real simulation carries the
  ``estimate=True`` honesty label;
* after the chaos episode, exact-tier answers are **byte-identical**
  (canonical payload JSON) to a fault-free reference server fed the
  same traffic on a fresh cache.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_load.py --smoke --faults \
        --json BENCH_serve.json

This file is a stand-alone script, not a pytest benchmark; pytest
collects nothing from it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

if __name__ == "__main__":  # allow running without an installed package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness import faults
from repro.harness.resources import PressurePolicy
from repro.harness.supervision import RetryPolicy, SupervisionPolicy
from repro.serve.admission import (BREAKER_CLOSED, BREAKER_OPEN,
                                   AdmissionPolicy, BreakerPolicy)
from repro.serve.queries import (STATUS_ESTIMATE, STATUS_EXACT,
                                 STATUS_ORDER, STATUS_SIMULATED,
                                 PlacementQuery)
from repro.serve.server import ReproServer

#: (workloads, policy) mix of the sustained traffic.  Singles and pairs
#: across the paper's contention classes; smoke keeps the first four.
TRAFFIC = [
    (("GUPS",), "baseline"),
    (("HS",), "baseline"),
    (("HS", "MM"), "baseline"),
    (("GUPS",), "dws"),
    (("SRAD",), "baseline"),
    (("HS", "MM"), "dwspp"),
    (("FFT", "HS"), "baseline"),
    (("FFT", "HS"), "dws"),
]

#: Distinct L2-TLB sizes used to mint *uncached* query variants during
#: the chaos episode (each value addresses a different cache entry).
CHAOS_TLB_SIZES = (256, 384, 768, 1024, 1536, 48, 96, 192)

#: Hard ceiling on chaos-phase queries before declaring the breaker
#: wedged; the deterministic cadence converges in far fewer.
MAX_CHAOS_QUERIES = 200


def percentile(values, fraction):
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def tier_summary(samples):
    """``{status: {count, p50_ms, p90_ms, p99_ms}}`` from (status, ms)."""
    by_tier = {}
    for status, ms in samples:
        by_tier.setdefault(status, []).append(ms)
    return {
        status: {
            "count": len(ms_list),
            "p50_ms": round(percentile(ms_list, 0.50), 3),
            "p90_ms": round(percentile(ms_list, 0.90), 3),
            "p99_ms": round(percentile(ms_list, 0.99), 3),
        }
        for status, ms_list in sorted(by_tier.items())
    }


class Driver:
    """One server plus the bookkeeping the invariants are checked on."""

    def __init__(self, root, args):
        self.server = ReproServer(
            root,
            admission=AdmissionPolicy(max_queue_depth=16,
                                      default_deadline_s=args.deadline,
                                      drain_timeout_s=5.0),
            # Sized so the chaos episode converges in a handful of
            # queries: trips after 2 bad outcomes, probes after 2 more.
            breaker_policy=BreakerPolicy(window=4, threshold=0.5,
                                         min_samples=2,
                                         probe_after_queries=2),
            supervision=SupervisionPolicy(
                retry=RetryPolicy(max_attempts=3, base_delay=0.001)),
            scale=args.scale, warps_per_sm=args.warps,
            max_events=args.max_events,
            # Unthrottled pressure sampling: clearing the injected
            # host_pressure fault must be visible on the very next query.
            pressure=PressurePolicy(min_interval_s=0.0))
        self.server.start()
        self.samples = []       # (status, wall_ms) per query
        self.violations = []

    def ask(self, query):
        response = self.server.query(query)
        if response.status not in STATUS_ORDER:
            self.violations.append(
                f"untyped status {response.status!r} for {query.key()}")
        if (response.status not in (STATUS_EXACT, STATUS_SIMULATED)
                and not response.estimate):
            self.violations.append(
                f"degraded answer not labeled estimate: "
                f"{response.status} for {query.key()}")
        self.samples.append((response.status, response.wall_ms))
        return response

    def exact_payloads(self, traffic):
        """Canonical JSON of the exact-tier answer per traffic item."""
        payloads = {}
        for names, policy in traffic:
            response = self.ask(metrics_query(names, policy))
            if response.status != STATUS_EXACT:
                self.violations.append(
                    f"expected exact tier for {names}/{policy}, "
                    f"got {response.status}")
            payloads["|".join(names) + "/" + policy] = json.dumps(
                response.payload, sort_keys=True)
        return payloads

    def close(self):
        self.server.drain(timeout=5.0)


def metrics_query(names, policy, tlb=None, deadline=None):
    return PlacementQuery(kind="metrics", workloads=tuple(names),
                          policy=policy, l2_tlb_entries=tlb,
                          deadline_s=deadline)


def drive_steady_state(driver, traffic):
    """Cold pass (simulated tier) then warm pass (exact tier)."""
    for names, policy in traffic:
        response = driver.ask(metrics_query(names, policy))
        if response.status != STATUS_SIMULATED:
            driver.violations.append(
                f"cold query {names}/{policy} expected simulated, "
                f"got {response.status}: {response.detail}")
    for names, policy in traffic:
        response = driver.ask(metrics_query(names, policy))
        if response.status != STATUS_EXACT:
            driver.violations.append(
                f"warm query {names}/{policy} expected exact, "
                f"got {response.status}: {response.detail}")


def drive_chaos(driver, traffic):
    """Two-phase chaos episode; returns the chaos record for the JSON."""
    breaker = driver.server.breaker
    variants = [(names, policy, tlb)
                for tlb in CHAOS_TLB_SIZES
                for names, policy in traffic[:2]]
    cursor = 0

    def next_uncached():
        nonlocal cursor
        names, policy, tlb = variants[cursor % len(variants)]
        cursor += 1
        return metrics_query(names, policy, tlb=tlb)

    # Phase 1: every first attempt crashes -> retried outcomes feed the
    # breaker until it opens.
    faults.install_faults([faults.FaultSpec(
        kind=faults.KIND_CRASH, label="*", fail_attempts=1)])
    to_trip = 0
    try:
        while breaker.state != BREAKER_OPEN:
            if to_trip >= MAX_CHAOS_QUERIES:
                driver.violations.append("breaker never tripped")
                break
            driver.ask(next_uncached())
            to_trip += 1
    finally:
        faults.clear_faults()

    tripped = breaker.trips >= 1 and breaker.state == BREAKER_OPEN

    # Phase 2: faults cleared; keep the traffic coming until a half-open
    # probe succeeds and the breaker closes.
    to_recover = 0
    while breaker.state != BREAKER_CLOSED:
        if to_recover >= MAX_CHAOS_QUERIES:
            driver.violations.append("breaker never recovered")
            break
        driver.ask(next_uncached())
        to_recover += 1

    recovered = breaker.recoveries >= 1 and breaker.state == BREAKER_CLOSED
    return {"enabled": True, "tripped": tripped, "recovered": recovered,
            "queries_to_trip": to_trip, "queries_to_recover": to_recover,
            "retries_injected": driver.server.supervision_stats.retries}


def drive_pressure(driver, traffic):
    """Resource-watermark episode: shed to estimate, then recover.

    Mirrors ``tests/serve/test_resources.py``: an injected
    ``host_pressure`` reading must shed an uncached query to the
    estimate tier (labeled, breaker untouched), and clearing it must
    restore the simulated tier on the very next query.
    """
    names, policy = traffic[0]
    uncached = 3072  # a TLB size no other phase addresses
    faults.install_faults([faults.FaultSpec(
        kind=faults.KIND_HOST_PRESSURE, available_mb=0.0)])
    try:
        shed = driver.ask(metrics_query(names, policy, tlb=uncached))
    finally:
        faults.clear_faults()
    shed_ok = shed.status == STATUS_ESTIMATE
    if not shed_ok:
        driver.violations.append(
            f"pressured query expected estimate tier, got "
            f"{shed.status}: {shed.detail}")
    recovered = driver.ask(metrics_query(names, policy, tlb=uncached))
    recovered_ok = recovered.status == STATUS_SIMULATED
    if not recovered_ok:
        driver.violations.append(
            f"post-pressure query expected simulated tier, got "
            f"{recovered.status}: {recovered.detail}")
    return {"enabled": True, "shed_to_estimate": shed_ok,
            "recovered_simulated": recovered_ok}


def run(args):
    traffic = TRAFFIC[:4] if args.smoke else TRAFFIC
    workdir = Path(tempfile.mkdtemp(prefix="bench_serve_"))
    started = time.monotonic()
    try:
        driver = Driver(workdir / "cache", args)
        drive_steady_state(driver, traffic)

        chaos = {"enabled": False}
        pressure = {"enabled": False}
        if args.faults:
            chaos = drive_chaos(driver, traffic)
            pressure = drive_pressure(driver, traffic)

        # Byte-identity: the surviving server's exact answers must match
        # a fault-free reference on a fresh cache, byte for byte.
        payloads = driver.exact_payloads(traffic)
        reference = Driver(workdir / "reference", args)
        drive_steady_state(reference, traffic)
        ref_payloads = reference.exact_payloads(traffic)
        byte_identical = payloads == ref_payloads
        if not byte_identical:
            diverged = [k for k in payloads
                        if payloads.get(k) != ref_payloads.get(k)]
            driver.violations.append(
                f"exact payloads diverged from fault-free reference: "
                f"{', '.join(diverged)}")

        doc = {
            "benchmark": "serve_load",
            "smoke": args.smoke,
            "scale": args.scale,
            "warps": args.warps,
            "deadline_s": args.deadline,
            "queries": len(driver.samples),
            "wall_seconds": round(time.monotonic() - started, 3),
            "tiers": tier_summary(driver.samples),
            "breaker": driver.server.breaker.snapshot(),
            "queue": {"shed": driver.server.queue.shed,
                      "coalesced": driver.server.queue.coalesced},
            "chaos": {**chaos, "byte_identical_exact": byte_identical},
            "resources": {**driver.server.resources_snapshot(),
                          "episode": pressure},
            "violations": driver.violations + reference.violations,
        }
        driver.close()
        reference.close()
        return doc
    finally:
        faults.clear_faults()
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="reduced traffic for CI smoke runs")
    parser.add_argument("--faults", action="store_true",
                        help="run the two-phase chaos episode")
    parser.add_argument("--json", metavar="PATH",
                        help="write the results document to PATH")
    parser.add_argument("--scale", type=float, default=0.05,
                        help="workload scale per query (default 0.05)")
    parser.add_argument("--warps", type=int, default=2,
                        help="warps per SM per query (default 2)")
    parser.add_argument("--deadline", type=float, default=120.0,
                        help="per-query deadline, seconds (default 120)")
    parser.add_argument("--max-events", type=int, default=50_000_000,
                        help="event budget per simulation")
    args = parser.parse_args(argv)

    doc = run(args)

    print(f"serve load: {doc['queries']} queries "
          f"in {doc['wall_seconds']}s")
    for status, row in doc["tiers"].items():
        print(f"  {status:>9}: n={row['count']:<4} "
              f"p50={row['p50_ms']}ms p90={row['p90_ms']}ms "
              f"p99={row['p99_ms']}ms")
    if doc["chaos"]["enabled"]:
        print(f"  breaker: tripped after {doc['chaos']['queries_to_trip']} "
              f"queries, recovered after "
              f"{doc['chaos']['queries_to_recover']} "
              f"(trips={doc['breaker']['trips']}, "
              f"recoveries={doc['breaker']['recoveries']})")
    if doc["resources"]["episode"]["enabled"]:
        episode = doc["resources"]["episode"]
        print(f"  pressure: shed_to_estimate={episode['shed_to_estimate']} "
              f"recovered_simulated={episode['recovered_simulated']} "
              f"(sheds={doc['resources']['sheds']})")
    print(f"  exact answers byte-identical to fault-free reference: "
          f"{doc['chaos']['byte_identical_exact']}")

    if args.json:
        Path(args.json).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                   + "\n")
        print(f"  wrote {args.json}")

    if doc["violations"]:
        for violation in doc["violations"]:
            print(f"VIOLATION: {violation}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
