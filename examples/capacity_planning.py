#!/usr/bin/env python3
"""Capacity planning: how many walkers / TLB entries does a design need?

An architect sizing the next GPU's MMU can ask: with DWS in place, can
we ship fewer page walkers or a smaller L2 TLB?  This example sweeps
walker count and L2 TLB capacity for a contentious pair and reports the
throughput of each (hardware, policy) point — reproducing the
Figure 12 methodology as a design-space exploration tool.

With a running ``python -m repro serve`` (pass ``--server URL`` or set
``REPRO_SERVE_URL``) the sweep is issued as placement queries instead
of local simulations — a warm shared cache answers in milliseconds, and
degraded tiers are marked with ``~`` (estimate) or ``n/a`` (no answer
within the deadline yet).  Without a reachable server the example runs
the library directly, exactly as before.

Run:  python examples/capacity_planning.py [--pair GUPS.3DS] [--scale 0.4]
"""

import argparse
import sys

from repro import GpuConfig, Session
from repro.metrics import total_ipc
from repro.workloads.pairs import split_pair

#: (label, L2 TLB entries override, walker count override); ``None``
#: keeps the Table I baseline value (1024 entries / 16 walkers).
POINTS = [
    ("512-entry TLB", 512, None),
    ("1024-entry TLB", None, None),
    ("2048-entry TLB", 2048, None),
    ("8 walkers", None, 8),
    ("12 walkers", None, 12),
    ("16 walkers", None, None),
    ("24 walkers", None, 24),
    ("2048 TLB + 24 walkers", 2048, 24),
]


def config_for(tlb, walkers) -> GpuConfig:
    cfg = GpuConfig.baseline()
    if tlb is not None:
        cfg = cfg.with_l2_tlb_entries(tlb)
    if walkers is not None:
        cfg = cfg.with_walker_count(walkers)
    return cfg


def print_header(pair: str) -> None:
    print(f"pair {pair}; throughput normalized to the Table I "
          "baseline (1024-entry TLB, 16 walkers, shared queue)\n")
    print(f"{'hardware':<24} {'baseline':>9} {'dws':>9} {'dws gain':>9}")
    print("-" * 54)


def print_footer() -> None:
    print("\nReading the table: if '12 walkers + DWS' matches '16 walkers")
    print("baseline', the soft-partitioned design ships fewer walkers for")
    print("the same multi-tenant throughput.")


def run_with_library(args) -> None:
    session = Session(scale=args.scale, warps_per_sm=4)
    reference = session.run_pair(args.pair, GpuConfig.baseline())
    reference_ipc = total_ipc(reference)

    print_header(args.pair)
    for label, tlb, walkers in POINTS:
        cfg = config_for(tlb, walkers)
        base = total_ipc(session.run_pair(args.pair, cfg)) / reference_ipc
        dws = total_ipc(
            session.run_pair(args.pair, cfg.with_policy("dws"))
        ) / reference_ipc
        gain = dws / base if base else float("nan")
        print(f"{label:<24} {base:>8.3f}x {dws:>8.3f}x {gain:>8.3f}x")
    print_footer()


def run_with_server(args, url: str) -> bool:
    """Issue the sweep as serve queries; False falls back to the library."""
    from repro.serve.client import ServeClient, ServeUnavailable
    from repro.serve.queries import PlacementQuery

    names = split_pair(args.pair)
    client = ServeClient(url)

    def point_ipc(policy, tlb, walkers):
        """(total IPC or None, was it an estimate?)"""
        reply = client.query(PlacementQuery(
            kind="metrics", workloads=names, policy=policy,
            l2_tlb_entries=tlb, walker_count=walkers,
            deadline_s=args.deadline))
        value = reply.payload.get("total_ipc")
        return (float(value) if value is not None else None), reply.estimate

    try:
        reference_ipc, _ = point_ipc("baseline", None, None)
        if not reference_ipc:
            print(f"server {url} has no baseline answer yet; "
                  "falling back to the library", file=sys.stderr)
            return False
        print(f"(answers from {url})")
        print_header(args.pair)
        for label, tlb, walkers in POINTS:
            cells = []
            values = {}
            for policy in ("baseline", "dws"):
                ipc, estimated = point_ipc(policy, tlb, walkers)
                if ipc is None:
                    cells.append(f"{'n/a':>9}")
                else:
                    values[policy] = ipc / reference_ipc
                    mark = "~" if estimated else "x"
                    cells.append(f"{values[policy]:>8.3f}{mark}")
            if "baseline" in values and "dws" in values and values["baseline"]:
                gain = f"{values['dws'] / values['baseline']:>8.3f}x"
            else:
                gain = f"{'n/a':>9}"
            print(f"{label:<24} {cells[0]} {cells[1]} {gain}")
        print_footer()
        print("\n('~' marks interpolated estimates; 'n/a' means the "
              "simulation is still running — re-run to pick it up.)")
        return True
    except ServeUnavailable as exc:
        print(f"server unavailable ({exc}); falling back to the library",
              file=sys.stderr)
        return False
    finally:
        client.close()


def main() -> None:
    from repro.serve.client import server_url

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pair", default="GUPS.3DS")
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--server", default=None,
                        help="repro serve base URL (default: "
                             "$REPRO_SERVE_URL, else run locally)")
    parser.add_argument("--deadline", type=float, default=60.0,
                        help="per-query deadline when using --server")
    args = parser.parse_args()

    url = server_url(args.server)
    if url is not None and run_with_server(args, url):
        return
    run_with_library(args)


if __name__ == "__main__":
    main()
