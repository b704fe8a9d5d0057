#!/usr/bin/env python3
"""Cloud consolidation study: which co-tenant pairs are safe to pack?

A cloud operator wants to place two tenants on one GPU without
destroying either's performance.  This example sweeps representative
workload pairs from each class (LL .. HH), measures throughput and
fairness under the baseline and under DWS++, and prints a packing
recommendation per pair — the kind of placement table a scheduler
could precompute with this library.

With a running ``python -m repro serve`` (pass ``--server URL`` or set
``REPRO_SERVE_URL``) every row becomes placement queries against the
shared service: per-tenant IPCs come from the pair queries, stand-alone
IPCs from single-workload queries, and fairness/weighted IPC are
derived client-side.  Rows the service could only estimate are marked
``~``; without a reachable server the example runs the library
directly, exactly as before.

Run:  python examples/cloud_consolidation.py [--scale 0.4]
"""

import argparse
import sys

from repro import GpuConfig, Session
from repro.metrics import fairness, total_ipc, weighted_ipc
from repro.workloads.pairs import REPRESENTATIVE_PAIRS, pair_class, split_pair


def verdict_for(w_smart: float, f_smart: float) -> str:
    # A pair packs well if consolidated progress beats time-slicing
    # (weighted IPC > 1) and neither tenant is starved.
    if w_smart > 1.0 and f_smart > 0.3:
        return "pack"
    if w_smart > 0.9:
        return "pack (watch fairness)"
    return "isolate"


def all_pairs():
    return [p for pair_list in REPRESENTATIVE_PAIRS.values()
            for p in pair_list]


def print_legend() -> None:
    print("\n'pack' = consolidated weighted IPC exceeds one GPU's worth of")
    print("time-sliced progress; 'isolate' = contention burns more than")
    print("consolidation saves, give the pair separate GPUs/MIG slices.")


def run_with_library(args) -> None:
    session = Session(scale=args.scale, warps_per_sm=4)
    base_cfg = GpuConfig.baseline()
    smart_cfg = base_cfg.with_policy(args.policy)

    header = (f"{'pair':<11} {'class':<5} {'tIPC base':>9} "
              f"{'tIPC ' + args.policy:>10} {'fair base':>9} "
              f"{'fair ' + args.policy:>10}  verdict")
    print(header)
    print("-" * len(header))
    for pair in all_pairs():
        names = split_pair(pair)
        standalone = session.standalone_ipcs(names)
        base = session.run_pair(pair, base_cfg)
        smart = session.run_pair(pair, smart_cfg)
        t_base, t_smart = total_ipc(base), total_ipc(smart)
        f_base = fairness(base, standalone)
        f_smart = fairness(smart, standalone)
        w_smart = weighted_ipc(smart, standalone)
        verdict = verdict_for(w_smart, f_smart)
        print(f"{pair:<11} {pair_class(pair):<5} {t_base:>9.2f} "
              f"{t_smart:>10.2f} {f_base:>9.2f} {f_smart:>10.2f}  {verdict}")
    print_legend()


def run_with_server(args, url: str) -> bool:
    """Build the table from serve queries; False falls back."""
    from repro.serve.client import ServeClient, ServeUnavailable
    from repro.serve.queries import PlacementQuery

    client = ServeClient(url)

    def tenant_ipcs(names, policy):
        """(per-tenant IPC list or None, total IPC, estimated?)"""
        reply = client.query(PlacementQuery(
            kind="metrics", workloads=names, policy=policy,
            deadline_s=args.deadline))
        tenants = reply.payload.get("tenants")
        ipcs = ([float(t["ipc"]) for t in tenants]
                if tenants is not None else None)
        total = reply.payload.get("total_ipc")
        return ipcs, (float(total) if total is not None else None), \
            reply.estimate

    def standalone_ipc(name):
        ipcs, _total, estimated = tenant_ipcs((name,), "baseline")
        return (ipcs[0] if ipcs else None), estimated

    try:
        print(f"(answers from {url})")
        header = (f"{'pair':<11} {'class':<5} {'tIPC base':>9} "
                  f"{'tIPC ' + args.policy:>10} {'fair base':>9} "
                  f"{'fair ' + args.policy:>10}  verdict")
        print(header)
        print("-" * len(header))
        for pair in all_pairs():
            names = split_pair(pair)
            sa, sa_est = [], False
            for name in names:
                value, estimated = standalone_ipc(name)
                sa.append(value)
                sa_est = sa_est or estimated
            base_ipcs, t_base, base_est = tenant_ipcs(names, "baseline")
            smart_ipcs, t_smart, smart_est = tenant_ipcs(names, args.policy)
            if (t_base is None or t_smart is None or base_ipcs is None
                    or smart_ipcs is None or any(v is None for v in sa)):
                print(f"{pair:<11} {pair_class(pair):<5} "
                      f"{'n/a':>9} {'n/a':>10} — simulation still running")
                continue
            slow_base = [ipc / s for ipc, s in zip(base_ipcs, sa)]
            slow_smart = [ipc / s for ipc, s in zip(smart_ipcs, sa)]
            f_base = min(slow_base) / max(slow_base)
            f_smart = min(slow_smart) / max(slow_smart)
            w_smart = sum(slow_smart)
            verdict = verdict_for(w_smart, f_smart)
            mark = "~" if (sa_est or base_est or smart_est) else " "
            print(f"{pair:<11} {pair_class(pair):<5} {t_base:>9.2f} "
                  f"{t_smart:>10.2f} {f_base:>9.2f} {f_smart:>10.2f} "
                  f"{mark}{verdict}")
        print_legend()
        print("\n('~' marks rows containing interpolated estimates.)")
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
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--policy", default="dwspp",
                        choices=["dws", "dwspp", "static", "mask"])
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
