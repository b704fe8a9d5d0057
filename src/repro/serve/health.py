"""Liveness/readiness reporting for the serve front-end.

``/healthz`` answers "is the process worth keeping alive?" and always
returns a full diagnostic snapshot; ``/readyz`` answers "should a load
balancer send queries here?" and flips to not-ready the moment a drain
begins, so an orchestrator's rolling restart stops routing before the
queue empties.

The snapshot deliberately reuses
:meth:`~repro.harness.supervision.SupervisionStats.to_dict` — the same
machine-readable counters ``repro campaign --supervision-report json``
emits — so CI, the health endpoint and the chaos suite all read one
schema for retries, quarantines and forensics.
"""

from __future__ import annotations

from typing import Dict

#: Overall service statuses.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"    # breaker open or host pressured
STATUS_DRAINING = "draining"


def health_snapshot(server) -> Dict:
    """The ``/healthz`` document for a :class:`~repro.serve.server.ReproServer`.

    The ``resources`` block is the host resource watermark (available
    memory, per-CPU load, pressure booleans, shed counter) — a pressured
    host reports ``degraded``: it still answers, but from the estimate
    tier (see DESIGN.md §16).
    """
    breaker = server.breaker.snapshot()
    supervision = server.supervision_stats.to_dict()
    resources = server.resources_snapshot()
    if server.draining:
        status = STATUS_DRAINING
    elif breaker["state"] != "closed" or resources["pressured"]:
        # No pool fallback to report: serve runs its one background job
        # at a time in-process, so ``degraded_serial`` is never set.
        status = STATUS_DEGRADED
    else:
        status = STATUS_OK
    return {
        "status": status,
        "ready": server.ready,
        "queries": dict(server.tier_counters()),
        "queue": {
            "depth": server.queue.depth(),
            "inflight": server.queue.inflight(),
            "capacity": server.queue.max_depth,
            "shed": server.queue.shed,
            "coalesced": server.queue.coalesced,
        },
        "breaker": breaker,
        "resources": resources,
        "cache": server.cache_snapshot(),
        "estimator_entries": len(server.index),
        "supervision": supervision,
        "forensics_bundles": len(server.supervision_stats.forensics),
        "resumed_jobs": server.resumed_jobs,
    }


def ready_snapshot(server) -> Dict:
    """The ``/readyz`` document: minimal, load-balancer-friendly."""
    return {"ready": server.ready,
            "draining": server.draining,
            "queue_depth": server.queue.depth()}
