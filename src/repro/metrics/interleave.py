"""The interleaving metric of paper Tables III and V.

Interleaving is "the average number of page walks of the other tenant
that a walk request typically waits for": for each walk we count the
other-tenant walks that *entered service* between its enqueue and its own
service start (recorded by the walk subsystem).  Under the baseline
shared FIFO this equals the other-tenant requests queued ahead of it;
under DWS it is bounded by the in-service steals, matching the paper's
"at most one walk from another tenant" argument.
"""

from __future__ import annotations

from repro.tenancy.manager import RunResult


def interleaving_of(result: RunResult, tenant_id: int,
                    subsystem: str = "pws") -> float:
    """Mean interleaving experienced by one tenant's walks."""
    return result.stat(f"{subsystem}.interleave.tenant{tenant_id}.mean")


def mean_interleaving(result: RunResult, subsystem: str = "pws") -> float:
    """Arithmetic mean across tenants (the Tables' last column)."""
    values = [interleaving_of(result, t, subsystem) for t in result.tenant_ids]
    return sum(values) / len(values) if values else 0.0
