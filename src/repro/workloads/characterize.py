"""Measurement of workload TLB-miss intensity (paper Table II's MPMI).

The paper classifies applications by L2 TLB misses per million
instructions (MPMI) measured stand-alone on the baseline.  This module
runs a workload alone on the baseline configuration and reports its
measured MPMI and band.

The classification uses the *warm* (last completed) execution: the
paper's benchmarks run billions of instructions, so their MPMI is
steady-state; at our scaled trace lengths the one-off first-touch TLB
misses would otherwise dominate.  The cold-execution figure is reported
alongside for transparency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.config import GpuConfig
from repro.harness.parallel import simulate
from repro.tenancy.manager import DEFAULT_MAX_EVENTS
from repro.tenancy.tenant import Tenant
from repro.workloads.base import Workload

LIGHT_BOUND = 25.0
HEAVY_BOUND = 80.0


def band_of(mpmi: float) -> str:
    """Table II banding: Light < 25 < Medium < 80 < Heavy."""
    if mpmi < LIGHT_BOUND:
        return "L"
    if mpmi > HEAVY_BOUND:
        return "H"
    return "M"


@dataclass(frozen=True)
class Characterization:
    """Stand-alone measurement of one workload."""

    name: str
    instructions: int      # warm execution
    l2_tlb_misses: int     # warm execution
    ipc: float             # warm execution
    cold_mpmi: float       # first execution, including first-touch misses

    @property
    def mpmi(self) -> float:
        """Steady-state L2 TLB misses per million instructions."""
        if not self.instructions:
            return 0.0
        return self.l2_tlb_misses / self.instructions * 1_000_000

    @property
    def band(self) -> str:
        return band_of(self.mpmi)


def characterize(
    workload: Workload,
    config: Optional[GpuConfig] = None,
    warps_per_sm: int = 4,
    seed: int = 0,
) -> Characterization:
    """Run ``workload`` alone on the baseline and measure its MPMI."""
    result = simulate(config or GpuConfig.baseline(), [Tenant(0, workload)],
                      warps_per_sm=warps_per_sm, seed=seed,
                      max_events=DEFAULT_MAX_EVENTS, min_executions=2)
    executions = result.tenants[0].executions
    warm = executions[-1]
    return Characterization(
        name=workload.name,
        instructions=warm.instructions,
        l2_tlb_misses=warm.l2_tlb_misses,
        ipc=warm.ipc,
        cold_mpmi=executions[0].mpmi,
    )
