"""Multi-tenant execution driver implementing the paper's methodology.

Section III: "Applications running as co-tenants do not necessarily have
the same execution length.  We thus continue simulation until both
tenants have completed execution at least once.  If one of the tenants
finishes early then we relaunch the same application ... We measure the
IPC and other statistics for each tenant over all its completed
executions."

:class:`MultiTenantManager` owns one simulator + GPU instance, launches
every tenant's warp streams, relaunches early finishers with fresh
streams, stops when every tenant has at least one completed execution,
and packages per-tenant IPC plus the subsystem statistics into a
:class:`RunResult`.  :func:`collector_quiet` is the scope
:func:`repro.harness.parallel.simulate` builds, runs and drops every
simulation in.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.engine.config import GpuConfig
from repro.engine.rng import DeterministicRng
from repro.engine.simulator import EventBudgetExceeded, Simulator
from repro.gpu.gpu import Gpu
from repro.integrity.config import IntegrityConfig, active_config
from repro.tenancy.tenant import Tenant

#: The event budget a simulation gets unless it asks for another: the
#: default of every :class:`~repro.harness.parallel.Job` (seed studies
#: included), of :class:`~repro.harness.runner.Session` and of
#: ``characterize``.  A run that exhausts it raises
#: :class:`~repro.engine.simulator.EventBudgetExceeded`.
DEFAULT_MAX_EVENTS = 200_000_000


@dataclass
class ExecutionStats:
    """Measurements for one completed execution of a tenant."""

    instructions: int
    cycles: int
    l2_tlb_misses: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpmi(self) -> float:
        """L2 TLB misses per million instructions during this execution."""
        if not self.instructions:
            return 0.0
        return self.l2_tlb_misses / self.instructions * 1_000_000


@dataclass
class TenantRunStats:
    """Per-tenant measurements over completed executions."""

    tenant_id: int
    workload_name: str
    instructions: int = 0
    cycles: int = 0
    completed_executions: int = 0
    executions: List[ExecutionStats] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


@dataclass
class RunResult:
    """Everything one multi-tenant simulation produced."""

    config: GpuConfig
    tenants: Dict[int, TenantRunStats]
    total_cycles: int
    stats: Dict[str, float] = field(default_factory=dict)
    events_fired: int = 0
    #: wall-clock seconds the simulation took on the machine that ran it.
    #: Not part of the simulated state — it feeds the campaign
    #: scheduler's cost model and the wall-time summaries, and it is
    #: (with ``retries``) allowed to differ between two runs of the
    #: same job.
    wall_seconds: float = 0.0
    #: how many failed attempts preceded this result (0 = clean first
    #: try).  Execution metadata like ``wall_seconds``: set by the
    #: supervised dispatcher, surfaced in the wall-time summaries so a
    #: degraded run is visible, never part of the simulated state.
    retries: int = 0

    @property
    def tenant_ids(self) -> List[int]:
        return sorted(self.tenants)

    def ipc_of(self, tenant_id: int) -> float:
        return self.tenants[tenant_id].ipc

    def stat(self, name: str, default: float = 0.0) -> float:
        return self.stats.get(name, default)


@contextmanager
def collector_quiet() -> Iterator[None]:
    """Pause the cyclic garbage collector while one simulation is built
    and run, then free its object graph in one young-generation pass.

    A simulation is a cyclic graph of thousands of GC-tracked objects
    (simulator, GPU, SMs, TLBs, walkers, the event ring) that reference
    counting cannot free.  With the collector running, young passes
    during construction and the run promote the live graph, so once
    dropped it waits for a full collection over every tracked object in
    the process.  Paused, the graph stays in generation 0, and since a
    running simulation makes no cyclic garbage of its own
    (``tests/tenancy/test_collector_quiet.py``) the pause cannot grow
    memory past what the live graph holds.  On exit, also by exception,
    the collector is re-enabled and one ``gc.collect(0)`` frees the
    graph, provided no frame still holds the manager: callers ``del`` it
    inside the block.  What survives (the :class:`RunResult`, new
    trace-memo entries) moves to generation 1 as it would have anyway.

    A collector that the caller or an enclosing scope already disabled
    is left alone and nothing is collected, so nested scopes and
    concurrent threads need no special case.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect(0)


class MultiTenantManager:
    """Runs a set of tenants on one GPU until all complete at least once."""

    def __init__(
        self,
        config: GpuConfig,
        tenants: Sequence[Tenant],
        warps_per_sm: int = 4,
        seed: int = 0,
        max_events: int = DEFAULT_MAX_EVENTS,
        min_executions: int = 1,
        integrity: Optional[IntegrityConfig] = None,
        label: Optional[str] = None,
    ) -> None:
        if min_executions < 1:
            raise ValueError("min_executions must be at least 1")
        if not tenants:
            raise ValueError("need at least one tenant")
        ids = [t.tenant_id for t in tenants]
        if len(set(ids)) != len(ids):
            raise ValueError("tenant ids must be unique")
        self.config = config
        self.tenants = list(tenants)
        self.warps_per_sm = warps_per_sm
        self.rng = DeterministicRng(seed)
        self.max_events = max_events
        self.min_executions = min_executions
        self.integrity = integrity
        self.label = label
        self.sim = Simulator()
        self.gpu = Gpu(self.sim, config, ids)
        self._stats: Dict[int, TenantRunStats] = {}
        self._launch_time: Dict[int, int] = {}
        self._launch_instructions: Dict[int, int] = {}
        self._launch_misses: Dict[int, int] = {}
        self._relaunch_count: Dict[int, int] = {}
        for tenant in self.tenants:
            context = self.gpu.add_tenant(tenant.tenant_id)
            self._stats[tenant.tenant_id] = TenantRunStats(
                tenant.tenant_id, tenant.name
            )
            self._relaunch_count[tenant.tenant_id] = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> RunResult:
        harness = self._integrity_harness()
        if harness is None:
            return self._run()
        with harness:
            return self._run()

    def _integrity_harness(self):
        """The integrity attachment for this run, or None for the
        zero-overhead default.

        The explicit ``integrity=`` constructor argument wins; otherwise
        the ambient ``REPRO_INTEGRITY`` config (installed by the CLI or
        inherited by a campaign worker) applies.  The uninstalled cost
        is one environment lookup per *run*, never per event.
        """
        config = self.integrity if self.integrity is not None \
            else active_config()
        if config is None or not config.enabled:
            return None
        from repro.integrity.harness import IntegrityHarness
        return IntegrityHarness(self, config, label=self.label)

    def _run(self) -> RunResult:
        start = time.perf_counter()
        for tenant in self.tenants:
            self._launch(tenant)
        # Completion is signalled by _on_tenant_complete via sim.stop(),
        # which stops at the same event boundary a per-event stop_when
        # poll would — without paying for the poll on every event.
        fired = self.sim.run(max_events=self.max_events)
        if not self._all_completed_once():
            raise EventBudgetExceeded(
                "simulation exhausted max_events before every tenant "
                "completed once; raise max_events or shrink the workload",
                sim_time=self.sim.now,
                events_fired=fired,
                incomplete_tenants=sorted(
                    t for t, s in self._stats.items()
                    if s.completed_executions < self.min_executions),
            )
        snapshot = self.sim.stats.snapshot()
        self._add_share_stats(snapshot)
        return RunResult(
            config=self.config,
            tenants=self._stats,
            total_cycles=self.sim.now,
            stats=snapshot,
            events_fired=fired,
            wall_seconds=time.perf_counter() - start,
        )

    def _add_share_stats(self, snapshot: Dict[str, float]) -> None:
        """Flatten the time-weighted occupancy samplers (Figure 9 data)."""
        seen_pws = set()
        seen_tlbs = set()
        for tenant in self.tenants:
            tid = tenant.tenant_id
            pws = self.gpu.walk_subsystem_for(tid)
            if id(pws) not in seen_pws:
                seen_pws.add(id(pws))
                inflight = pws.inflight_by_tenant()
                for other in self.tenants:
                    snapshot[f"{pws.name}.walker_share.tenant{other.tenant_id}"] = (
                        pws.mean_walker_share(other.tenant_id)
                    )
                    # The stop condition (every tenant completed once)
                    # legitimately leaves walks in flight; recording how
                    # many lets validate_result close the conservation
                    # identity walks == completed + inflight_at_stop.
                    snapshot[
                        f"{pws.name}.inflight_at_stop.tenant{other.tenant_id}"
                    ] = float(inflight.get(other.tenant_id, 0))
            tlb = self.gpu.l2_tlb_for(tid)
            if id(tlb) not in seen_tlbs:
                seen_tlbs.add(id(tlb))
                for other in self.tenants:
                    snapshot[f"{tlb.name}.tlb_share.tenant{other.tenant_id}"] = (
                        tlb.mean_share(other.tenant_id)
                    )

    def _all_completed_once(self) -> bool:
        return all(
            s.completed_executions >= self.min_executions
            for s in self._stats.values()
        )

    def _launch(self, tenant: Tenant) -> None:
        context = self.gpu.tenants[tenant.tenant_id]
        num_warps = self.warps_per_sm * len(context.sm_ids)
        execution_index = self._relaunch_count[tenant.tenant_id]
        rng = self.rng.fork(f"{tenant.name}.{tenant.tenant_id}.{execution_index}")
        streams = tenant.workload.build_streams(num_warps, rng)
        if not streams:
            raise ValueError(f"workload {tenant.name} produced no warp streams")
        self._launch_time[tenant.tenant_id] = self.sim.now
        self._launch_instructions[tenant.tenant_id] = context.instructions
        self._launch_misses[tenant.tenant_id] = self._misses_now(tenant.tenant_id)
        context.on_complete = lambda t=tenant: self._on_tenant_complete(t)
        self.gpu.launch_warps(tenant.tenant_id, streams)

    def _misses_now(self, tenant_id: int) -> int:
        stat = self.sim.stats.get(f"gpu.l2tlb_misses.tenant{tenant_id}")
        return stat.value if stat is not None else 0  # type: ignore[union-attr]

    def _on_tenant_complete(self, tenant: Tenant) -> None:
        tid = tenant.tenant_id
        stats = self._stats[tid]
        context = self.gpu.tenants[tid]
        instructions = context.instructions - self._launch_instructions[tid]
        cycles = self.sim.now - self._launch_time[tid]
        stats.instructions += instructions
        stats.cycles += cycles
        stats.completed_executions += 1
        stats.executions.append(
            ExecutionStats(
                instructions=instructions,
                cycles=cycles,
                l2_tlb_misses=self._misses_now(tid) - self._launch_misses[tid],
            )
        )
        self._relaunch_count[tid] += 1
        if not self._all_completed_once():
            # Relaunch so the slower tenant(s) keep experiencing contention.
            self._launch(tenant)
        else:
            self.sim.stop()
