"""IntegrityHarness: attach auditor, watchdog and forensics to a run.

The harness is a context manager wrapped around exactly one
``MultiTenantManager.run()``.  On entry it builds whatever the
:class:`~repro.integrity.config.IntegrityConfig` asks for and installs
a single per-event hook on the simulator (``sim.audit_hook``), which
the engine calls between events — after one fires and before the next
is popped, when component state is quiescent.  One hook serves three
masters, in a deliberate order:

1. **corruption faults** — any installed ``corrupt``-kind
   :class:`~repro.harness.faults.FaultSpec` is applied once its
   ``after_events`` threshold passes, deliberately breaking walker
   occupancy or walk accounting so that…
2. **the auditor** sweeps (every event in ``full``, every
   ``audit_interval`` events in ``cheap``) and catches it on the very
   next line, and
3. **the watchdog** snapshots progress every ``window // 4`` events.

On exit everything is detached — the simulator, subsystems and tracers
return to their unhooked state — and if the run died with a
:class:`~repro.engine.simulator.SimulationError` while a forensics
directory is configured, a replayable bundle is written and its path
pinned to the exception as ``bundle_path`` before it propagates.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.engine.simulator import SimulationError
from repro.engine.trace import Tracer
from repro.harness import faults
from repro.integrity.auditor import Auditor, build_auditor
from repro.integrity.config import AUDIT_FULL, IntegrityConfig
from repro.integrity.forensics import _trace_payload, write_bundle
from repro.integrity.watchdog import ProgressWatchdog


class IntegrityHarness:
    """Scoped attachment of the integrity layer to one manager run."""

    def __init__(self, manager, config: IntegrityConfig,
                 label: Optional[str] = None) -> None:
        self.manager = manager
        self.config = config
        self.label = label
        self.auditor: Optional[Auditor] = None
        self.watchdog: Optional[ProgressWatchdog] = None
        self.events_seen = 0
        self._subsystems = manager.gpu.walk_subsystems()
        self._attached_tracers: List = []
        self._corruptions = tuple(
            s for s in faults.corruption_specs()
            if s.label in ("*", label or ""))
        self._corruptions_applied: Set[int] = set()

    # ------------------------------------------------------------------
    # Context management
    # ------------------------------------------------------------------
    def __enter__(self) -> "IntegrityHarness":
        cfg = self.config
        if cfg.audit_enabled:
            self.auditor = build_auditor(self.manager, cfg)
            if cfg.audit == AUDIT_FULL:
                # Per-transition checks: the subsystem calls back into
                # the auditor on every walk service start/completion.
                for pws in self._subsystems:
                    pws.auditor = self.auditor
        if cfg.watchdog_enabled:
            self.watchdog = ProgressWatchdog(self.manager, cfg.watchdog_window)
        if cfg.forensics_dir is not None:
            # A bounded event ring so the bundle shows the last moments
            # of the run; leave any user-attached tracer alone.
            for pws in self._subsystems:
                if pws.tracer is None:
                    tracer = Tracer(capacity=cfg.ring_capacity)
                    pws.tracer = tracer
                    self._attached_tracers.append(pws)
        if (self.auditor is not None or self.watchdog is not None
                or self._corruptions):
            self.manager.sim.audit_hook = self._on_event
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.manager.sim.audit_hook = None
        for pws in self._subsystems:
            pws.auditor = None
        if (exc is not None and isinstance(exc, SimulationError)
                and self.config.forensics_dir is not None):
            try:
                exc.bundle_path = str(self.capture(exc))
            except (OSError, ValueError):
                pass  # forensics must never mask the original failure
        for pws in self._attached_tracers:
            pws.tracer = None
        self._attached_tracers = []
        return False

    # ------------------------------------------------------------------
    # The per-event hook
    # ------------------------------------------------------------------
    def _on_event(self) -> None:
        self.events_seen += 1
        n = self.events_seen
        if self._corruptions:
            for index, spec in enumerate(self._corruptions):
                if n >= spec.after_events and index not in \
                        self._corruptions_applied:
                    self._corruptions_applied.add(index)
                    self._apply_corruption(spec)
        auditor = self.auditor
        if auditor is not None and n % auditor.interval == 0:
            auditor.sweep()
        watchdog = self.watchdog
        if watchdog is not None and n % watchdog.check_every == 0:
            watchdog.check(n)

    def _apply_corruption(self, spec) -> None:
        """Deliberately break one invariant (chaos testing the auditor)."""
        pws = self._subsystems[0]
        tenants = sorted(pws.page_tables) or [0]
        t = tenants[0]
        if spec.target == "busy":
            # Skew the per-tenant busy-walker ledger away from the
            # walkers' actual busy flags.
            pws._busy_by_tenant[t] = pws._busy_by_tenant.get(t, 0) - 1
        else:  # "walks"
            # Phantom enqueue: walks counter no longer balances against
            # completed + in-flight.
            pws.sim.stats.counter(f"{pws.name}.walks.tenant{t}").inc()

    # ------------------------------------------------------------------
    # Forensics
    # ------------------------------------------------------------------
    def capture(self, error: BaseException):
        """Write a replayable bundle for ``error`` and return its path.

        The bundle marks its job replayable only when one
        :class:`~repro.harness.parallel.Job` describes the run exactly:
        every tenant an unmodified suite benchmark, all at one scale,
        each run to one completed execution.
        """
        from repro.harness.parallel import Job
        from repro.workloads.suite import BENCHMARKS

        manager = self.manager
        workloads = [tenant.workload for tenant in manager.tenants]
        scales = {getattr(workload, "scale", None) for workload in workloads}
        scale = scales.pop() if len(scales) == 1 else None
        replayable = (
            scale is not None and manager.min_executions == 1
            and all(w.name in BENCHMARKS
                    and getattr(w, "spec", None) == BENCHMARKS[w.name]
                    for w in workloads))
        job = Job(label=self.label or "",
                  names=tuple(workload.name for workload in workloads),
                  config=manager.config, scale=scale,
                  warps_per_sm=manager.warps_per_sm, seed=manager.rng.seed,
                  max_events=manager.max_events)
        return write_bundle(
            self.config.forensics_dir,
            error=error,
            job=job,
            replayable=replayable,
            integrity=self.config,
            stats=manager.sim.stats.snapshot(),
            sim_now=manager.sim.now,
            events_fired=self.events_seen,
            trace_records=_trace_payload(self._subsystems),
        )
