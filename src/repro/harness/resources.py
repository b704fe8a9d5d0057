"""Resource governance: per-job memory budgets and host-pressure gating.

The serve layer and campaign executor accept unbounded work whose only
limits so far were wall-clock deadlines and event budgets.  Neither
protects the *host*: a runaway simulation's RSS can OOM the machine and
a busy box can thrash long before any deadline fires.  This module adds
the two missing signals, built only on what the standard library and
``/proc`` already provide:

* **Per-job RSS budgets** — :class:`RssSampler` tracks a job's peak
  resident set from inside the worker process; :func:`check_rss_budget`
  raises a typed, picklable :class:`ResourceBudgetExceeded` when the
  sampled peak crosses ``Job.max_rss_mb``.  Supervision treats that as
  a *no-retry quarantine*: a job that blew its budget once will blow it
  again, and retrying only re-threatens the host.
* **Host pressure** — :class:`HostPressureMonitor` samples available
  memory (``/proc/meminfo`` ``MemAvailable``) and per-CPU load
  (``os.getloadavg``) against :class:`PressurePolicy` watermarks.  The
  serve layer uses it to shed new queries to the estimate tier instead
  of admitting more simulations.

Honesty note on budget semantics: enforcement is *cooperative*.  The
sampler observes the worker's RSS before and after the simulation runs
(plus a low-frequency background thread in between); a truly pathological
allocation can still OOM before a sample lands, in which case the worker
dies and supervision sees an ordinary worker-death crash domain.  The
budget's value is converting the diagnosable case — a job whose working
set exceeds what the operator provisioned — into a deterministic,
forensics-carrying quarantine instead of machine-wide collateral damage.

Every reader is fault-injectable through ``REPRO_FAULTS`` kinds
``rss_spike`` and ``host_pressure`` (see :mod:`repro.harness.faults`),
so the chaos suite drives the whole ladder — budget kill, serve shed —
from numbers the test chose, never from whatever the CI host happens
to be doing.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

from repro.engine.simulator import SimulationError
from repro.harness import faults

MB = 1024 * 1024


class ResourceBudgetExceeded(SimulationError):
    """A job breached its resource budget.

    Raised worker-side by :func:`check_rss_budget`; picklable across the
    process boundary like every :class:`SimulationError`.  Supervision
    treats it as fatal (no retry): the breach is a property of the job's
    working set, not a transient, so the only safe disposition is
    quarantine with forensics.
    """

    def __init__(self, message: str, *, resource: str = "rss",
                 observed_mb: float = 0.0, budget_mb: float = 0.0,
                 **context) -> None:
        super().__init__(message, **context)
        self.resource = resource
        self.observed_mb = float(observed_mb)
        self.budget_mb = float(budget_mb)

    def details(self) -> dict:
        out = super().details()
        out["resource"] = self.resource
        out["observed_mb"] = self.observed_mb
        out["budget_mb"] = self.budget_mb
        return out


# ----------------------------------------------------------------------
# Readings (every probe is fault-injectable and degrades to "unknown")
# ----------------------------------------------------------------------
def _proc_status_mb(field: str) -> Optional[float]:
    """A ``/proc/self/status`` memory field (``VmRSS``/``VmHWM``) in MB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0  # value is in kB
    except (OSError, ValueError, IndexError):
        return None
    return None


def _getrusage_peak_mb() -> Optional[float]:
    """Lifetime peak RSS via ``getrusage`` (fallback when /proc absent)."""
    try:
        import resource
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    except (ImportError, OSError, ValueError):
        return None
    # ru_maxrss is KiB on Linux, bytes on macOS.
    return peak / MB if sys.platform == "darwin" else peak / 1024.0


def current_rss_mb(label: str = "*") -> float:
    """This process's current resident set in MB (0.0 when unreadable).

    An installed ``rss_spike`` fault matching ``label`` overrides the
    reading — that is how tests make "this job allocated too much"
    deterministic.
    """
    spec = faults.resource_reading(faults.KIND_RSS_SPIKE, label)
    if spec is not None:
        return float(spec.rss_mb)
    reading = _proc_status_mb("VmRSS")
    if reading is not None:
        return reading
    return _getrusage_peak_mb() or 0.0


def lifetime_peak_rss_mb(label: str = "*") -> float:
    """Process-lifetime RSS high-water mark in MB (forensics only).

    In a persistent pool worker this includes *previous* jobs' peaks, so
    it must never decide a budget verdict — :class:`RssSampler` bases the
    verdict on samples taken during the job.  It is recorded in the
    forensics bundle because "the process had already been that big"
    is exactly what an operator wants to know.
    """
    spec = faults.resource_reading(faults.KIND_RSS_SPIKE, label)
    if spec is not None:
        return float(spec.rss_mb)
    reading = _proc_status_mb("VmHWM")
    if reading is not None:
        return reading
    return _getrusage_peak_mb() or 0.0


def read_available_mb() -> Optional[float]:
    """Host available memory in MB, or ``None`` when unreadable.

    ``None`` means "no signal", which the monitor treats as unpressured —
    governance must never degrade a run because /proc is missing.
    """
    spec = faults.resource_reading(faults.KIND_HOST_PRESSURE)
    if spec is not None:
        return float(spec.available_mb)
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        return None
    return None


def read_load_per_cpu() -> float:
    """1-minute load average divided by CPU count (0.0 when unreadable).

    The injected ``host_pressure`` reading is already per-CPU so the
    chaos threshold does not depend on the test machine's core count.
    """
    spec = faults.resource_reading(faults.KIND_HOST_PRESSURE)
    if spec is not None:
        return float(spec.load)
    try:
        load1 = os.getloadavg()[0]
    except (OSError, AttributeError):
        return 0.0
    return load1 / (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# Per-job budget enforcement (worker side)
# ----------------------------------------------------------------------
class RssSampler:
    """Tracks the peak of this process's RSS over a job's lifetime.

    Used as a context manager around one job attempt: samples at entry
    and exit, and (when ``interval_s`` > 0) from a daemon thread in
    between so a long simulation's mid-run peak is not missed.  The
    verdict value is ``peak_mb`` — the max over *samples taken during
    this job*, deliberately not the process-lifetime high-water mark
    (see :func:`lifetime_peak_rss_mb`).
    """

    def __init__(self, label: str = "*", interval_s: float = 0.25) -> None:
        self.label = label
        self.interval_s = interval_s
        self.peak_mb = 0.0
        self.samples = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def sample(self) -> float:
        reading = current_rss_mb(self.label)
        self.samples += 1
        if reading > self.peak_mb:
            self.peak_mb = reading
        return self.peak_mb

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def __enter__(self) -> "RssSampler":
        self.sample()
        if self.interval_s > 0:
            self._thread = threading.Thread(
                target=self._loop, name="rss-sampler", daemon=True)
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None
        self.sample()

    def snapshot(self) -> dict:
        """Forensics-bundle view of what the sampler saw."""
        return {
            "peak_rss_mb": round(self.peak_mb, 3),
            "lifetime_hwm_mb": round(lifetime_peak_rss_mb(self.label), 3),
            "samples": self.samples,
        }


def check_rss_budget(label: str, max_rss_mb: Optional[float],
                     sampler: RssSampler) -> None:
    """Take a sample and raise if the job's peak crossed its budget."""
    if max_rss_mb is None:
        return
    sampler.sample()
    if sampler.peak_mb > max_rss_mb:
        raise ResourceBudgetExceeded(
            f"job {label!r} peak RSS {sampler.peak_mb:.1f} MB exceeded "
            f"its {max_rss_mb:g} MB budget",
            resource="rss", observed_mb=sampler.peak_mb,
            budget_mb=max_rss_mb, label=label)


# ----------------------------------------------------------------------
# Host pressure (parent side)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PressurePolicy:
    """Watermarks below/above which the host counts as pressured."""

    #: Host available memory below this is memory pressure.
    min_available_mb: float = 256.0
    #: 1-minute load average per CPU above this is load pressure.
    max_load_per_cpu: float = 8.0
    #: Minimum seconds between fresh samples (probe throttle).  Ignored
    #: while a fault plan is installed so chaos tests see every reading.
    min_interval_s: float = 0.5

    def __post_init__(self) -> None:
        if self.min_available_mb < 0:
            raise ValueError("min_available_mb must be non-negative")
        if self.max_load_per_cpu <= 0:
            raise ValueError("max_load_per_cpu must be positive")


@dataclass(frozen=True)
class PressureReading:
    """One sample of the host's memory/load state."""

    available_mb: Optional[float]
    load_per_cpu: float
    memory_pressured: bool
    load_pressured: bool

    @property
    def pressured(self) -> bool:
        return self.memory_pressured or self.load_pressured


class HostPressureMonitor:
    """Samples host pressure against a :class:`PressurePolicy`.

    Deliberately stateless about *what* reacts to pressure: the serve
    layer asks :meth:`sample` per query and sheds on its own.  Counters
    (``samples``, ``pressured_samples``) feed the ``/healthz`` resources
    block.
    """

    def __init__(self, policy: Optional[PressurePolicy] = None) -> None:
        self.policy = policy or PressurePolicy()
        self.samples = 0
        self.pressured_samples = 0
        self._last: Optional[PressureReading] = None
        self._last_at = float("-inf")

    def sample(self, force: bool = False) -> PressureReading:
        now = time.monotonic()
        throttled = (not force and self._last is not None
                     and now - self._last_at < self.policy.min_interval_s
                     and not faults.faults_active())
        if throttled:
            return self._last
        available = read_available_mb()
        load = read_load_per_cpu()
        reading = PressureReading(
            available_mb=available,
            load_per_cpu=load,
            memory_pressured=(available is not None
                              and available < self.policy.min_available_mb),
            load_pressured=load > self.policy.max_load_per_cpu,
        )
        self._last = reading
        self._last_at = now
        self.samples += 1
        if reading.pressured:
            self.pressured_samples += 1
        return reading

    def snapshot(self) -> dict:
        """JSON-portable telemetry for ``/healthz`` and reports."""
        reading = self.sample()
        return {
            "available_mb": (None if reading.available_mb is None
                             else round(reading.available_mb, 1)),
            "load_per_cpu": round(reading.load_per_cpu, 3),
            "pressured": reading.pressured,
            "memory_pressured": reading.memory_pressured,
            "load_pressured": reading.load_pressured,
            "watermarks": {
                "min_available_mb": self.policy.min_available_mb,
                "max_load_per_cpu": self.policy.max_load_per_cpu,
            },
            "samples": self.samples,
            "pressured_samples": self.pressured_samples,
        }
