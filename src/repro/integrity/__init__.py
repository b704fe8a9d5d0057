"""Simulation integrity layer: auditor, watchdog, crash forensics.

Three guarantees, layered over the MMU core without touching its hot
path when disabled:

* :class:`Auditor` — runtime re-derivation of the simulator's
  conservation laws (walk accounting, walker occupancy, soft-partition
  reservations, TLB/PWC bounds, monotonic time) at ``off``/``cheap``/
  ``full`` intensity;
* :class:`ProgressWatchdog` — livelock and per-tenant starvation
  detection in units of events fired, raising a typed
  :class:`ProgressStall` naming the stuck tenants;
* crash forensics — every :class:`SimulationError` captured as a
  replayable JSON bundle (:func:`write_bundle` / :func:`replay_bundle`)
  with the exact ``python -m repro replay`` command inside.

Everything is driven by one frozen :class:`IntegrityConfig`, passed
explicitly to ``MultiTenantManager`` or installed ambiently via the
``REPRO_INTEGRITY`` environment variable (:func:`install`) so campaign
workers inherit it.
"""

from repro.integrity.auditor import Auditor, build_auditor
from repro.integrity.config import (AUDIT_CHEAP, AUDIT_FULL, AUDIT_LEVELS,
                                    AUDIT_OFF, INTEGRITY_ENV, IntegrityConfig,
                                    active_config, clear_install, install)
from repro.integrity.errors import InvariantViolation, ProgressStall
from repro.integrity.forensics import (BUNDLE_FORMAT, ReplayOutcome,
                                       load_bundle, replay_bundle,
                                       write_bundle)
from repro.integrity.harness import IntegrityHarness
from repro.integrity.watchdog import ProgressWatchdog

__all__ = [
    "AUDIT_CHEAP",
    "AUDIT_FULL",
    "AUDIT_LEVELS",
    "AUDIT_OFF",
    "Auditor",
    "BUNDLE_FORMAT",
    "INTEGRITY_ENV",
    "IntegrityConfig",
    "IntegrityHarness",
    "InvariantViolation",
    "ProgressStall",
    "ProgressWatchdog",
    "ReplayOutcome",
    "active_config",
    "build_auditor",
    "clear_install",
    "install",
    "load_bundle",
    "replay_bundle",
    "write_bundle",
]
