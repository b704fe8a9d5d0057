"""Crash forensics: replayable failure bundles.

When a simulation dies — a typed :class:`SimulationError`, an invariant
violation, a watchdog stall, or a post-run validation failure — the
interesting state is gone by the time a human reads the traceback.  A
*forensics bundle* freezes it first: one JSON document holding

* the error with its structured fields (tenant, walker, sim time,
  probe name, queue depths),
* the exact failing configuration (``dataclasses.asdict`` of the
  :class:`~repro.engine.config.GpuConfig`, reversible via
  :func:`~repro.engine.config.config_from_dict`),
* the job: workload names, scale, warps per SM, seed, event and RSS
  budgets, and whether that job describes the run exactly,
* a stats snapshot and the simulated time at death,
* a bounded ring buffer of recent walk events (the
  :class:`~repro.engine.trace.Tracer` records),
* the ambient fault plan and integrity config (``REPRO_FAULTS`` /
  ``REPRO_INTEGRITY``), because a failure seeded by fault injection
  only reproduces with the same plan installed, and
* the exact ``python -m repro replay <bundle>`` command line.

Bundles are written atomically (:mod:`repro.harness.fsutil`), so a
crash while capturing a crash never publishes a torn bundle.
:func:`replay_bundle` (and ``python -m repro replay``) re-runs the
bundle's job on the harness's Job path and reports whether the recorded
failure reproduces — the determinism guarantee turned into a tool.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.engine.simulator import SimulationError
from repro.harness.fsutil import atomic_write_json
from repro.integrity.config import INTEGRITY_ENV, IntegrityConfig

#: Bumped when the bundle schema changes incompatibly.
BUNDLE_FORMAT = 1

BUNDLE_SUFFIX = ".forensics.json"

#: Environment variables whose values must travel with the bundle for a
#: faithful replay.
_CAPTURED_ENV = ("REPRO_FAULTS", INTEGRITY_ENV)


def _error_payload(error: BaseException) -> Dict[str, Any]:
    details = getattr(error, "details", None)
    if callable(details):
        return details()
    return {"type": type(error).__name__, "message": str(error)}


def _trace_payload(subsystems) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    for pws in subsystems:
        tracer = getattr(pws, "tracer", None)
        if tracer is None:
            continue
        for record in tracer.records():
            entry = {"subsystem": pws.name, "time": record.time,
                     "kind": record.kind}
            entry.update(record.fields)
            records.append(entry)
    records.sort(key=lambda r: r["time"])
    return records


def _bundle_path(directory: Union[str, Path], label: str) -> Path:
    safe = "".join(c if (c.isalnum() or c in "._-") else "_"
                   for c in label) or "run"
    stamp = f"{os.getpid():x}-{time.time_ns():x}"
    return Path(directory) / f"{safe}-{stamp}{BUNDLE_SUFFIX}"


def _replay_command(path: Path) -> str:
    return f"PYTHONPATH=src python -m repro replay {path}"


def write_bundle(
    directory: Union[str, Path],
    *,
    error: BaseException,
    job,
    replayable: bool = True,
    integrity: Optional[IntegrityConfig] = None,
    stats: Optional[Dict[str, float]] = None,
    sim_now: Optional[int] = None,
    events_fired: Optional[int] = None,
    trace_records: Optional[List[Dict[str, Any]]] = None,
    resources: Optional[Dict[str, Any]] = None,
) -> Path:
    """Capture one failure of ``job`` (a
    :class:`~repro.harness.parallel.Job`) as an atomic, self-describing
    JSON bundle.

    The job section is :func:`~repro.harness.parallel.job_to_dict`'s,
    with the config moved to the top level and ``replayable`` added:
    whether ``job`` describes the run exactly (see
    :meth:`~repro.integrity.harness.IntegrityHarness.capture`).
    ``resources`` is the worker's resource view at death (peak RSS,
    lifetime high-water mark, sample count) — supplied for budget
    breaches, omitted elsewhere.
    """
    from repro.harness.parallel import job_to_dict

    section = job_to_dict(job)
    config = section.pop("config")
    section["replayable"] = replayable
    path = _bundle_path(directory, job.label or ".".join(job.names))
    payload: Dict[str, Any] = {
        "format": BUNDLE_FORMAT,
        "created_unix": time.time(),
        "error": _error_payload(error),
        "job": section,
        "config": config,
        "integrity": dataclasses.asdict(integrity) if integrity else None,
        "environment": {key: os.environ[key] for key in _CAPTURED_ENV
                        if os.environ.get(key)},
        "sim": {"now": sim_now, "events_fired": events_fired},
        "stats": stats or {},
        "resources": resources or {},
        "recent_events": trace_records or [],
        "command": _replay_command(path),
    }
    atomic_write_json(path, payload, indent=1, sort_keys=True)
    return path


def load_bundle(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and structurally validate a forensics bundle."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("format") != BUNDLE_FORMAT:
        raise ValueError(
            f"{path}: not a format-{BUNDLE_FORMAT} forensics bundle")
    for key in ("error", "job", "config"):
        if not isinstance(data.get(key), dict):
            raise ValueError(f"{path}: bundle is missing the {key!r} object")
    names = data["job"].get("names")
    if not isinstance(names, list) or not all(isinstance(n, str)
                                              for n in names):
        raise ValueError(f"{path}: bundle's job lists no workload names")
    environment = data.get("environment", {})
    if not isinstance(environment, dict) or not all(
            isinstance(value, str) for value in environment.values()):
        raise ValueError(f"{path}: bundle's environment is not a map of "
                         f"strings")
    return data


@dataclass
class ReplayOutcome:
    """What re-running a bundle's simulation produced."""

    #: True when the replay failed with the recorded error type.
    reproduced: bool
    #: The recorded error type name (from the bundle).
    expected_type: str
    #: The error the replay raised, if any.
    error: Optional[BaseException] = None
    #: The result, when the replay completed cleanly (no reproduction).
    result: Optional[object] = None


def replay_bundle(bundle: Union[str, Path, Dict[str, Any]]) -> ReplayOutcome:
    """Re-run the job a bundle records, on the Job path.

    The job runs through :func:`~repro.harness.parallel.run_job` with
    validation on, under the bundle's captured fault plan and integrity
    config, the latter with ``forensics_dir`` cleared: replaying a
    failure diagnoses it and never mints another bundle.  So every
    failure :func:`~repro.harness.parallel.run_jobs` records — a
    :class:`SimulationError`, a validation failure, a budget breach —
    replays.  Raises ``ValueError`` for a malformed bundle or one whose
    run no job describes: custom or modified workloads, mixed scales, or
    more than one execution per tenant.
    """
    from repro.harness.parallel import job_from_dict, run_job
    from repro.harness.validate import ResultValidationError
    from repro.workloads.suite import BENCHMARKS

    if not isinstance(bundle, dict):
        bundle = load_bundle(bundle)
    section = bundle["job"]
    if section.get("replayable") is False:
        raise ValueError(
            "bundle records a run that no job describes (custom or "
            "modified workloads, mixed scales or repeated executions); "
            "it cannot be replayed")
    unknown = [n for n in section["names"] if n not in BENCHMARKS]
    if unknown:
        raise ValueError(
            f"bundle references unknown workloads {unknown}; only "
            f"benchmark-suite runs can be replayed from a bundle")
    if section.get("scale") is None:
        raise ValueError("bundle does not record a workload scale")
    # A run outside the Job path records no label; "" matches the same
    # label-filtered faults as that run did.
    job = job_from_dict({**section, "label": section.get("label") or "",
                         "config": bundle["config"]})
    environment = {key: bundle.get("environment", {}).get(key)
                   for key in _CAPTURED_ENV}
    environment[INTEGRITY_ENV] = None
    if bundle.get("integrity"):
        try:
            integrity = IntegrityConfig(**bundle["integrity"])
        except TypeError as exc:
            raise ValueError(f"malformed integrity config: {exc}") from None
        environment[INTEGRITY_ENV] = json.dumps(dataclasses.asdict(
            dataclasses.replace(integrity, forensics_dir=None)))
    expected = bundle["error"].get("type", "SimulationError")

    saved = {key: os.environ.get(key) for key in environment}
    try:
        for key, value in environment.items():
            if value is not None:
                os.environ[key] = value
            else:
                os.environ.pop(key, None)
        try:
            result = run_job(job, validate=True)
        except (SimulationError, ResultValidationError) as exc:
            return ReplayOutcome(
                reproduced=(type(exc).__name__ == expected),
                expected_type=expected, error=exc)
        return ReplayOutcome(reproduced=False, expected_type=expected,
                             result=result)
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
