"""Shared pieces of the workloads: paths, fixed sizes, child processes."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: Campaign fidelity.  Scale 0.02 keeps the 976-job plan of the paper's
#: 15 experiments (only the trace length shrinks) while a cold pass stays
#: near 25 s on a 2-core host.
CAMPAIGN_SCALE = 0.02
WARPS = 4
WORKERS = 2
#: ``repro serve --scale 0.05 --warps 4`` at its other defaults.
SERVE_SCALE = 0.05

#: Set-up is sampled this many times per run (median reported).
SETUP_SAMPLES = 9

#: A child that outlives this is killed; the run then fails.
CHILD_TIMEOUT_S = 150.0


class CheckFailed(Exception):
    """An output check failed; the run reports ``correct: false``."""


@dataclass
class Metric:
    value: float
    unit: str
    detail: str = ""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    digest_parts: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: traced runs only: traced wall, its overhead over an untraced run
    #: of the same work and worker count, and serve's client-side split
    traced_wall_s: float = 0.0
    overhead: Optional[float] = None
    serve_layers: Dict[str, float] = field(default_factory=dict)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    return env


def run_child(argv: List[str], launched_at: Optional[float] = None
              ) -> Tuple[float, str]:
    """Run a child process to completion: ``(elapsed_s, stdout)``.

    Raises :class:`CheckFailed` when it exits non-zero or overruns.
    """
    start = time.monotonic() if launched_at is None else launched_at
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"child {argv[1:3]} timed out")
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        raise CheckFailed(f"child {argv[1:3]} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-400:]}")
    return elapsed, proc.stdout


def campaign_child(cache_dir: Path, seed: int, setup_only: bool = False
                   ) -> Dict:
    """One pass of ``campaign_child.py``; returns its JSON report."""
    launched_at = time.monotonic()
    argv = [sys.executable, str(HERE / "campaign_child.py"),
            "--launched-at", repr(launched_at),
            "--cache-dir", str(cache_dir), "--scale", str(CAMPAIGN_SCALE),
            "--warps", str(WARPS), "--seed", str(seed),
            "--workers", str(WORKERS)]
    if setup_only:
        argv.append("--setup-only")
    _elapsed, out = run_child(argv, launched_at)
    return json.loads(out.strip().splitlines()[-1])


class WorkDir:
    """Scratch space inside the checkout, removed when the run ends."""

    def __init__(self) -> None:
        base = ROOT / ".perfbench_work"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there


#: Filled campaign caches kept across runs of one checkout (see
#: :func:`store_fill`).
FILLS = ROOT / ".perfbench_fills"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _fill_entry(seed: int) -> Path:
    return FILLS / (f"{_source_digest()}-scale{CAMPAIGN_SCALE}-warps{WARPS}"
                    f"-seed{seed}")


def stored_fill(seed: int) -> Optional[Tuple[Path, List[str]]]:
    """``(cache dir, rendered tables)`` of a campaign this checkout's
    code already filled for ``seed``, or ``None``."""
    entry = _fill_entry(seed)
    try:
        tables = json.loads((entry / "tables.json").read_text())
    except (OSError, ValueError):
        return None
    return entry / "cache", tables


def store_fill(seed: int, cache: Path, tables: List[str]) -> None:
    """Keep a verified cold campaign's cache (moved, not copied) so that
    later ``campaign_warm`` runs of the same source and seed skip their
    fill.  Entries for any other source are deleted."""
    entry = _fill_entry(seed)
    if entry.exists():
        return
    FILLS.mkdir(exist_ok=True)
    prefix = entry.name.split("-")[0]
    for old in FILLS.iterdir():
        if not old.name.startswith(prefix):
            shutil.rmtree(old, ignore_errors=True)
    staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=FILLS))
    shutil.move(str(cache), str(staging / "cache"))
    (staging / "tables.json").write_text(json.dumps(tables))
    os.replace(staging, entry)


def fresh_copy(source: Path, target: Path) -> Path:
    """A private copy of a filled cache, so each pass starts alike."""
    shutil.copytree(source, target)
    return target
