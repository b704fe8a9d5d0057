"""Run simulations from a pinned git tree in a long-lived child process.

A reference engine is only trustworthy if it cannot inherit the code it
is measured against.  :class:`TreeChild` extracts ``git archive <sha>
src`` into a temporary directory and starts one ``python`` child whose
``PYTHONPATH`` is that tree; ``sha=None`` serves the working tree's
on-disk ``src/`` the same way, so every side of a comparison pays the
same process and pipe costs.  The child reads one JSON request per line
on stdin and writes one JSON reply per line on stdout:

* ``run`` — simulate a pair on ``GpuConfig.baseline(num_sms=...)`` and
  time ``manager.run()`` alone.  Replies with ``events_fired``,
  ``total_cycles``, the stats snapshot and ``wall_seconds``.
* ``figure`` — render one experiment on a fresh ``Session`` with the
  tree's own ``ALL_EXPERIMENTS`` and ``format_table``.  Replies with the
  table, ``wall_seconds`` and the simulations it ran.

The child calls only API the seed already had (``GpuConfig.baseline``,
``MultiTenantManager``, ``Tenant``, ``benchmark``; ``Session``,
``ALL_EXPERIMENTS`` and ``format_table`` for figures), so any commit of
this repository can serve.  ``run`` wraps each workload in a stream
replay keyed on ``(num_warps, rng.seed)``: the first run of a pair
generates its traces and every later run replays them, so once a side
is warmed up no timed run generates traces.

Usage::

    with TreeChild("b172bd5278a2") as seed, TreeChild() as working:
        replies = {"seed": seed.run("HS.MM", 0.05, 2, 2),
                   "working": working.run("HS.MM", 0.05, 2, 2)}
        check_identity("HS.MM", replies, working="working")

An unknown SHA — say, in a shallow clone — raises ``SystemExit`` naming
it.  ``close()`` (or leaving the ``with`` block, also on an exception)
stops the child and deletes the extracted tree.
"""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional

REPO = Path(__file__).resolve().parent.parent

#: Seconds a closed child gets to exit before it is killed.
_EXIT_GRACE = 5.0


class TreeChild:
    """One child interpreter serving requests from one source tree."""

    def __init__(self, sha: Optional[str] = None) -> None:
        self.label = sha or "working tree"
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._proc: Optional[subprocess.Popen] = None
        try:
            src = REPO / "src" if sha is None else self._extract(sha)
            self._proc = subprocess.Popen(
                [sys.executable, "-B", str(Path(__file__).resolve())],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": str(src)})
            loaded = Path(self._receive()["repro"]).resolve()
            if src.resolve() not in loaded.parents:
                raise SystemExit(f"{self.label}: the child imported repro "
                                 f"from {loaded}, not from {src}")
        except BaseException:
            self.close()
            raise

    def _extract(self, sha: str) -> Path:
        archive = subprocess.run(["git", "-C", str(REPO), "archive", sha, "src"],
                                 capture_output=True)
        if archive.returncode != 0:
            raise SystemExit(
                f"cannot read git tree {sha}: "
                f"{archive.stderr.decode(errors='replace').strip()} "
                "(the reference trees need the full history: git fetch "
                "--unshallow)")
        self._tmp = tempfile.TemporaryDirectory(prefix=f"tree_{sha}_")
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(self._tmp.name, filter="data")
        return Path(self._tmp.name) / "src"

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid if self._proc is not None else None

    def _receive(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise SystemExit(f"{self.label}: child exited with status "
                             f"{self._proc.wait()}")
        return json.loads(line)

    def _request(self, **request) -> dict:
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return self._receive()

    def run(self, pair: str, scale: float, sms: int, warps: int) -> dict:
        """One simulation of ``pair`` (e.g. ``"HS.MM"``) at seed 0."""
        return self._request(op="run", pair=pair, scale=scale, sms=sms,
                             warps=warps)

    def figure(self, figure: str, kwargs: dict, scale: float, warps: int,
               seed: int) -> dict:
        """One experiment rendered as the tree's ``format_table`` text."""
        return self._request(op="figure", figure=figure, kwargs=kwargs,
                             scale=scale, warps=warps, seed=seed)

    def close(self) -> None:
        """Stop the child (killing it after a grace period) and delete
        the extracted tree.  Idempotent."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.stdin.close()  # the child's request loop ends on EOF
            try:
                proc.wait(_EXIT_GRACE)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def __enter__(self) -> "TreeChild":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def check_identity(label: str, replies: Dict[str, dict], working: str) -> None:
    """Raise ``SystemExit`` unless every side simulated the same run.

    Every side must fire the same events and end on the same cycle, and
    every stats key a reference tree records must appear in the working
    tree's snapshot with an equal value.  Newer trees may add keys; none
    may change one an older tree already had.
    """
    base = replies[working]
    for name, reply in replies.items():
        for field in ("events_fired", "total_cycles"):
            if reply[field] != base[field]:
                raise SystemExit(
                    f"{label}: {name} and {working} differ in {field} "
                    f"({reply[field]} vs {base[field]}) — determinism broken")
        diverged = sorted(key for key, value in reply["stats"].items()
                          if key not in base["stats"]
                          or base["stats"][key] != value)
        if diverged:
            raise SystemExit(
                f"{label}: {working} lacks or changes {len(diverged)} stats "
                f"key(s) of {name}, e.g. {', '.join(diverged[:3])}")


class _Replay:
    """A workload whose traces are generated once and then replayed.

    The manager derives each launch's rng from (seed, workload, tenant,
    execution index), so ``(num_warps, rng.seed)`` names one trace.
    Replaying is bit-exact: each warp's generator is the sole consumer
    of its random stream, and warp ops are immutable.
    """

    def __init__(self, workload) -> None:
        self.workload = workload
        self.name = workload.name
        self._traces: dict = {}

    def build_streams(self, num_warps: int, rng) -> list:
        key = (num_warps, rng.seed)
        trace = self._traces.get(key)
        if trace is None:
            trace = self._traces[key] = [
                tuple(stream)
                for stream in self.workload.build_streams(num_warps, rng)]
        return [iter(ops) for ops in trace]


def _serve() -> None:
    """The child: answer requests until stdin closes."""
    import repro
    from repro.engine.config import GpuConfig
    from repro.tenancy.manager import MultiTenantManager
    from repro.tenancy.tenant import Tenant
    from repro.workloads.suite import benchmark

    replays: Dict[tuple, _Replay] = {}

    def run(pair, scale, sms, warps):
        tenants = []
        for index, name in enumerate(pair.split(".")):
            if (name, scale) not in replays:
                replays[name, scale] = _Replay(benchmark(name, scale=scale))
            tenants.append(Tenant(index, replays[name, scale]))
        manager = MultiTenantManager(GpuConfig.baseline(num_sms=sms), tenants,
                                     warps_per_sm=warps, seed=0)
        gc.collect()  # the previous run's garbage is not this run's cost
        start = time.perf_counter()
        result = manager.run()
        elapsed = time.perf_counter() - start
        return {"events_fired": result.events_fired,
                "total_cycles": result.total_cycles,
                "stats": result.stats, "wall_seconds": elapsed}

    def figure(figure, kwargs, scale, warps, seed):
        from repro.harness.experiments import ALL_EXPERIMENTS
        from repro.harness.reporting import format_table
        from repro.harness.runner import Session

        session = Session(scale=scale, warps_per_sm=warps, seed=seed)
        start = time.perf_counter()
        table = format_table(ALL_EXPERIMENTS[figure](session, **kwargs))
        elapsed = time.perf_counter() - start
        # The session memoizes every simulation it ran, once each.
        runs = list(session._run_cache.values())
        return {"table": table, "wall_seconds": elapsed,
                "simulations": len(runs),
                "events": sum(r.events_fired for r in runs)}

    handlers = {"run": run, "figure": figure}
    # Replies own stdout; anything the tree prints goes to stderr.
    channel, sys.stdout = sys.stdout, sys.stderr

    def send(reply: dict) -> None:
        channel.write(json.dumps(reply) + "\n")
        channel.flush()

    send({"repro": repro.__file__})
    for line in sys.stdin:
        request = json.loads(line)
        send(handlers[request.pop("op")](**request))


if __name__ == "__main__":
    _serve()
