"""The resilient capacity-planning service: ``repro serve``'s engine.

:class:`ReproServer` answers :class:`~repro.serve.queries.PlacementQuery`
objects through three tiers, cheapest first:

1. **exact** — the content-addressed :class:`ResultCache` already holds
   the simulation result (same ``job_key`` as every campaign run, which
   leaves the event budget out, so a regenerated paper at the same
   scale and warps warms the service for free);
2. **simulated** — the query is admitted to a bounded queue and a
   background executor thread runs it, one job at a time and in
   process, through the supervised campaign dispatcher
   (:func:`~repro.harness.parallel.run_jobs`), streaming the result
   back before the query's deadline;
3. **estimate** — MPMI-band nearest-neighbor interpolation over
   everything previously simulated, used whenever the backend cannot or
   should not run: breaker open, queue shed, deadline expired, drain.

The robustness invariant every path upholds: *an admitted query always
receives a typed* :class:`~repro.serve.queries.QueryResponse` — never a
hang, never an untyped exception — and any payload that was not read
from a real simulation is labeled ``estimate=True``.

Restart safety piggybacks on the campaign manifest discipline: pending
background jobs are checkpointed (full job description, JSON) to
``<cache>/serve/manifest.json`` on every queue transition, and
``start()`` re-enqueues whatever an earlier process left behind.
SIGTERM/SIGINT route through :meth:`ReproServer.drain`, which
checkpoints first and wakes every waiter with a typed degraded answer.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness.fsutil import atomic_write_json
from repro.harness.parallel import Job, job_from_dict, job_to_dict, run_jobs
from repro.harness.resources import HostPressureMonitor, PressurePolicy
from repro.harness.result_cache import ResultCache, job_key
from repro.harness.supervision import (OUTCOME_OK, SupervisionPolicy,
                                       SupervisionStats, job_outcome)
from repro.serve.admission import (AdmissionPolicy, AdmissionQueue,
                                   BreakerPolicy, CircuitBreaker, Ticket)
from repro.serve.estimator import ServeIndex
from repro.serve.health import health_snapshot, ready_snapshot
from repro.serve.queries import (STATUS_ERROR, STATUS_ESTIMATE, STATUS_EXACT,
                                 STATUS_ORDER, STATUS_REJECTED,
                                 STATUS_SIMULATED, STATUS_TIMEOUT,
                                 PlacementQuery, QueryResponse,
                                 metrics_from_result, rank_candidates,
                                 worst_status)

#: Subdirectory of the cache root holding serve-owned state.
SERVE_DIR = "serve"

#: Default event budget for serve-built jobs.  Interactive queries want
#: bounded answers, not open-ended paper-accuracy sweeps; callers sizing
#: a production service can raise it.  The budget is not part of the job
#: key, so every cached result that fits it — a campaign's included —
#: answers exactly.
DEFAULT_SERVE_MAX_EVENTS = 50_000_000


class ServeManifest:
    """Crash-safe checkpoint of the *pending* background jobs.

    The campaign manifest records completed hashes; the serve queue
    needs the opposite — full descriptions of work admitted but not yet
    done, so a restart can resume it.  Every save is an atomic
    whole-file replace (a kill mid-checkpoint leaves the previous
    consistent file), and anything unreadable loads as empty: a stale
    manifest costs resumed work, never a crash.
    """

    FORMAT = 1

    def __init__(self, path) -> None:
        self.path = Path(path)

    def load(self) -> List[Tuple[str, Job]]:
        """``(cache key, job)`` pairs an earlier process left pending."""
        try:
            raw = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return []
        if raw.get("format") != self.FORMAT:
            return []
        pending = raw.get("pending")
        if not isinstance(pending, dict):
            return []
        jobs: List[Tuple[str, Job]] = []
        for key, data in sorted(pending.items()):
            try:
                jobs.append((str(key), job_from_dict(data)))
            except ValueError:
                continue  # lost work, not a wedged restart
        return jobs

    def save(self, pending: List[Tuple[str, Job]]) -> None:
        try:
            atomic_write_json(self.path, {
                "format": self.FORMAT,
                "pending": {key: job_to_dict(job) for key, job in pending},
            }, sort_keys=True, indent=1)
        except OSError:
            pass  # checkpointing is best-effort; the cache still resumes


class ReproServer:
    """Three-tier placement-query service over the simulation harness."""

    def __init__(self, cache_root,
                 admission: Optional[AdmissionPolicy] = None,
                 breaker_policy: Optional[BreakerPolicy] = None,
                 supervision: Optional[SupervisionPolicy] = None,
                 scale: float = 1.0,
                 warps_per_sm: int = 4,
                 max_events: int = DEFAULT_SERVE_MAX_EVENTS,
                 cache_max_bytes: Optional[int] = None,
                 pressure: Optional[PressurePolicy] = None) -> None:
        self.cache = ResultCache(cache_root, max_bytes=cache_max_bytes)
        self.admission = admission or AdmissionPolicy()
        self.breaker = CircuitBreaker(breaker_policy)
        #: Host resource watermark: when the monitor reports pressure,
        #: new (mix, policy) components that miss the cache are shed to
        #: the estimate tier instead of admitting more simulations.
        self.pressure = HostPressureMonitor(pressure or PressurePolicy())
        self.pressure_sheds = 0
        self.supervision = supervision or SupervisionPolicy()
        self.supervision_stats = SupervisionStats()
        self.queue = AdmissionQueue(self.admission.max_queue_depth)
        self.index = ServeIndex(self.cache.root)
        self.manifest = ServeManifest(
            self.cache.root / SERVE_DIR / "manifest.json")
        self.scale = scale
        self.warps_per_sm = warps_per_sm
        self.max_events = max_events
        self.draining = False
        self.resumed_jobs = 0
        self._started = False
        self._stop = threading.Event()
        #: Test hook: executor blocks here between taking a ticket and
        #: executing it.  Set (open) in production; the SIGTERM-drain
        #: test clears it to hold a job deterministically "in flight".
        self._test_gate = threading.Event()
        self._test_gate.set()
        self._executor: Optional[threading.Thread] = None
        self._lock = threading.Lock()           # tiers + manifest writes
        self._tiers: Dict[str, int] = {status: 0 for status in STATUS_ORDER}
        #: ticket key -> (names, policy, tlb, walkers) for index updates
        self._ticket_meta: Dict[str, Tuple] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        return self._started and not self.draining

    def start(self) -> None:
        """Resume checkpointed jobs and start the background executor."""
        if self._started:
            return
        for key, job in self.manifest.load():
            if self.cache.get(key, job.max_events) is not None:
                continue  # finished after the checkpoint was written
            ticket, _shed = self.queue.submit(job, key)
            if ticket is not None:
                self.resumed_jobs += 1
        self._checkpoint()
        self._executor = threading.Thread(
            target=self._executor_loop, name="repro-serve-executor",
            daemon=True)
        self._executor.start()
        self._started = True

    def drain(self, timeout: Optional[float] = None) -> int:
        """Graceful shutdown: checkpoint, wake waiters, stop the executor.

        Returns the number of jobs checkpointed for a future restart.
        The order matters: the manifest is written *before* pending
        tickets are downgraded, so a SIGTERM mid-simulation loses no
        admitted work — the next ``start()`` re-enqueues it.
        """
        if self.draining:
            return 0
        self.draining = True
        pending = self.queue.pending_jobs()
        with self._lock:
            self.manifest.save(pending)
        self.queue.drain()          # pending waiters wake, typed
        self.queue.downgrade_inflight("draining: server shutting down")
        self._stop.set()
        if self._executor is not None:
            self._executor.join(timeout if timeout is not None
                                else self.admission.drain_timeout_s)
        self.cache.flush_costs()
        return len(pending)

    def close(self) -> None:
        self.drain(timeout=0.0)

    def __enter__(self) -> "ReproServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.drain()

    # ------------------------------------------------------------------
    # Introspection (consumed by repro.serve.health)
    # ------------------------------------------------------------------
    def tier_counters(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._tiers)

    def cache_snapshot(self) -> Dict:
        snapshot = self.cache.stats()
        snapshot["quarantined_on_disk"] = self.cache.quarantined_entries()
        return snapshot

    def resources_snapshot(self) -> Dict:
        """The ``/healthz`` resource-watermark block."""
        snapshot = self.pressure.snapshot()
        with self._lock:
            snapshot["sheds"] = self.pressure_sheds
        return snapshot

    # ------------------------------------------------------------------
    # Query path
    # ------------------------------------------------------------------
    def query(self, query: PlacementQuery) -> QueryResponse:
        """Answer one query; always returns, always typed."""
        start = time.monotonic()
        key = query.key()
        if not self._started or self.draining:
            return self._respond(QueryResponse(
                status=STATUS_REJECTED, estimate=False, query_key=key,
                detail="draining: server not accepting queries"
                       if self.draining else "server not started",
                wall_ms=(time.monotonic() - start) * 1e3))
        self.breaker.note_query()
        deadline_s = (query.deadline_s if query.deadline_s is not None
                      else self.admission.default_deadline_s)
        deadline_abs = start + deadline_s

        statuses: List[str] = []
        details: List[str] = []
        table: Dict[str, Optional[Dict]] = {}
        for policy in query.policies():
            status, payload, detail = self._component(
                query, policy, deadline_abs)
            statuses.append(status)
            table[policy] = payload
            if detail:
                details.append(f"{policy}: {detail}")

        status = worst_status(statuses)
        estimate = any(s not in (STATUS_EXACT, STATUS_SIMULATED)
                       for s in statuses)
        if query.kind == "metrics":
            payload = table[query.policy] or {}
        else:
            payload = {
                "objective": query.objective,
                "best_policy": rank_candidates(table, query.objective),
                "candidates": {
                    policy: {"status": s, "metrics": table[policy]}
                    for policy, s in zip(query.policies(), statuses)
                },
            }
        return self._respond(QueryResponse(
            status=status, estimate=estimate, payload=payload,
            query_key=key, detail="; ".join(details),
            wall_ms=(time.monotonic() - start) * 1e3))

    def _respond(self, response: QueryResponse) -> QueryResponse:
        with self._lock:
            self._tiers[response.status] += 1
        return response

    # ------------------------------------------------------------------
    def _job_for(self, query: PlacementQuery, policy: str) -> Job:
        """The job one (mix, policy) component resolves to.  Its label is
        provisional: :meth:`_component` labels it once it has the key."""
        return Job(label="provisional", names=query.workloads,
                   config=query.config().with_policy(policy),
                   scale=self.scale, warps_per_sm=self.warps_per_sm,
                   max_events=self.max_events)

    def _estimate(self, query: PlacementQuery,
                  policy: str) -> Optional[Dict]:
        return self.index.estimate(
            query.workloads, policy,
            query.l2_tlb_entries, query.walker_count)

    def _component(self, query: PlacementQuery, policy: str,
                   deadline_abs: float) -> Tuple[str, Optional[Dict], str]:
        """Resolve one (mix, policy) pair: exact -> simulate -> estimate."""
        job = self._job_for(query, policy)
        jkey = job_key(job)

        cached = self.cache.get(jkey, job.max_events)
        if cached is not None:
            payload = metrics_from_result(query.workloads, cached)
            self.index.record(query.workloads, policy,
                              query.l2_tlb_entries, query.walker_count,
                              payload)
            return STATUS_EXACT, payload, ""

        # Resource watermark: a pressured host must not take on more
        # simulation work.  Checked before the breaker so shed queries
        # do not consume half-open probes — pressure is a host
        # condition, not a backend-health signal.
        if self.pressure.sample().pressured:
            with self._lock:
                self.pressure_sheds += 1
            estimate = self._estimate(query, policy)
            if estimate is not None:
                return (STATUS_ESTIMATE, estimate,
                        "host pressure watermark: shed to estimate tier")
            return (STATUS_REJECTED, None,
                    "host pressure watermark and no estimate basis yet")

        allowed, probe = self.breaker.allow_simulation()
        if not allowed:
            estimate = self._estimate(query, policy)
            if estimate is not None:
                return (STATUS_ESTIMATE, estimate,
                        "breaker open: answered from estimate tier")
            return (STATUS_REJECTED, None,
                    "breaker open and no estimate basis yet")

        # The label carries the cache key so supervision's per-label
        # ledgers (attempts, quarantine) stay distinct per configuration.
        job = dataclasses.replace(
            job, label=f"serve:{'.'.join(query.workloads)}/{policy}"
                       f":{jkey[:8]}")
        self._ticket_meta[jkey] = (query.workloads, policy,
                                   query.l2_tlb_entries, query.walker_count)
        ticket, _shed = self.queue.submit(job, jkey, probe=probe)
        if ticket is None:
            estimate = self._estimate(query, policy)
            if estimate is not None:
                return (STATUS_ESTIMATE, estimate,
                        "admission queue disabled; estimate tier")
            return STATUS_REJECTED, None, "admission queue disabled"
        self._checkpoint()

        remaining = max(0.0, deadline_abs - time.monotonic())
        if not ticket.event.wait(remaining):
            estimate = self._estimate(query, policy)
            return (STATUS_TIMEOUT, estimate,
                    "deadline expired; simulation continues in background"
                    + ("" if estimate is None else " (estimate attached)"))
        if ticket.result is not None:
            return (STATUS_SIMULATED,
                    metrics_from_result(query.workloads, ticket.result), "")
        if ticket.downgraded:
            estimate = self._estimate(query, policy)
            if estimate is not None:
                return STATUS_ESTIMATE, estimate, ticket.detail
            return STATUS_REJECTED, None, ticket.detail
        return STATUS_ERROR, None, ticket.error or "simulation failed"

    # ------------------------------------------------------------------
    # Background executor
    # ------------------------------------------------------------------
    def _checkpoint(self) -> None:
        with self._lock:
            if self.draining:
                # The drain wrote the authoritative final checkpoint; a
                # late query/executor thread must not overwrite it with
                # the post-drain (empty) queue view.
                return
            self.manifest.save(self.queue.pending_jobs())

    def _executor_loop(self) -> None:
        while not self._stop.is_set():
            tickets = self.queue.take(timeout=0.1, limit=1)
            for ticket in tickets:
                self._test_gate.wait()
                if self._stop.is_set():
                    # Drained while held: the manifest already has this
                    # job; wake its waiters with a typed downgrade.
                    ticket.downgrade("draining: server shutting down")
                    self.queue.finish(ticket)
                    continue
                self._execute_ticket(ticket)

    def _execute_ticket(self, ticket: Ticket) -> None:
        job = ticket.job
        # A re-query of a previously failed job gets a fresh chance: its
        # per-label ledgers would otherwise poison this run's outcome.
        self.supervision_stats.attempts.pop(job.label, None)
        self.supervision_stats.quarantined.pop(job.label, None)
        ok = False
        try:
            results = run_jobs([job], workers=1,
                               cache=self.cache,
                               supervision=self.supervision,
                               stats=self.supervision_stats)
        except BaseException as exc:  # typed answer even for the unknown
            ticket.fail(f"{type(exc).__name__}: {exc}")
        else:
            result = results.get(job.label)
            ok = job_outcome(self.supervision_stats, job.label) == OUTCOME_OK
            if result is None:
                ticket.fail(self.supervision_stats.quarantined.get(
                    job.label, "quarantined"))
            else:
                meta = self._ticket_meta.get(ticket.key)
                if meta is not None:
                    names, policy, tlb, walkers = meta
                    self.index.record(
                        names, policy, tlb, walkers,
                        metrics_from_result(names, result))
                ticket.resolve(result)
        finally:
            self.queue.finish(ticket)
            self._ticket_meta.pop(ticket.key, None)
            self._checkpoint()
            self.breaker.record_outcome(ok, probe=ticket.probe)


# ----------------------------------------------------------------------
# HTTP front-end (stdlib only)
# ----------------------------------------------------------------------
class _ServeHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 with keep-alive: one handler thread serves every request
    a client sends over its connection."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two writes; with Nagle's algorithm on,
    #: the second waits for the client's delayed ACK of the first (about
    #: 40 ms) on every reply of a kept-alive connection.
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        pass  # the health endpoint is the observability surface

    def _send_json(self, status: int, body: Dict,
                   close: bool = False) -> None:
        blob = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        if close:
            # Also sets close_connection: the handler stops reading.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(blob)

    def do_GET(self):  # noqa: N802 (stdlib name)
        repro = self.server.repro
        if self.path == "/healthz":
            self._send_json(200, health_snapshot(repro))
        elif self.path == "/readyz":
            snapshot = ready_snapshot(repro)
            self._send_json(200 if snapshot["ready"] else 503, snapshot)
        else:
            self._send_json(404, {"error": f"unknown path {self.path}"})

    def do_POST(self):  # noqa: N802 (stdlib name)
        # Read the body before any reply: on a kept-alive connection an
        # unread body would be parsed as the next request.
        try:
            length = int(self.headers.get("Content-Length", "0"))
            if length < 0:
                raise ValueError(f"negative Content-Length {length}")
        except ValueError as exc:
            # The body's extent is unknown, so the connection cannot
            # carry another request.
            self._send_json(400, {"error": str(exc)}, close=True)
            return
        blob = self.rfile.read(length)
        if self.path != "/query":
            self._send_json(404, {"error": f"unknown path {self.path}"})
            return
        try:
            query = PlacementQuery.from_dict(json.loads(blob or b"{}"))
        except (ValueError, KeyError) as exc:
            self._send_json(400, {"error": str(exc)})
            return
        response = self.server.repro.query(query)
        self._send_json(200, response.to_dict())


class ServeHTTPServer(ThreadingHTTPServer):
    """One listening socket in front of a :class:`ReproServer`."""

    daemon_threads = True

    def __init__(self, address, repro: ReproServer) -> None:
        super().__init__(address, _ServeHandler)
        self.repro = repro


def install_signal_handlers(repro: ReproServer,
                            httpd: Optional[ServeHTTPServer] = None):
    """Route SIGTERM/SIGINT to a checkpointing drain.

    Returns a zero-argument restore function (tests install and remove
    handlers around a server's lifetime).  Outside the main thread this
    is a no-op returning a no-op.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None

    def _drain(_signum, _frame):
        repro.drain()
        if httpd is not None:
            threading.Thread(target=httpd.shutdown, daemon=True).start()

    previous = {}
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, _drain)
        except (ValueError, OSError):
            pass

    def restore() -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
    return restore


def serve_forever(repro: ReproServer, host: str = "127.0.0.1",
                  port: int = 8642) -> None:
    """Blocking entry point used by ``repro serve``."""
    repro.start()
    httpd = ServeHTTPServer((host, port), repro)
    restore = install_signal_handlers(repro, httpd)
    try:
        httpd.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        repro.drain()
    finally:
        restore()
        httpd.server_close()
        if not repro.draining:
            repro.drain()
