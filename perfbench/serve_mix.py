"""The ``serve_mixed`` workload: two closed-loop clients on ``repro serve``.

Set-up fills a result cache with ``repro campaign --figures
fig5,fig6,fig7`` over the consolidation pairs, then starts ``repro serve
--scale 0.05 --warps 4`` (in-process executor, default event budget) on
a fresh copy of that cache and waits for ``/readyz`` to answer 200.

A trial runs two client threads in this process, each with its own
``ServeClient``; each waits for every answer before it sends the next:

* the consolidation client replays ``examples/cloud_consolidation.py``'s
  per-pair queries (two stand-alones, baseline and dwspp) over the
  campaign's pairs;
* the capacity client replays ``examples/capacity_planning.py``'s
  17-query sweep over two other pairs.

Each client repeats its list for ``ROUNDS`` rounds, so 96% of the
queries revisit an answer: the median is an exact-tier latency taken
after the simulations end, and the tail a simulated one.  The share is
that high because an exact hit that runs while the in-process executor
simulates waits for the GIL at every hand-off and takes 20-40 ms rather
than about 5 ms; with fewer rounds those hits and the simulations come
near half the queries, and the median jumps between them from run to
run.  The clients' query keys never overlap, so how
many queries each tier answers does not depend on thread timing.  A run
repeats trials, each on a fresh server over a fresh copy of the cache,
until the measured time is spent.

The workload seed picks each pair's tenant order (``A.B`` or ``B.A``:
different simulations of equal cost) and every round's pair order.
"""

from __future__ import annotations

import http.client
import json
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (ROOT, SERVE_SCALE, WARPS, WORKERS, CheckFailed, Metric,
                    Outcome, WorkDir, child_env, fresh_copy, run_child)
from stats import finite_or, median, tail_percentile, with_failures

from repro.harness.parallel import DEFAULT_MAX_EVENTS, Job
from repro.harness.result_cache import ResultCache, job_key
from repro.serve.client import ServeClient, ServeUnavailable
from repro.serve.queries import (STATUS_ESTIMATE, STATUS_EXACT,
                                 STATUS_SIMULATED, PlacementQuery,
                                 metrics_from_result)
from repro.workloads.pairs import REPRESENTATIVE_PAIRS

#: The consolidation example's pairs (two per workload class).
CONSOLIDATION_PAIRS = tuple(p for pairs in REPRESENTATIVE_PAIRS.values()
                            for p in pairs)
#: The capacity example's default pair and Figure 9's SAD.MM; neither is
#: a consolidation pair, so the two clients never share a query key.
CAPACITY_PAIRS = ("GUPS.3DS", "SAD.MM")
#: ``capacity_planning.POINTS``: (L2 TLB entries, walkers) overrides.
CAPACITY_POINTS = ((512, None), (None, None), (2048, None), (None, 8),
                   (None, 12), (None, None), (None, 24), (2048, 24))
ROUNDS = 20
MIN_TRIALS = 3
#: The examples' per-query deadline.
DEADLINE_S = 60.0
#: Serve keys every job with simulation seed 0, so the fill uses it too.
FILL_SEED = 0
READY_TIMEOUT_S = 60.0


@dataclass
class Answer:
    query: PlacementQuery
    latency_s: float
    status: Optional[str] = None     # None: transport error
    estimate: bool = False
    payload: Optional[Dict] = None
    error: str = ""


def is_failure(answer: Answer) -> bool:
    """Transport errors, ``timeout``/``rejected``/``error`` answers and
    estimates without the ``estimate=True`` label."""
    if answer.status in (STATUS_EXACT, STATUS_SIMULATED):
        return False
    return not (answer.status == STATUS_ESTIMATE and answer.estimate)


def oriented(pair: str, rng: random.Random) -> Tuple[str, str]:
    a, b = pair.split(".")
    return (a, b) if rng.random() < 0.5 else (b, a)


def schedules(seed: int) -> Tuple[List[Tuple[str, str]],
                                  List[List[PlacementQuery]]]:
    """``(consolidation pairs, per-client query lists)`` for a seed."""
    rng = random.Random(seed)
    pairs1 = [oriented(p, rng) for p in CONSOLIDATION_PAIRS]
    pairs2 = [oriented(p, rng) for p in CAPACITY_PAIRS]

    def metrics(names, policy, tlb=None, walkers=None):
        return PlacementQuery(kind="metrics", workloads=tuple(names),
                              policy=policy, l2_tlb_entries=tlb,
                              walker_count=walkers, deadline_s=DEADLINE_S)

    client1, client2 = [], []
    for _round in range(ROUNDS):
        for names in rng.sample(pairs1, len(pairs1)):
            client1 += [metrics((names[0],), "baseline"),
                        metrics((names[1],), "baseline"),
                        metrics(names, "baseline"), metrics(names, "dwspp")]
        for names in rng.sample(pairs2, len(pairs2)):
            client2.append(metrics(names, "baseline"))
            for tlb, walkers in CAPACITY_POINTS:
                client2 += [metrics(names, "baseline", tlb, walkers),
                            metrics(names, "dws", tlb, walkers)]
    return pairs1, [client1, client2]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_ready(port: int, proc: Optional[subprocess.Popen] = None) -> None:
    """Poll ``/readyz`` every millisecond until it answers 200."""
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if proc is not None and proc.poll() is not None:
            raise CheckFailed(f"repro serve exited {proc.returncode} "
                              "before it was ready")
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        try:
            conn.request("GET", "/readyz")
            if conn.getresponse().status == 200:
                return
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.001)
    raise CheckFailed("repro serve never became ready")


def vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed("no VmHWM in /proc status")


def run_clients(port: int, lists: Sequence[List[PlacementQuery]],
                tracer=None) -> Tuple[float, List[Answer]]:
    """Both closed-loop clients; returns ``(trial wall, answers)``."""
    url = f"http://127.0.0.1:{port}"
    answers: List[List[Answer]] = [[] for _ in lists]
    start = threading.Barrier(len(lists) + 1)

    def loop(index: int) -> None:
        client = ServeClient(url)
        out = answers[index]
        start.wait()
        with (tracer.span("bench.client") if tracer else nullcontext()):
            for query in lists[index]:
                key = query.key()
                t0 = time.perf_counter()
                try:
                    with (tracer.span("bench.request", key=key)
                          if tracer else nullcontext()):
                        reply = client.query(query)
                except ServeUnavailable as exc:
                    out.append(Answer(query, time.perf_counter() - t0,
                                      error=str(exc)))
                    continue
                out.append(Answer(query, time.perf_counter() - t0,
                                  reply.status, reply.estimate,
                                  reply.payload))

    threads = [threading.Thread(target=loop, args=(i,), daemon=True)
               for i in range(len(lists))]
    for thread in threads:
        thread.start()
    start.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    flat = [a for per in answers for a in per]
    if len(flat) != sum(len(queries) for queries in lists):
        raise CheckFailed("a client stopped before its last query")
    return wall, flat


def _fill_tables(stdout: str) -> List[str]:
    """The rendered tables in ``repro campaign`` output."""
    return [block for block in stdout.split("\n\n")
            if block.startswith("== ")]


def _fill_cli(cache: Path, pairs1) -> Tuple[float, List[str]]:
    argv = [sys.executable, "-m", "repro", "campaign",
            "--figures", "fig5,fig6,fig7",
            "--pairs", ",".join(".".join(p) for p in pairs1),
            "--scale", str(SERVE_SCALE), "--warps", str(WARPS),
            "--seed", str(FILL_SEED), "--workers", str(WORKERS),
            "--cache-dir", str(cache)]
    elapsed, stdout = run_child(argv)
    return elapsed, _fill_tables(stdout)


def expected_payloads(cache: Path,
                      queries: Sequence[PlacementQuery]) -> Dict[str, str]:
    """Canonical payload JSON each consolidation query must get: the
    campaign's own cached ``RunResult``, read through ``ResultCache.get``
    under the campaign's job key (event budget ``DEFAULT_MAX_EVENTS``)."""
    store = ResultCache(cache)
    expected: Dict[str, str] = {}
    for query in queries:
        if query.key() in expected:
            continue
        job = Job(label="expected", names=query.workloads,
                  config=query.config().with_policy(query.policy),
                  scale=SERVE_SCALE, warps_per_sm=WARPS, seed=FILL_SEED,
                  max_events=DEFAULT_MAX_EVENTS)
        result = store.get(job_key(job))
        if result is None:
            raise CheckFailed(f"the campaign cache lacks {query.workloads} "
                              f"under {query.policy}")
        expected[query.key()] = canonical(
            metrics_from_result(query.workloads, result))
    return expected


def canonical(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True)


def check_answers(out: Outcome, answers: List[Answer],
                  expected: Dict[str, str], seen: Dict[str, str]) -> None:
    """Output checks over one trial's answers.

    ``seen`` maps query key -> canonical payload of every simulation-
    backed answer so far, across trials: revisits must repeat it.
    """
    for a in answers:
        if a.status is None:
            continue  # a transport error: counted as failed, not wrong
        key = a.query.key()
        from_simulation = a.status in (STATUS_EXACT, STATUS_SIMULATED)
        out.check(from_simulation or a.estimate,
                  f"{a.status} answer to {key} is not labeled "
                  "estimate=True")
        if key in expected:
            out.check(from_simulation
                      and canonical(a.payload) == expected[key],
                      f"answer to campaign-covered query {key} "
                      f"({a.status}) differs from the campaign's result")
        if from_simulation:
            payload = canonical(a.payload)
            out.check(seen.setdefault(key, payload) == payload,
                      f"answers to {key} disagree across visits")


def latencies(answers: Sequence[Answer]) -> List[float]:
    """Latency samples, each failed answer as a missed limit."""
    return with_failures([a.latency_s for a in answers if not is_failure(a)],
                         sum(1 for a in answers if is_failure(a)))


def serve_metrics(out: Outcome, setup_s: float, setup_detail: str,
                  walls: List[float], answers: List[Answer],
                  rss_mb: float) -> None:
    failed = sum(1 for a in answers if is_failure(a))
    samples = latencies(answers)
    pct, tail = tail_percentile(samples)
    window_ms = sum(walls) * 1e3
    out.attempted, out.failed = len(answers), failed
    out.metrics.update({
        "setup_s": Metric(setup_s, "s", setup_detail),
        "wall_s": Metric(median(walls), "s",
                         f"median of {len(walls)} trials of "
                         f"{len(answers) // len(walls)} queries: "
                         + ", ".join(f"{w:.3f}" for w in walls)),
        "p50_ms": Metric(finite_or(median(samples) * 1e3, window_ms), "ms",
                         f"client send to parsed answer, n={len(samples)}"),
        "p99_ms": Metric(finite_or(tail * 1e3, window_ms), "ms",
                         f"p{pct:.2f}, n={len(samples)}"),
        "queries_per_s": Metric(
            (len(answers) - failed) / len(walls) / median(walls), "1/s",
            "completed queries per second of the median trial, closed "
            "loop of 2 clients"),
        "peak_rss_mb": Metric(rss_mb, "MB", "repro serve process"),
    })
    per_trial = len(answers) // len(walls)
    trial_p50 = [finite_or(median(latencies(answers[i:i + per_trial])) * 1e3,
                           window_ms)
                 for i in range(0, len(answers), per_trial)]
    out.notes.append("p50 ms per trial "
                     + ", ".join(f"{v:.3f}" for v in trial_p50))
    tiers: Dict[str, int] = {}
    for a in answers:
        tier = a.status or "transport-error"
        tiers[tier] = tiers.get(tier, 0) + 1
    out.notes.append(f"tiers {json.dumps(tiers, sort_keys=True)}")
    errors = [a.error for a in answers if a.status is None]
    if errors:
        out.notes.append(f"first transport error: {errors[0]}")


def _serve_digest(tables: List[str], seen: Dict[str, str]) -> List[str]:
    return tables + [f"{key} {seen[key]}" for key in sorted(seen)]


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def run_serve(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    pairs1, lists = schedules(seed)
    answers: List[Answer] = []
    walls, ready, rss = [], [], []
    seen: Dict[str, str] = {}
    with WorkDir() as work:
        fill_s, tables = _fill_cli(work / "fill", pairs1)
        expected = expected_payloads(work / "fill", lists[0])
        while len(walls) < MIN_TRIALS or sum(walls) < seconds:
            cache = fresh_copy(work / "fill", work / f"serve{len(walls)}")
            port = free_port()
            launched = time.monotonic()
            with open(work / "serve.log", "ab") as log:
                proc = subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--cache-dir", str(cache), "--port", str(port),
                     "--scale", str(SERVE_SCALE), "--warps", str(WARPS)],
                    cwd=ROOT, env=child_env(), stdout=log, stderr=log)
            try:
                wait_ready(port, proc)
                ready.append(time.monotonic() - launched)
                wall, trial = run_clients(port, lists)
                rss.append(vm_hwm_mb(proc.pid))
            finally:
                _stop(proc)
            check_answers(out, trial, expected, seen)
            walls.append(wall)
            answers += trial
            shutil.rmtree(cache)
    serve_metrics(out, fill_s + median(ready),
                  f"fill {fill_s:.3f} s + median of {len(ready)} server "
                  "starts to /readyz 200", walls, answers, max(rss))
    out.digest_parts = _serve_digest(tables, seen)
    return out


# ----------------------------------------------------------------------
# Traced run: fill and server in this process.
# ----------------------------------------------------------------------
def _fill_in_process(tracer, cache: Path, pairs1) -> List[str]:
    from campaign_child import render
    from repro.harness.campaign import run_campaign
    from repro.harness.runner import Session

    session = Session(scale=SERVE_SCALE, warps_per_sm=WARPS, seed=FILL_SEED,
                      cache_dir=str(cache))
    with tracer.span("bench.campaign"):
        report = run_campaign(session, figures=["fig5", "fig6", "fig7"],
                              pairs=[".".join(p) for p in pairs1],
                              workers=1)
        return render(report)


def _trial_in_process(cache: Path, lists, tracer=None
                      ) -> Tuple[float, List[Answer]]:
    from repro.serve.server import ReproServer, ServeHTTPServer

    repro = ReproServer(cache, scale=SERVE_SCALE, warps_per_sm=WARPS)
    repro.start()
    httpd = ServeHTTPServer(("127.0.0.1", 0), repro)
    thread = threading.Thread(target=httpd.serve_forever,
                              kwargs={"poll_interval": 0.2}, daemon=True)
    thread.start()
    try:
        wait_ready(httpd.server_address[1])
        return run_clients(httpd.server_address[1], lists, tracer)
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join()
        repro.drain()


def trace_serve(inst, seed: int) -> Outcome:
    out = Outcome()
    pairs1, lists = schedules(seed)
    seen: Dict[str, str] = {}
    with WorkDir() as work:
        with inst:
            tables = _fill_in_process(inst.tracer, work / "fill", pairs1)
        expected = expected_payloads(work / "fill", lists[0])
        plain_wall, plain = _trial_in_process(
            fresh_copy(work / "fill", work / "plain"), lists)
        check_answers(out, plain, expected, seen)
        with inst:
            wall, answers = _trial_in_process(
                fresh_copy(work / "fill", work / "traced"), lists,
                inst.tracer)
        check_answers(out, answers, expected, seen)
    out.attempted = len(answers)
    out.failed = sum(1 for a in answers if is_failure(a))
    out.digest_parts = _serve_digest(tables, seen)
    out.traced_wall_s = wall
    out.overhead = wall / plain_wall - 1.0
    out.serve_layers, unmatched, covered = serve_layer_metrics(
        inst, answers, expected)
    out.check(unmatched == 0, f"{unmatched} client request(s) matched no "
                              "ReproServer.query span")
    out.notes.append(
        f"campaign-covered first visits {covered:.0f}, answered exact "
        f"{out.serve_layers['serve.campaign_exact_ratio'] * covered:.0f}")
    return out


def serve_layer_metrics(inst, answers: List[Answer], expected: Dict[str, str]
                        ) -> Tuple[Dict[str, float], int, int]:
    """Serve's per-layer split from the spans and the client's answers,
    how many answered requests matched no query span, and how many
    campaign-covered queries were visited."""
    spans = inst.tracer.spans
    queries: Dict[str, List] = {}
    for s in spans:
        if s.name == "serve.query":
            queries.setdefault(s.attrs["key"], []).append(s)
    http, exact, simulated = [], [], []
    requests = [s for s in spans if s.name == "bench.request"]
    for request in requests:
        # Keys are unique to one sequential client, so at most one query
        # span with the request's key lies inside it.
        match = [q for q in queries.get(request.attrs["key"], ())
                 if q.start >= request.start and q.end <= request.end]
        if len(match) == 1:
            http.append(request.duration - match[0].duration)
    for q in (q for qs in queries.values() for q in qs):
        if q.attrs["status"] == STATUS_EXACT:
            exact.append(q.duration)
        elif q.attrs["status"] == STATUS_SIMULATED:
            simulated.append(q.duration)
    records = [s.duration for s in spans if s.name == "serve.index_record"]
    first_visits: Dict[str, str] = {}
    for a in answers:
        first_visits.setdefault(a.query.key(), a.status or "")
    covered = [status for key, status in first_visits.items()
               if key in expected]

    def p50_ms(values):
        return median(values) * 1e3 if values else 0.0

    return {
        "serve.http_ms_p50": p50_ms(http),
        "serve.exact_ms_p50": p50_ms(exact),
        "serve.index_record_ms_p50": p50_ms(records),
        "serve.simulated_ms_p50": p50_ms(simulated),
        "serve.exact_ratio": (sum(1 for a in answers
                                  if a.status == STATUS_EXACT)
                              / len(answers)),
        "serve.campaign_exact_ratio": (
            sum(1 for status in covered if status == STATUS_EXACT)
            / len(covered) if covered else 0.0),
    }, sum(1 for a in answers if a.status is not None) - len(http), \
        len(covered)
