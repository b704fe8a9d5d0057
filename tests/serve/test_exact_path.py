"""Serve's exact tier end to end: campaign-warmed keys, the event budget
rule at serve's cache lookups, and the kept-alive HTTP path."""

import dataclasses
import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.harness.campaign import run_campaign
from repro.harness.parallel import run_jobs
from repro.harness.result_cache import ResultCache, job_key
from repro.harness.runner import Session
from repro.serve.client import ServeClient, ServeUnavailable
from repro.serve.queries import (
    STATUS_EXACT,
    STATUS_SIMULATED,
    PlacementQuery,
    metrics_from_result,
)
from repro.serve.server import ServeHTTPServer, ServeManifest

from .conftest import DEADLINE, MAX_EVENTS, SCALE, make_server


def query(names=("GUPS",), policy="baseline"):
    return PlacementQuery(kind="metrics", workloads=tuple(names),
                          policy=policy, deadline_s=DEADLINE)


class AcceptCounter:
    """HTTP server mixin counting the TCP connections it accepts."""

    accepted = 0

    def process_request(self, request, client_address):
        self.accepted += 1
        super().process_request(request, client_address)


class CountingHTTPServer(AcceptCounter, ServeHTTPServer):
    pass


@pytest.fixture
def listening():
    """Start an HTTP server class on a free port; yields a factory."""
    started = []

    def start(server_class, *args):
        httpd = server_class(("127.0.0.1", 0), *args)
        thread = threading.Thread(target=httpd.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        started.append((httpd, thread))
        return httpd, f"http://127.0.0.1:{httpd.server_address[1]}"

    yield start
    for httpd, thread in started:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestCampaignWarmsServe:
    def test_campaign_cache_answers_exact_under_another_budget(self,
                                                               tmp_path):
        root = tmp_path / "cache"
        session = Session(scale=SCALE, warps_per_sm=2, seed=0,
                          cache_dir=str(root))
        report = run_campaign(session, figures=["fig7"], pairs=["HS.MM"],
                              workers=1)
        assert report.ok and report.simulated > 0
        assert session.max_events != MAX_EVENTS  # 200 M against serve's 5 M

        server = make_server(root)
        server.start()
        try:
            store = ResultCache(root)
            for names, policy in ((("HS", "MM"), "baseline"),
                                  (("HS", "MM"), "dws"),
                                  (("HS", "MM"), "dwspp"),
                                  (("HS",), "baseline"),
                                  (("MM",), "baseline")):
                response = server.query(query(names, policy))
                assert response.status == STATUS_EXACT, (names, policy)
                expected = store.get(job_key(session.job_for(
                    names, query(names).config().with_policy(policy))))
                assert response.payload == metrics_from_result(names,
                                                               expected)
            assert server.cache.stores == 0
        finally:
            server.drain(timeout=2.0)


class TestBudgetRule:
    """A stored result that fired more events than serve's budget does
    not answer serve: the job runs, and fails, as it would uncached."""

    @pytest.fixture
    def stored(self, tmp_path):
        root = tmp_path / "cache"
        job = make_server(root)._job_for(query(), "baseline")
        result = run_jobs([job], workers=1, cache=ResultCache(root))
        return root, job, result[job.label].events_fired

    def test_budget_below_stored_events_is_not_exact(self, stored):
        root, _job, events = stored
        server = make_server(root, max_events=events - 1)
        server.start()
        try:
            response = server.query(query())
            assert response.status not in (STATUS_EXACT, STATUS_SIMULATED)
            assert server.cache.hits == 0
        finally:
            server.drain(timeout=2.0)
        covering = make_server(root, max_events=events)
        covering.start()
        try:
            assert covering.query(query()).status == STATUS_EXACT
        finally:
            covering.drain(timeout=2.0)

    def test_resume_reenqueues_job_the_stored_result_does_not_answer(
            self, stored):
        root, job, events = stored
        short = dataclasses.replace(job, max_events=events - 1)
        ServeManifest(root / "serve" / "manifest.json").save(
            [(job_key(short), short)])
        server = make_server(root, max_events=events - 1)
        server._test_gate.clear()  # keep the resumed job from running
        server.start()
        try:
            assert server.resumed_jobs == 1
        finally:
            server.drain(timeout=0.5)
            server._test_gate.set()


class TestKeepAlive:
    def test_one_connection_carries_every_query(self, server, listening):
        httpd, url = listening(CountingHTTPServer, server)
        with ServeClient(url) as client:
            statuses = [client.query(query()).status for _ in range(5)]
            assert client.health()["status"] == "ok"
        assert statuses == [STATUS_SIMULATED] + [STATUS_EXACT] * 4
        assert httpd.accepted == 1

    def test_reply_before_body_leaves_connection_usable(self, server,
                                                        listening):
        _httpd, url = listening(ServeHTTPServer, server)
        conn = http.client.HTTPConnection(url[len("http://"):], timeout=60)
        try:
            body = json.dumps(query().to_dict())
            headers = {"Content-Type": "application/json"}
            conn.request("POST", "/nope", body=body, headers=headers)
            reply = conn.getresponse()
            assert reply.status == 404 and not reply.will_close
            reply.read()
            # The same connection: the unknown path's body was drained,
            # so this request is parsed as itself.
            conn.request("POST", "/query", body=body, headers=headers)
            reply = conn.getresponse()
            assert reply.status == 200
            assert json.loads(reply.read())["status"] == STATUS_SIMULATED

            # A body of unknown extent cannot be skipped: 400, and the
            # server closes the connection rather than misparse it.
            conn.request("POST", "/query", body=body,
                         headers={**headers, "Content-Length": "-1"})
            reply = conn.getresponse()
            assert reply.status == 400 and reply.will_close
            reply.read()
        finally:
            conn.close()


class _DropAfterReply(BaseHTTPRequestHandler):
    """Answers one request per connection, then closes it without a
    ``Connection: close`` header, as a server's idle timeout would."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):  # noqa: N802 (stdlib name)
        pass

    def do_GET(self):  # noqa: N802 (stdlib name)
        blob = json.dumps({"ready": True}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)
        self.close_connection = True


class _DropEverything(_DropAfterReply):
    """Answers the first request of the first connection only."""

    def do_GET(self):  # noqa: N802 (stdlib name)
        if self.server.accepted > 1:
            self.close_connection = True
            return
        super().do_GET()


class _CountingStub(AcceptCounter, ThreadingHTTPServer):
    daemon_threads = True


class TestReconnect:
    def test_dropped_idle_connection_is_reopened_once(self, listening):
        httpd, url = listening(_CountingStub, _DropAfterReply)
        with ServeClient(url) as client:
            for _ in range(3):
                assert client.ready() is True
                assert client.health() == {"ready": True}
        assert httpd.accepted == 6

    def test_a_second_drop_is_unavailable(self, listening):
        httpd, url = listening(_CountingStub, _DropEverything)
        with ServeClient(url) as client:
            assert client.health() == {"ready": True}
            with pytest.raises(ServeUnavailable):
                client.health()
        assert httpd.accepted == 2
