"""Shared helpers for the serve-layer tests: tiny, fast servers."""

import pytest

from repro.harness.supervision import RetryPolicy, SupervisionPolicy
from repro.serve.admission import AdmissionPolicy, BreakerPolicy
from repro.serve.server import ReproServer

#: Tiny workloads answer in tens of milliseconds.
SCALE = 0.02
MAX_EVENTS = 5_000_000

#: Deadline generous enough that a "simulated" tier is deterministic on
#: a loaded CI box, small enough that a wedged test fails fast.
DEADLINE = 120.0

#: Breaker sized for tests: trips after 2 bad outcomes, probes after 2
#: more queries — every transition reachable with a handful of queries.
TEST_BREAKER = BreakerPolicy(window=4, threshold=0.5, min_samples=2,
                             probe_after_queries=2)

#: Retries fail fast (chaos scenarios burn attempts on purpose).
QUICK_SUPERVISION = SupervisionPolicy(
    retry=RetryPolicy(max_attempts=3, base_delay=0.001))


def make_server(root, **overrides) -> ReproServer:
    kwargs = dict(
        admission=AdmissionPolicy(max_queue_depth=8,
                                  default_deadline_s=DEADLINE,
                                  drain_timeout_s=2.0),
        breaker_policy=TEST_BREAKER,
        supervision=QUICK_SUPERVISION,
        scale=SCALE, warps_per_sm=2, max_events=MAX_EVENTS)
    kwargs.update(overrides)
    return ReproServer(root, **kwargs)


@pytest.fixture
def server(tmp_path):
    srv = make_server(tmp_path / "cache")
    srv.start()
    yield srv
    srv.drain(timeout=2.0)
