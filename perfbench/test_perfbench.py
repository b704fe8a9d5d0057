"""Unit tests of the benchmark's own arithmetic and contracts.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from spans import Span, Tracer, self_times  # noqa: E402
from stats import (digest, finite_or, median,  # noqa: E402
                   tail_percentile, with_failures)


# ----------------------------------------------------------------------
# Percentile rule: at least ten samples beyond the reported percentile
# ----------------------------------------------------------------------
def test_p99_itself_with_a_thousand_samples():
    values = list(range(1, 1001))
    pct, value = tail_percentile(values)
    assert pct == pytest.approx(99.0)
    assert value == 990
    assert sum(1 for v in values if v > value) == 10


def test_fewer_samples_fall_back_to_the_highest_supported_percentile():
    values = list(range(1, 501))
    pct, value = tail_percentile(values)
    assert sum(1 for v in values if v > value) == 10
    assert pct == pytest.approx(98.0)
    assert value == 490


def test_tail_percentile_needs_eleven_samples():
    tail_percentile(list(range(11)))
    with pytest.raises(ValueError):
        tail_percentile(list(range(10)))


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 3.0] * 10
    assert tail_percentile(values) == tail_percentile(sorted(values))


# ----------------------------------------------------------------------
# A failed operation counts as missing every latency limit
# ----------------------------------------------------------------------
def test_failures_rank_above_every_latency():
    samples = with_failures([1.0, 2.0, 3.0], failed=2)
    assert median(samples) == 3.0
    assert sorted(samples)[-2:] == [math.inf, math.inf]


def test_serve_failures_are_the_answers_users_cannot_use():
    import serve_mix

    def answer(status, estimate=False):
        query = serve_mix.PlacementQuery(kind="metrics", workloads=("MM",))
        return serve_mix.Answer(query, 0.01, status, estimate)

    for ok in (answer("exact"), answer("simulated"),
               answer("estimate", estimate=True)):
        assert not serve_mix.is_failure(ok)
    for bad in (answer(None), answer("timeout", True), answer("rejected", True),
                answer("error", True), answer("estimate", estimate=False)):
        assert serve_mix.is_failure(bad)


def test_failures_decide_the_tail():
    samples = with_failures([0.001] * 990, failed=11)
    _pct, tail = tail_percentile(samples)
    assert tail == math.inf
    assert finite_or(tail, ceiling=12.5) == 12.5
    assert finite_or(0.25, ceiling=12.5) == 0.25


# ----------------------------------------------------------------------
# Span self time
# ----------------------------------------------------------------------
def _span(sid, start, end, parent=None, name="s"):
    return Span(sid, name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 4.0, 8.0, 1),
             _span(4, 5.0, 6.0, 3)]
    own = self_times(spans)
    assert own[1] == pytest.approx(4.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_clips_overlapping_children_to_the_parent():
    spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 6.0, 1), _span(3, 5.0, 12.0, 1)]
    assert self_times(spans)[1] == pytest.approx(2.0)


def test_tracer_links_parents_per_thread_and_restores_patches():
    class Thing:
        def work(self, x):
            return x * 2

    tracer = Tracer()
    tracer.wrap(Thing, "work", "thing.work",
                after=lambda span, args, result: span.attrs.update(r=result))
    with tracer.span("root"):
        assert Thing().work(4) == 8
    tracer.restore()
    assert Thing().work(1) == 2
    root, child = sorted(tracer.spans, key=lambda s: s.sid)
    assert child.parent == root.sid and child.name == "thing.work"
    assert child.attrs == {"r": 8}
    assert len(tracer.spans) == 2


# ----------------------------------------------------------------------
# Digest
# ----------------------------------------------------------------------
def test_digest_is_exact_and_order_sensitive():
    assert digest(["a", "b"]) == digest(["a", "b"])
    assert digest(["a", "b"]) != digest(["b", "a"])
    assert digest(["ab", "c"]) != digest(["a", "bc"])
    assert digest(["x"]) != digest(["x "])
    assert re.fullmatch(r"[0-9a-f]{64}", digest([]))


def test_pinned_digests_are_well_formed():
    pins = json.loads((HERE / "digests.json").read_text())
    assert set(pins) <= {"campaign", "serve_mixed"}
    for by_seed in pins.values():
        for seed, value in by_seed.items():
            assert int(seed) >= 0
            assert re.fullmatch(r"[0-9a-f]{64}", value)


# ----------------------------------------------------------------------
# Contracts between the code and BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_follows_the_contract():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(name.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert unit.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= spec["run_seconds"] <= 60


def test_every_per_layer_metric_is_produced():
    from layers import Instrumentation

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(Instrumentation().metrics()) | {
        "trace.coverage", "trace.wall_s", "trace.overhead"}
    wanted = {m["name"] for m in spec["per_layer"]}
    assert wanted <= produced


def test_serve_clients_never_share_a_key_and_mostly_revisit():
    import serve_mix

    pairs, (client1, client2) = serve_mix.schedules(seed=7)
    keys1 = {q.key() for q in client1}
    keys2 = {q.key() for q in client2}
    assert not keys1 & keys2
    revisits = 1 - (len(keys1) + len(keys2)) / (len(client1) + len(client2))
    # Enough revisits that exact hits after the simulations end are most
    # of the queries, so the median never sits among the slow ones.
    assert revisits >= 0.95
    assert len(client2) == serve_mix.ROUNDS * 17 * len(
        serve_mix.CAPACITY_PAIRS)
    assert {frozenset(p) for p in pairs} == {
        frozenset(p.split(".")) for p in serve_mix.CONSOLIDATION_PAIRS}


def test_the_seed_picks_orientation_and_order():
    import serve_mix

    first = serve_mix.schedules(seed=0)
    assert first == serve_mix.schedules(seed=0)
    others = [serve_mix.schedules(seed=s) for s in range(1, 6)]
    assert any(o[0] != first[0] for o in others)
    assert any(o[1][1] != first[1][1] for o in others)
