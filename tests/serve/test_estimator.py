"""Estimate tier: index persistence and band-nearest-neighbor blending."""

import json

from repro.serve.estimator import (
    INDEX_FILE,
    ServeIndex,
    band_rank,
    band_signature,
    index_key,
)
from repro.workloads.suite import BENCHMARKS


def metrics(total_ipc=1.0, walk=500.0):
    return {"total_ipc": total_ipc, "walk_latency_worst": walk,
            "tenants": [{"walk_latency_mean": walk}]}


def by_band(rank):
    """Any benchmark with the requested Light/Medium/Heavy rank."""
    for name in BENCHMARKS:
        if band_rank(name) == rank:
            return name
    raise AssertionError(f"no benchmark with band rank {rank}")


class TestBands:
    def test_ranks_cover_the_taxonomy(self):
        ranks = {band_rank(name) for name in BENCHMARKS}
        assert ranks == {0, 1, 2}

    def test_signature_is_order_insensitive(self):
        light, heavy = by_band(0), by_band(2)
        assert band_signature((light, heavy)) \
            == band_signature((heavy, light))


class TestServeIndex:
    def test_empty_index_estimates_nothing(self, tmp_path):
        index = ServeIndex(tmp_path)
        assert index.estimate(("GUPS",), "baseline") is None
        assert len(index) == 0

    def test_record_then_estimate_same_key(self, tmp_path):
        index = ServeIndex(tmp_path)
        index.record(("GUPS",), "baseline", None, None, metrics(2.0))
        estimate = index.estimate(("GUPS",), "baseline")
        assert estimate is not None
        assert estimate["total_ipc"] == 2.0
        key = index_key(("GUPS",), "baseline", None, None)
        assert estimate["basis"][0]["key"] == key
        assert estimate["basis"][0]["distance"] == 0.0

    def test_policy_and_tenant_count_filter(self, tmp_path):
        index = ServeIndex(tmp_path)
        index.record(("GUPS",), "dws", None, None, metrics(2.0))
        index.record(("GUPS", "SRAD"), "baseline", None, None, metrics(3.0))
        assert index.estimate(("GUPS",), "baseline") is None

    def test_band_distance_dominates_neighbor_choice(self, tmp_path):
        light, heavy = by_band(0), by_band(2)
        index = ServeIndex(tmp_path, neighbors=1)
        index.record((light,), "baseline", None, None, metrics(10.0))
        index.record((heavy,), "baseline", None, None, metrics(1.0))
        # A query for another Heavy workload must lean on the Heavy
        # neighbor, not the Light one.
        other_heavy = next(n for n in BENCHMARKS
                           if band_rank(n) == 2 and n != heavy)
        estimate = index.estimate((other_heavy,), "baseline")
        assert estimate["basis"][0]["key"] \
            == index_key((heavy,), "baseline", None, None)
        assert estimate["total_ipc"] == 1.0

    def test_knob_distance_prefers_matching_hardware(self, tmp_path):
        index = ServeIndex(tmp_path, neighbors=1)
        index.record(("GUPS",), "baseline", 512, None, metrics(1.0))
        index.record(("GUPS",), "baseline", 2048, None, metrics(4.0))
        estimate = index.estimate(("GUPS",), "baseline",
                                  l2_tlb_entries=2048)
        assert estimate["total_ipc"] == 4.0

    def test_persistence_roundtrip(self, tmp_path):
        ServeIndex(tmp_path).record(("GUPS",), "baseline", None, None,
                                    metrics(2.5))
        reloaded = ServeIndex(tmp_path)
        assert len(reloaded) == 1
        assert reloaded.estimate(("GUPS",), "baseline")["total_ipc"] == 2.5

    def test_unchanged_entry_leaves_the_file_unwritten(self, tmp_path,
                                                       monkeypatch):
        import repro.serve.estimator as estimator_module

        writes = []
        real_write = estimator_module.atomic_write_json

        def counting_write(path, *args, **kwargs):
            writes.append(path)
            real_write(path, *args, **kwargs)

        monkeypatch.setattr(estimator_module, "atomic_write_json",
                            counting_write)
        ServeIndex(tmp_path).record(("GUPS",), "baseline", None, None,
                                    metrics(2.5, walk=512.25))
        assert len(writes) == 1
        # An exact-tier hit re-records the same metrics, also after a
        # restart has reloaded the index from its JSON file.
        index = ServeIndex(tmp_path)
        index.record(("GUPS",), "baseline", None, None,
                     metrics(2.5, walk=512.25))
        assert len(writes) == 1
        index.record(("GUPS",), "baseline", None, None, metrics(2.6))
        index.record(("GUPS",), "dws", None, None, metrics(2.6))
        assert len(writes) == 3
        assert ServeIndex(tmp_path).estimate(
            ("GUPS",), "baseline")["total_ipc"] == 2.6

    def test_corrupt_index_file_starts_empty(self, tmp_path):
        (tmp_path / INDEX_FILE).write_text("{not json")
        index = ServeIndex(tmp_path)
        assert len(index) == 0
        # And a wrong format version is ignored, not crashed on.
        (tmp_path / INDEX_FILE).write_text(
            json.dumps({"format": 999, "entries": {"x": {}}}))
        assert len(ServeIndex(tmp_path)) == 0

    def test_unknown_benchmark_entries_are_skipped(self, tmp_path):
        index = ServeIndex(tmp_path)
        index.record(("GUPS",), "baseline", None, None, metrics(1.0))
        with index._lock:
            index._entries["bogus|baseline|tlbbase|ptwbase"] = {
                "names": ["NOPE"], "policy": "baseline",
                "l2_tlb_entries": None, "walker_count": None,
                "total_ipc": 9.9, "walk_latency_worst": 0.0,
                "walk_latency_mean": 0.0}
        estimate = index.estimate(("GUPS",), "baseline")
        assert estimate["total_ipc"] == 1.0
