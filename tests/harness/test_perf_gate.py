"""Unit tests for the CI perf gate's comparison logic.

The gate compares a fresh ``BENCH_engine.json`` against the committed
baseline.  Baselines evolve: older ones predate the walk-fold rungs and
carry no per-rung fold fractions, so the gate must skip — not crash on,
not fail on — metrics the baseline does not have, while still holding
the line on every metric it does.
"""

import importlib.util
import json
from pathlib import Path

_GATE_PATH = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "check_perf_gate.py")
_spec = importlib.util.spec_from_file_location("check_perf_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _pair(speedup=1.5, fastpath=None):
    record = {
        "speedup_vs_pr4": speedup,
        "speedup_vs_seed": speedup * 2,
    }
    if fastpath is not None:
        record["fastpath"] = fastpath
    return record


def _payload(**pairs):
    return {"pairs": pairs}


class TestFastpathMetrics:
    def test_missing_in_baseline_is_skipped_not_crashed(self):
        """A baseline that predates the walk rungs gates nothing new."""
        baseline = _payload(heavy=_pair(fastpath=None))
        fresh = _payload(heavy=_pair(
            fastpath={"l2_fold_fraction": 0.0}))
        assert gate.compare(baseline, fresh, tolerance=0.10) == []

    def test_partial_baseline_gates_only_present_keys(self):
        """Keys absent from the baseline record are individually skipped."""
        baseline = _payload(heavy=_pair(
            fastpath={"hit_path_fraction": 0.5}))  # no walk-rung keys
        fresh = _payload(heavy=_pair(
            fastpath={"hit_path_fraction": 0.5}))  # still none — fine
        assert gate.compare(baseline, fresh, tolerance=0.10) == []

    def test_regressed_fraction_fails(self):
        baseline = _payload(heavy=_pair(
            fastpath={"l2_fold_fraction": 0.40}))
        fresh = _payload(heavy=_pair(
            fastpath={"l2_fold_fraction": 0.20}))
        failures = gate.compare(baseline, fresh, tolerance=0.10)
        assert len(failures) == 1
        assert "fastpath.l2_fold_fraction" in failures[0]

    def test_fraction_within_tolerance_passes(self):
        baseline = _payload(heavy=_pair(
            fastpath={"l2_fold_fraction": 0.40}))
        fresh = _payload(heavy=_pair(
            fastpath={"l2_fold_fraction": 0.37}))
        assert gate.compare(baseline, fresh, tolerance=0.10) == []

    def test_key_vanishing_from_fresh_fails(self):
        """The benchmark silently dropping a rung's report is a regression."""
        baseline = _payload(heavy=_pair(
            fastpath={"dram_batch_fraction": 0.9}))
        fresh = _payload(heavy=_pair(fastpath={}))
        failures = gate.compare(baseline, fresh, tolerance=0.10)
        assert len(failures) == 1
        assert "stopped reporting" in failures[0]


class TestSpeedupMetrics:
    def test_missing_speedup_key_is_skipped(self):
        baseline = _payload(heavy=_pair())
        del baseline["pairs"]["heavy"]["speedup_vs_seed"]
        fresh = _payload(heavy=_pair())
        assert gate.compare(baseline, fresh, tolerance=0.10) == []

    def test_regressed_speedup_fails(self):
        baseline = _payload(heavy=_pair(speedup=1.5))
        fresh = _payload(heavy=_pair(speedup=1.0))
        failures = gate.compare(baseline, fresh, tolerance=0.10)
        assert any("speedup_vs_pr4" in f for f in failures)


class TestMain:
    def test_smoke_results_are_refused(self, tmp_path):
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh.write_text(json.dumps(
            dict(_payload(heavy=_pair()), smoke=True)))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh)]) == 2

    def test_old_baseline_new_fresh_passes_end_to_end(self, tmp_path):
        """The committed-baseline upgrade path: old file, rung-rich fresh."""
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh.write_text(json.dumps(_payload(heavy=_pair(
            fastpath={"hit_path_fraction": 0.0,
                      "l2_fold_fraction": 0.1,
                      "dram_batch_fraction": 0.9}))))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh)]) == 0
