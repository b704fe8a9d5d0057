"""Unit tests for the CI perf gate's comparison logic.

The gate compares a fresh ``BENCH_engine.json`` against the committed
baseline.  Baselines evolve, so the gate must skip — not crash on, not
fail on — a speedup key the baseline does not have, while still holding
the line on every key it does.
"""

import importlib.util
import json
from pathlib import Path

_GATE_PATH = (Path(__file__).resolve().parents[2]
              / "benchmarks" / "check_perf_gate.py")
_spec = importlib.util.spec_from_file_location("check_perf_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _pair(speedup=1.5):
    return {
        "speedup_vs_pr4": speedup,
        "speedup_vs_seed": speedup * 2,
    }


def _payload(**pairs):
    return {"pairs": pairs}


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
        """An unregressed fresh run passes through ``main``."""
        base = tmp_path / "base.json"
        fresh = tmp_path / "fresh.json"
        base.write_text(json.dumps(_payload(heavy=_pair())))
        fresh.write_text(json.dumps(_payload(heavy=_pair())))
        assert gate.main(["--baseline", str(base),
                          "--fresh", str(fresh)]) == 0
