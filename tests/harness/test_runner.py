"""Tests for the caching session runner."""

import pytest

from repro.cli import main
from repro.engine.config import GpuConfig
from repro.harness.runner import Session


@pytest.fixture(scope="module")
def session():
    # tiny scale keeps harness tests quick
    return Session(scale=0.15, warps_per_sm=2)


class TestRunCaching:
    def test_same_pair_same_config_cached(self, session):
        cfg = GpuConfig.baseline()
        r1 = session.run_pair("HS.MM", cfg)
        n = session.cached_runs
        r2 = session.run_pair("HS.MM", cfg)
        assert r1 is r2
        assert session.cached_runs == n

    def test_different_policy_not_cached_together(self, session):
        r1 = session.run_pair("HS.MM", GpuConfig.baseline())
        r2 = session.run_pair("HS.MM", GpuConfig.baseline().with_policy("dws"))
        assert r1 is not r2

    def test_run_names_matches_run_pair(self, session):
        r1 = session.run_pair("HS.MM", GpuConfig.baseline())
        r2 = session.run_names(["HS", "MM"], GpuConfig.baseline())
        assert r1 is r2


class TestStandalone:
    def test_standalone_measurement_fields(self, session):
        m = session.standalone("HS")
        assert m.workload == "HS"
        assert m.ipc > 0
        assert m.walk_latency > 0

    def test_standalone_cached(self, session):
        m1 = session.standalone("HS")
        m2 = session.standalone("HS")
        assert m1 is m2

    def test_standalone_strips_policy_and_separation(self, session):
        base = session.standalone("HS")
        dws = session.standalone("HS", GpuConfig.baseline().with_policy("dws"))
        sep = session.standalone(
            "HS", GpuConfig.baseline().with_separate_tlb_and_walkers()
        )
        # all three normalize to the same baseline stand-alone run
        assert base is dws is sep

    def test_standalone_ipcs_keyed_by_tenant_index(self, session):
        ipcs = session.standalone_ipcs(["HS", "MM"])
        assert set(ipcs) == {0, 1}
        assert all(v > 0 for v in ipcs.values())

    def test_resource_variant_standalone_is_distinct(self, session):
        base = session.standalone("HS")
        small = session.standalone(
            "HS", GpuConfig.baseline().with_l2_tlb_entries(512)
        )
        assert small is not base


class TestProfiledRun:
    def test_profiled_run_matches_plain_run(self, capsys):
        names, cfg = ["HS", "MM"], GpuConfig.baseline()
        plain = Session(scale=0.05, warps_per_sm=2).run_names(names, cfg)
        result, profiler = Session(scale=0.05, warps_per_sm=2).run_profiled(
            names, cfg)
        assert result.total_cycles == plain.total_cycles
        assert result.events_fired == plain.events_fired
        assert result.stats == plain.stats
        assert (profiler.events == sum(profiler.component_counts.values())
                == result.events_fired)
        assert all(key.startswith("repro.")
                   for key in profiler.component_counts)

        args = ["run", "HS.MM", "--scale", "0.05", "--warps", "2"]
        assert main(args) == 0
        plain_out = capsys.readouterr().out
        assert main(args + ["--profile-breakdown"]) == 0
        profiled_out = capsys.readouterr().out
        assert profiled_out.startswith(plain_out)
        assert "engine delivery breakdown" in profiled_out[len(plain_out):]
