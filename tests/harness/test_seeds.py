"""Tests for seed-stability studies."""

import pytest

from repro.engine.config import GpuConfig
from repro.harness.seeds import (
    PairedComparison,
    SeedStats,
    compare_policies,
    seed_study,
)
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.pairs import split_pair
from repro.workloads.suite import benchmark

SCALE = 0.05


class TestSeedStats:
    def test_moments(self):
        s = SeedStats((1.0, 2.0, 3.0))
        assert s.mean == pytest.approx(2.0)
        assert s.minimum == 1.0 and s.maximum == 3.0
        assert s.stdev == pytest.approx(1.0)
        assert s.cv == pytest.approx(0.5)

    def test_single_value_has_zero_spread(self):
        s = SeedStats((4.0,))
        assert s.stdev == 0.0 and s.cv == 0.0


class TestSeedStudy:
    def test_runs_once_per_seed(self):
        stats = seed_study("HS.MM", GpuConfig.baseline(num_sms=2),
                           seeds=(0, 1), scale=SCALE, warps_per_sm=2)
        assert len(stats.values) == 2
        assert all(v > 0 for v in stats.values)

    def test_same_seed_twice_gives_identical_values(self):
        stats = seed_study("HS.MM", GpuConfig.baseline(num_sms=2),
                           seeds=(3, 3), scale=SCALE, warps_per_sm=2)
        assert stats.values[0] == stats.values[1]
        assert stats.cv == 0.0

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            seed_study("HS.MM", GpuConfig.baseline(num_sms=2), seeds=())


class TestPairedComparison:
    def test_ratios_and_direction(self):
        comp = PairedComparison("a", "b",
                                SeedStats((1.0, 2.0)), SeedStats((2.0, 4.0)))
        assert comp.ratios == (2.0, 2.0)
        assert comp.mean_ratio == 2.0
        assert comp.consistent_direction

    def test_mixed_direction_flagged(self):
        comp = PairedComparison("a", "b",
                                SeedStats((1.0, 2.0)), SeedStats((2.0, 1.0)))
        assert not comp.consistent_direction

    def test_compare_policies_end_to_end(self):
        base = GpuConfig.baseline(num_sms=2)
        comp = compare_policies("HS.MM", base, base.with_policy("dws"),
                                seeds=(0, 1), scale=SCALE, warps_per_sm=2,
                                label_a="baseline", label_b="dws")
        assert comp.label_b == "dws"
        assert len(comp.ratios) == 2
        assert all(r > 0 for r in comp.ratios)


def hand_built_run(pair, config, scale, warps_per_sm, seed):
    """The reference: one manager built by hand over plain suite
    workloads, as seed studies ran before they ran jobs."""
    tenants = [Tenant(i, benchmark(n, scale=scale))
               for i, n in enumerate(split_pair(pair))]
    return MultiTenantManager(config, tenants, warps_per_sm=warps_per_sm,
                              seed=seed).run()


def fingerprint(result):
    """Everything a run measured, as one comparable value."""
    return (result.total_cycles, result.events_fired,
            tuple(sorted(result.stats.items())),
            tuple((t, s.instructions, s.cycles, s.completed_executions)
                  for t, s in sorted(result.tenants.items())))


@pytest.mark.parametrize("policy", ["baseline", "dws"])
@pytest.mark.parametrize("pair", ["HS.MM", "GUPS.SAD"])
def test_seed_study_matches_hand_built_runs(pair, policy):
    config = GpuConfig.baseline().with_policy(policy)
    seeds = (0, 1)
    stats = seed_study(pair, config, seeds=seeds, scale=SCALE,
                       warps_per_sm=2, metric=fingerprint)
    assert stats.values == tuple(
        fingerprint(hand_built_run(pair, config, SCALE, 2, seed))
        for seed in seeds)
