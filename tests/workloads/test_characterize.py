"""Characterization tests: the models land in their Table II bands.

These run real (scaled-down) stand-alone simulations, so they are the
slowest unit tests in the suite; one representative per band runs by
default and the full 13-benchmark sweep is marked slow.
"""

import pytest

from repro.engine.config import GpuConfig
from repro.workloads import benchmark, benchmark_names
from repro.tenancy.manager import MultiTenantManager
from repro.tenancy.tenant import Tenant
from repro.workloads.characterize import (
    Characterization,
    band_of,
    characterize,
)
from repro.workloads.suite import BENCHMARKS

SMALL_SCALE = 0.5  # keep test-suite runtime in check


class TestBandOf:
    def test_boundaries(self):
        assert band_of(0) == "L"
        assert band_of(24.9) == "L"
        assert band_of(25.1) == "M"
        assert band_of(79.9) == "M"
        assert band_of(80.1) == "H"


@pytest.mark.parametrize("name", ["HS", "3DS", "GUPS"])
def test_representative_benchmark_lands_in_its_band(name):
    c = characterize(benchmark(name, scale=SMALL_SCALE), warps_per_sm=3)
    assert c.band == BENCHMARKS[name].category, (
        f"{name}: measured MPMI {c.mpmi:.1f} -> band {c.band}, "
        f"expected {BENCHMARKS[name].category}"
    )


def test_warm_mpmi_below_cold():
    c = characterize(benchmark("HS", scale=SMALL_SCALE), warps_per_sm=3)
    assert c.mpmi <= c.cold_mpmi


def test_heavy_orders_of_magnitude_above_light():
    light = characterize(benchmark("MM", scale=SMALL_SCALE), warps_per_sm=3)
    heavy = characterize(benchmark("QTC", scale=SMALL_SCALE), warps_per_sm=3)
    assert heavy.mpmi > 100 * max(light.mpmi, 1.0)


@pytest.mark.slow
@pytest.mark.parametrize("name", benchmark_names())
def test_full_suite_banding(name):
    c = characterize(benchmark(name), warps_per_sm=4)
    assert c.band == BENCHMARKS[name].category, (
        f"{name}: measured MPMI {c.mpmi:.1f}, expected band "
        f"{BENCHMARKS[name].category}"
    )


def hand_built_characterization(workload, config):
    """The reference: one manager built by hand for two executions, as
    characterize ran before it shared the harness's simulate()."""
    result = MultiTenantManager(config, [Tenant(0, workload)],
                                min_executions=2).run()
    executions = result.tenants[0].executions
    return Characterization(
        name=workload.name,
        instructions=executions[-1].instructions,
        l2_tlb_misses=executions[-1].l2_tlb_misses,
        ipc=executions[-1].ipc,
        cold_mpmi=executions[0].mpmi,
    )


@pytest.mark.parametrize("policy", ["baseline", "dws"])
@pytest.mark.parametrize("name", ["HS", "MM", "GUPS", "SAD"])
def test_matches_hand_built_run(name, policy):
    config = GpuConfig.baseline().with_policy(policy)
    workload = benchmark(name, scale=0.05)
    assert characterize(workload, config) == hand_built_characterization(
        workload, config)
