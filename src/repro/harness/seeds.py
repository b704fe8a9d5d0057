"""Seed-stability studies: how noisy is a measured effect?

Simulation results depend on the seeded randomness in workload address
streams.  Before trusting a small effect (say, a 3% throughput delta
between two policies), a user should know the run-to-run spread.
:func:`seed_study` repeats a configuration across seeds and reports the
distribution; :func:`compare_policies` does the A/B version, pairing
seeds so the comparison is matched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.config import GpuConfig
from repro.harness.parallel import Job, run_job
from repro.metrics import total_ipc
from repro.tenancy.manager import RunResult
from repro.workloads.pairs import split_pair


@dataclass(frozen=True)
class SeedStats:
    """Distribution of one metric across seeds."""

    values: tuple

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def stdev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self.values)
                         / (len(self.values) - 1))

    @property
    def cv(self) -> float:
        """Coefficient of variation: stdev relative to the mean."""
        mu = self.mean
        return self.stdev / mu if mu else 0.0


def seed_study(
    pair: str,
    config: GpuConfig,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    scale: float = 0.5,
    warps_per_sm: int = 4,
    metric: Callable[[RunResult], float] = total_ipc,
) -> SeedStats:
    """Measure ``metric`` for one (pair, config) across seeds: one job
    per seed, run in turn; a failing run raises."""
    if not seeds:
        raise ValueError("need at least one seed")
    names = tuple(split_pair(pair))
    values = tuple(
        metric(run_job(Job(label=f"{pair}/seed{seed}", names=names,
                           config=config, scale=scale,
                           warps_per_sm=warps_per_sm, seed=seed)))
        for seed in seeds)
    return SeedStats(values)


@dataclass(frozen=True)
class PairedComparison:
    """Seed-matched A/B comparison of one metric under two configs."""

    label_a: str
    label_b: str
    stats_a: SeedStats
    stats_b: SeedStats

    @property
    def ratios(self) -> tuple:
        """Per-seed B/A ratios (matched pairs, not a ratio of means)."""
        return tuple(b / a for a, b in zip(self.stats_a.values,
                                           self.stats_b.values) if a)

    @property
    def mean_ratio(self) -> float:
        r = self.ratios
        return sum(r) / len(r) if r else 0.0

    @property
    def consistent_direction(self) -> bool:
        """True when every seed agrees on who wins."""
        r = self.ratios
        return bool(r) and (all(x >= 1 for x in r) or all(x <= 1 for x in r))


def compare_policies(
    pair: str,
    config_a: GpuConfig,
    config_b: GpuConfig,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    scale: float = 0.5,
    warps_per_sm: int = 4,
    metric: Callable[[RunResult], float] = total_ipc,
    label_a: str = "A",
    label_b: str = "B",
) -> PairedComparison:
    """Seed-matched comparison: each seed runs both configs."""
    stats_a = seed_study(pair, config_a, seeds, scale, warps_per_sm, metric)
    stats_b = seed_study(pair, config_b, seeds, scale, warps_per_sm, metric)
    return PairedComparison(label_a, label_b, stats_a, stats_b)
