"""Statistics primitives used by every simulated subsystem.

The registry is a flat namespace of named stat objects.  Subsystems create
stats lazily through the typed accessors (:meth:`StatsRegistry.counter`,
etc.) so that an experiment can introspect everything that was measured
without a central schema.

Four stat kinds cover everything the paper reports:

* :class:`Counter` — monotonically increasing event counts (TLB hits,
  walks enqueued, instructions committed, ...).
* :class:`Accumulator` — sum/count pairs for means (walk latency,
  interleaving degree, ...).
* :class:`Histogram` — bucketed distributions, used for queue depths and
  latency tails.
* :class:`OccupancySampler` — *time-weighted* occupancy averages, used for
  the walker-share and TLB-share measurements of Figure 9.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple


class Counter:
    """Monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Accumulator:
    """Sum/count pair for computing means and totals."""

    __slots__ = ("name", "total", "count", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def add(self, value: float) -> None:
        self.total += value
        self.count += 1
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:  # pragma: no cover
        return f"Accumulator({self.name} mean={self.mean:.3f} n={self.count})"


class Histogram:
    """Fixed-boundary bucketed histogram.

    Boundaries are upper-inclusive bucket edges; one overflow bucket
    catches everything above the last edge.
    """

    __slots__ = ("name", "edges", "buckets", "count")

    def __init__(self, name: str, edges: Iterable[float]) -> None:
        self.name = name
        self.edges: List[float] = sorted(edges)
        if not self.edges:
            raise ValueError("histogram needs at least one bucket edge")
        self.buckets = [0] * (len(self.edges) + 1)
        self.count = 0

    def add(self, value: float) -> None:
        self.count += 1
        for i, edge in enumerate(self.edges):
            if value <= edge:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def fraction_at_or_below(self, edge: float) -> float:
        """CDF value at a bucket edge (must be one of the configured edges)."""
        if edge not in self.edges:
            raise ValueError(f"{edge} is not a bucket edge of {self.name}")
        if not self.count:
            return 0.0
        idx = self.edges.index(edge)
        return sum(self.buckets[: idx + 1]) / self.count


class OccupancySampler:
    """Time-weighted average of an occupancy level.

    Call :meth:`update` every time the level changes, passing the current
    simulation time and the *new* level.  The sampler integrates
    level × elapsed-time so the mean is exact regardless of how irregular
    the updates are.
    """

    __slots__ = ("name", "_level", "_last_time", "_area", "_span_start")

    def __init__(self, name: str, start_time: int = 0, level: float = 0.0) -> None:
        self.name = name
        self._level = level
        self._last_time = start_time
        self._span_start = start_time
        self._area = 0.0

    def update(self, now: int, level: float) -> None:
        if now < self._last_time:
            raise ValueError(f"occupancy sampler {self.name} saw time go backwards")
        self._area += self._level * (now - self._last_time)
        self._level = level
        self._last_time = now

    @property
    def level(self) -> float:
        return self._level

    def mean(self, now: Optional[int] = None) -> float:
        """Time-weighted mean level over the observed span."""
        end = self._last_time if now is None else max(now, self._last_time)
        span = end - self._span_start
        if span <= 0:
            return self._level
        area = self._area + self._level * (end - self._last_time)
        return area / span


class StatsRegistry:
    """Flat, lazily-populated namespace of stat objects."""

    def __init__(self) -> None:
        self._stats: Dict[str, object] = {}

    def _get(self, name: str, factory, kind) -> object:
        stat = self._stats.get(name)
        if stat is None:
            stat = factory()
            self._stats[name] = stat
        elif not isinstance(stat, kind):
            raise TypeError(
                f"stat {name!r} already registered as {type(stat).__name__}"
            )
        return stat

    def counter(self, name: str) -> Counter:
        return self._get(name, lambda: Counter(name), Counter)  # type: ignore[return-value]

    def accumulator(self, name: str) -> Accumulator:
        return self._get(name, lambda: Accumulator(name), Accumulator)  # type: ignore[return-value]

    def histogram(self, name: str, edges: Iterable[float]) -> Histogram:
        return self._get(name, lambda: Histogram(name, edges), Histogram)  # type: ignore[return-value]

    def occupancy(self, name: str, start_time: int = 0, level: float = 0.0) -> OccupancySampler:
        return self._get(
            name, lambda: OccupancySampler(name, start_time, level), OccupancySampler
        )  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def get(self, name: str) -> Optional[object]:
        return self._stats.get(name)

    def names(self, prefix: str = "") -> List[str]:
        return sorted(n for n in self._stats if n.startswith(prefix))

    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """Flatten counters/accumulators to plain numbers for reporting."""
        out: Dict[str, float] = {}
        for name in self.names(prefix):
            stat = self._stats[name]
            if isinstance(stat, Counter):
                out[name] = stat.value
            elif isinstance(stat, Accumulator):
                out[name + ".mean"] = stat.mean
                out[name + ".count"] = stat.count
                out[name + ".total"] = stat.total
        return out

    def items(self) -> List[Tuple[str, object]]:
        return sorted(self._stats.items())
