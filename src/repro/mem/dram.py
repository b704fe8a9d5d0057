"""DRAM channel model.

The paper's evaluation depends on page walks costing "hundreds of cycles"
and on memory bandwidth contention between co-running tenants.  We model
each channel as a server with a fixed access latency plus an occupancy
term: back-to-back accesses to the same channel serialize by
``cycles_per_access``, which bounds per-channel bandwidth.  Addresses are
interleaved across channels at cache-line granularity, as in GPUs.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.config import DramConfig
from repro.engine.simulator import Simulator
from repro.engine.stats import StatsRegistry


class Dram:
    """Multi-channel DRAM with latency + bandwidth-occupancy modeling."""

    def __init__(
        self,
        sim: Simulator,
        config: DramConfig,
        line_bytes: int = 128,
        name: str = "dram",
    ) -> None:
        self.sim = sim
        self.config = config
        self.line_bytes = line_bytes
        self.name = name
        # earliest cycle at which each channel can start a new access
        self._channel_free = [0] * config.channels
        # hot-path scalars, lifted off the config dataclass
        self._channels = config.channels
        self._cycles_per_access = config.cycles_per_access
        self._access_latency = config.access_latency
        stats: StatsRegistry = sim.stats
        self._accesses = stats.counter(f"{name}.accesses")
        self._queue_delay = stats.accumulator(f"{name}.queue_delay")

    def channel_of(self, addr: int) -> int:
        """Line-interleaved channel mapping."""
        return (addr // self.line_bytes) % self.config.channels

    def access(
        self,
        addr: int,
        is_write: bool,
        on_done: Callable[[], None],
        tenant_id: int = 0,
    ) -> None:
        """Perform a DRAM access; ``on_done`` fires at completion time."""
        self._accesses.value += 1
        channel = (addr // self.line_bytes) % self._channels
        free = self._channel_free
        sim = self.sim
        now = sim.now
        start = free[channel]
        if start < now:
            start = now
        self._queue_delay.add(start - now)
        free[channel] = start + self._cycles_per_access
        sim.events.push_raw(start + self._access_latency, on_done, ())
