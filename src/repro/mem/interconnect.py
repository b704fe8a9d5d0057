"""The SM-to-L2 interconnect: latency plus bounded bandwidth.

GPUs connect SMs to the banked L2 through a crossbar.  We model it as a
fixed traversal latency plus per-port occupancy: each port accepts one
request per ``cycles_per_transfer`` cycles, so request storms from many
SMs serialize at the interconnect before they reach the L2 — a
secondary contention point under multi-tenancy (the primary ones, the
L2 TLB and the walkers, live in :mod:`repro.vm`).

Ports are address-interleaved like the L2 banks, so traffic to
independent banks flows in parallel.
"""

from __future__ import annotations

from typing import Callable

from repro.engine.simulator import Simulator


class Interconnect:
    """Latency + per-port bandwidth in front of a lower component."""

    def __init__(
        self,
        sim: Simulator,
        lower,
        latency: int,
        ports: int = 8,
        cycles_per_transfer: int = 1,
        line_bytes: int = 128,
        name: str = "noc",
    ) -> None:
        if latency < 0 or ports <= 0 or cycles_per_transfer <= 0:
            raise ValueError("invalid interconnect parameters")
        self.sim = sim
        self.lower = lower
        self.latency = latency
        self.ports = ports
        self.cycles_per_transfer = cycles_per_transfer
        self.line_bytes = line_bytes
        self.name = name
        self._port_free = [0] * ports
        self._transfers = sim.stats.counter(f"{name}.transfers")
        self._queue_delay = sim.stats.accumulator(f"{name}.queue_delay")

    def port_of(self, addr: int) -> int:
        return (addr // self.line_bytes) % self.ports

    def access(self, addr: int, is_write: bool, on_done: Callable[[], None],
               tenant_id: int = 0) -> None:
        """Traverse the interconnect, then access the lower component."""
        self._transfers.value += 1
        port = (addr // self.line_bytes) % self.ports
        sim = self.sim
        now = sim.now
        start = self._port_free[port]
        if start < now:
            start = now
        self._queue_delay.add(start - now)
        self._port_free[port] = start + self.cycles_per_transfer
        sim.events.push_raw(start + self.latency, self.lower.access,
                            (addr, is_write, on_done, tenant_id))
