"""Wiring of the memory hierarchy: per-SM L1 caches, banked shared L2, DRAM.

Two access paths exist:

* **data path** — an SM's memory instruction goes through its private L1
  cache, then the shared L2, then DRAM;
* **walker path** — page-table walker accesses go directly to the shared
  L2 (page tables are cacheable, paper Section II) and then DRAM.

Both paths converge on the same L2/DRAM instances, so page-table traffic
and data traffic contend for the same capacity and bandwidth.
"""

from __future__ import annotations

from typing import Callable, List

from repro.engine.config import GpuConfig
from repro.engine.simulator import Simulator
from repro.mem.cache import Cache
from repro.mem.dram import Dram
from repro.mem.frames import FrameAllocator
from repro.mem.interconnect import Interconnect


class MemoryHierarchy:
    """Instantiates and connects DRAM, the shared L2 and per-SM L1 caches."""

    def __init__(self, sim: Simulator, config: GpuConfig) -> None:
        self.sim = sim
        self.config = config
        self.frames = FrameAllocator(frame_bytes=config.page_size)
        self.dram = Dram(sim, config.dram, line_bytes=config.l2_cache.line_bytes)
        self.l2 = Cache(sim, config.l2_cache, lower=self.dram, name="l2c")
        # SMs reach the L2 over the interconnect (one port per L2 bank).
        self.noc = Interconnect(
            sim, self.l2, latency=config.interconnect_latency,
            ports=config.l2_cache.banks,
            line_bytes=config.l2_cache.line_bytes,
        )
        self.l1s: List[Cache] = [
            Cache(sim, config.sm.l1_cache, lower=self.noc, name=f"l1c.sm{i}")
            for i in range(config.sm.num_sms)
        ]

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------
    def data_access(self, sm_id: int, paddr: int, is_write: bool,
                    on_done: Callable[[], None], tenant_id: int = 0) -> None:
        """An SM data access: L1 -> (NoC) -> L2 -> DRAM."""
        self.l1s[sm_id].access(paddr, is_write, on_done, tenant_id)

    def walker_access(self, paddr: int, on_done: Callable[[], None],
                      tenant_id: int = 0) -> None:
        """A page-table walker access: straight to the shared L2."""
        self.l2.access(paddr, False, on_done, tenant_id)
