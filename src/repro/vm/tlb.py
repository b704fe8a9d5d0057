"""Set-associative TLBs with per-tenant occupancy tracking.

One class serves both the private per-SM L1 TLBs and the shared L2 TLB.
Entries are tagged with the tenant id, because under multi-tenancy the
shared L2 TLB holds translations from multiple address spaces — exactly
the contention surface Section IV of the paper quantifies.

The TLB keeps exact per-tenant resident-entry counts and a time-weighted
occupancy sampler per tenant, which is how Figure 9's "TLB share" series
is produced.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List

from repro.engine.config import TlbConfig
from repro.engine.simulator import Simulator


class Tlb:
    """A set-associative, LRU TLB keyed by (tenant_id, vpn)."""

    def __init__(self, sim: Simulator, config: TlbConfig, name: str) -> None:
        self.sim = sim
        self.config = config
        self.name = name
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(config.num_sets)]
        # hot-path scalars, lifted off the config dataclass
        self._num_sets = config.num_sets
        self._assoc = config.associativity
        self._entries = config.entries
        self._resident_by_tenant: Dict[int, int] = {}
        self._occupancy: Dict[int, object] = {}
        stats = sim.stats
        self._hits = stats.counter(f"{name}.hits")
        self._misses = stats.counter(f"{name}.misses")
        self._evictions = stats.counter(f"{name}.evictions")
        # Counted on every probe, independently of the hit/miss branch,
        # so validate_result can enforce hits + misses == lookups as a
        # double-entry check on the lookup path.
        self._lookups = stats.counter(f"{name}.lookups")

    def _set_for(self, vpn: int) -> OrderedDict:
        return self._sets[vpn % self._num_sets]

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def lookup(self, tenant_id: int, vpn: int) -> bool:
        """True on hit (and refreshes LRU position)."""
        key = (tenant_id, vpn)
        tlb_set = self._sets[vpn % self._num_sets]
        self._lookups.value += 1
        if key in tlb_set:
            tlb_set.move_to_end(key)
            self._hits.value += 1
            return True
        self._misses.value += 1
        return False

    def insert(self, tenant_id: int, vpn: int, frame: int) -> None:
        """Fill a translation, evicting the set's LRU entry if needed."""
        key = (tenant_id, vpn)
        tlb_set = self._sets[vpn % self._num_sets]
        if key in tlb_set:
            tlb_set.move_to_end(key)
            tlb_set[key] = frame
            return
        if len(tlb_set) >= self._assoc:
            (victim_tenant, _victim_vpn), _ = tlb_set.popitem(last=False)
            self._evictions.value += 1
            self._adjust_residency(victim_tenant, -1)
        tlb_set[key] = frame
        self._adjust_residency(tenant_id, +1)

    def invalidate_tenant(self, tenant_id: int) -> int:
        """Drop every entry of a tenant (used on tenant departure)."""
        dropped = 0
        for tlb_set in self._sets:
            victims = [k for k in tlb_set if k[0] == tenant_id]
            for key in victims:
                del tlb_set[key]
                dropped += 1
        if dropped:
            self._adjust_residency(tenant_id, -dropped)
        return dropped

    # ------------------------------------------------------------------
    # Occupancy tracking (Figure 9)
    # ------------------------------------------------------------------
    def _adjust_residency(self, tenant_id: int, delta: int) -> None:
        level = self._resident_by_tenant.get(tenant_id, 0) + delta
        self._resident_by_tenant[tenant_id] = level
        # Fill/evict hot path: resolve the per-tenant sampler through the
        # stats registry once and keep it, instead of a name format plus
        # registry lookup on every insert/evict.
        sampler = self._occupancy.get(tenant_id)
        if sampler is None:
            sampler = self.sim.stats.occupancy(
                f"{self.name}.share.tenant{tenant_id}", start_time=0
            )
            self._occupancy[tenant_id] = sampler
        sampler.update(self.sim.now, level / self._entries)

    def resident(self, tenant_id: int) -> int:
        return self._resident_by_tenant.get(tenant_id, 0)

    def residency_by_tenant(self) -> Dict[int, int]:
        """Per-tenant resident-entry counts (auditor view; a copy)."""
        return dict(self._resident_by_tenant)

    def resident_total(self) -> int:
        return sum(len(s) for s in self._sets)

    def mean_share(self, tenant_id: int) -> float:
        """Time-weighted mean fraction of TLB capacity held by a tenant."""
        name = f"{self.name}.share.tenant{tenant_id}"
        sampler = self.sim.stats.get(name)
        if sampler is None:
            return 0.0
        return sampler.mean(self.sim.now)  # type: ignore[union-attr]
