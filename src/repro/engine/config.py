"""Configuration dataclasses for the simulated GPU.

:meth:`GpuConfig.baseline` encodes the paper's Table I configuration.
Every evaluated variant in the paper is derivable through the ``with_*``
helpers: S-TLB / S-(TLB+PTW) (Section IV), the DWS/DWS++/static/MASK
policies (Sections V–VII), the TLB-size and walker-count sensitivity
sweeps (Figure 12), 3–4 tenants (Figure 13) and 64 KB pages (Figure 14).

Latencies that the paper does not spell out (it inherits them from
GPGPU-Sim) are set to conventional values; they are plainly visible and
sweepable here.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional, Tuple


@dataclass(frozen=True)
class TlbConfig:
    """A set-associative TLB."""

    entries: int
    associativity: int
    hit_latency: int
    mshr_entries: int

    def __post_init__(self) -> None:
        if self.entries <= 0 or self.associativity <= 0:
            raise ValueError("TLB entries and associativity must be positive")
        if self.entries % self.associativity:
            raise ValueError(
                f"TLB entries ({self.entries}) not divisible by associativity "
                f"({self.associativity})"
            )

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class CacheConfig:
    """A set-associative, write-back data cache."""

    size_bytes: int
    line_bytes: int
    associativity: int
    hit_latency: int
    mshr_entries: int
    banks: int = 1

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.associativity):
            raise ValueError("cache size not divisible by way size")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass(frozen=True)
class DramConfig:
    """Per-channel latency/occupancy DRAM model."""

    channels: int
    access_latency: int
    cycles_per_access: int  # channel occupancy per access (bandwidth limit)


@dataclass(frozen=True)
class WalkerConfig:
    """The shared page-walk subsystem (paper Table I: 16 walkers,
    192-entry walk queue, 128-entry page walk cache)."""

    num_walkers: int
    queue_entries: int  # total across the subsystem
    pwc_entries: int
    pwc_latency: int
    dispatch_latency: int  # DWS/DWS++ bookkeeping latency, conservatively 1

    @property
    def per_walker_queue(self) -> int:
        """Queue slots per walker when the monolithic queue is split
        equally (Section VI-A)."""
        return self.queue_entries // self.num_walkers


@dataclass(frozen=True)
class SmConfig:
    """A streaming multiprocessor and its private resources."""

    num_sms: int
    warp_slots: int
    issue_width: int
    max_outstanding_mem: int  # per-SM memory MSHRs gating issue
    l1_tlb: TlbConfig
    l1_cache: CacheConfig


@dataclass(frozen=True)
class PolicySpec:
    """Which walker-scheduling policy runs and with what parameters.

    ``name`` is one of ``baseline`` (shared FIFO queue), ``static``
    (equal partition, no stealing), ``dws``, ``dwspp``, ``mask``,
    ``mask+dws``.  ``params`` carries policy-specific knobs; for DWS++
    these are the Table IV / Table VII threshold schedules.
    """

    name: str = "baseline"
    params: Dict[str, Any] = field(default_factory=dict)

    KNOWN = ("baseline", "static", "dws", "dwspp", "mask", "mask+dws")

    def __post_init__(self) -> None:
        if self.name not in self.KNOWN:
            raise ValueError(f"unknown policy {self.name!r}; expected one of {self.KNOWN}")

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.params.items()))))


@dataclass(frozen=True)
class GpuConfig:
    """Complete configuration of the simulated GPU."""

    sm: SmConfig
    l2_tlb: TlbConfig
    l2_cache: CacheConfig
    dram: DramConfig
    walkers: WalkerConfig
    policy: PolicySpec = field(default_factory=PolicySpec)
    page_size_bits: int = 12  # 4 KB pages; 16 for the 64 KB pages of Fig 14
    interconnect_latency: int = 20
    # Idealized motivation configs of Section IV: give each tenant a
    # private copy of the L2 TLB and/or of the walker pool.
    separate_l2_tlb: bool = False  # "S-TLB"
    separate_walkers: bool = False  # with separate_l2_tlb -> "S-(TLB+PTW)"
    max_tenants: int = 8  # fixed at design time (Section VI-C)

    # ------------------------------------------------------------------
    # Canonical configurations
    # ------------------------------------------------------------------
    @staticmethod
    def baseline(num_sms: int = 30) -> "GpuConfig":
        """The paper's Table I configuration."""
        l1_tlb = TlbConfig(entries=32, associativity=4, hit_latency=1, mshr_entries=12)
        l1_cache = CacheConfig(
            size_bytes=16 * 1024, line_bytes=128, associativity=4,
            hit_latency=4, mshr_entries=32,
        )
        sm = SmConfig(
            num_sms=num_sms, warp_slots=24, issue_width=1,
            max_outstanding_mem=12, l1_tlb=l1_tlb, l1_cache=l1_cache,
        )
        l2_tlb = TlbConfig(entries=1024, associativity=16, hit_latency=10, mshr_entries=64)
        l2_cache = CacheConfig(
            size_bytes=2 * 1024 * 1024, line_bytes=128, associativity=16,
            hit_latency=30, mshr_entries=128, banks=16,
        )
        dram = DramConfig(channels=16, access_latency=160, cycles_per_access=4)
        walkers = WalkerConfig(
            num_walkers=16, queue_entries=192, pwc_entries=128,
            pwc_latency=2, dispatch_latency=1,
        )
        return GpuConfig(sm=sm, l2_tlb=l2_tlb, l2_cache=l2_cache, dram=dram,
                         walkers=walkers)

    # ------------------------------------------------------------------
    # Variant derivation helpers
    # ------------------------------------------------------------------
    def with_policy(self, name: str, **params: Any) -> "GpuConfig":
        return replace(self, policy=PolicySpec(name=name, params=dict(params)))

    def with_separate_tlb(self) -> "GpuConfig":
        """Section IV's S-TLB: a private L2 TLB per tenant."""
        return replace(self, separate_l2_tlb=True, separate_walkers=False)

    def with_separate_tlb_and_walkers(self) -> "GpuConfig":
        """Section IV's S-(TLB+PTW): private L2 TLB and walker pool."""
        return replace(self, separate_l2_tlb=True, separate_walkers=True)

    def with_l2_tlb_entries(self, entries: int) -> "GpuConfig":
        return replace(self, l2_tlb=replace(self.l2_tlb, entries=entries))

    def with_walker_count(self, num_walkers: int, queue_entries: Optional[int] = None) -> "GpuConfig":
        if queue_entries is None:
            # keep 12 queue slots per walker as in the default 192/16
            queue_entries = 12 * num_walkers
        return replace(
            self, walkers=replace(self.walkers, num_walkers=num_walkers,
                                  queue_entries=queue_entries)
        )

    def with_page_size_bits(self, bits: int) -> "GpuConfig":
        if bits not in (12, 16, 21):
            raise ValueError("supported page sizes: 4KB (12), 64KB (16), 2MB (21)")
        return replace(self, page_size_bits=bits)

    def with_num_sms(self, num_sms: int) -> "GpuConfig":
        return replace(self, sm=replace(self.sm, num_sms=num_sms))

    @property
    def page_size(self) -> int:
        return 1 << self.page_size_bits

    def describe(self) -> str:
        p = self.policy
        tags = []
        if self.separate_l2_tlb and self.separate_walkers:
            tags.append("S-(TLB+PTW)")
        elif self.separate_l2_tlb:
            tags.append("S-TLB")
        tag = f" [{','.join(tags)}]" if tags else ""
        return (
            f"{p.name}{tag}: {self.sm.num_sms} SMs, L2TLB {self.l2_tlb.entries}e, "
            f"{self.walkers.num_walkers} PTWs, {self.page_size >> 10}KB pages"
        )


def config_key(config: GpuConfig) -> Tuple:
    """Hashable identity of a config, for caching stand-alone runs."""
    return tuple(
        (f.name, getattr(config, f.name))
        for f in dataclasses.fields(config)
    )


def config_from_dict(data: Dict[str, Any]) -> GpuConfig:
    """Inverse of ``dataclasses.asdict`` for :class:`GpuConfig`.

    Forensics bundles persist the exact failing configuration as plain
    JSON; this rebuilds it — including every derived variant (separate
    TLBs/walkers, page size, policy params) — so a replay runs the same
    simulation, not a near miss.  Unknown keys raise rather than being
    dropped: a bundle from a newer schema must not silently replay a
    different machine.
    """
    sm_data = dict(data["sm"])
    sm = SmConfig(**{
        **sm_data,
        "l1_tlb": TlbConfig(**sm_data["l1_tlb"]),
        "l1_cache": CacheConfig(**sm_data["l1_cache"]),
    })
    policy_data = dict(data.get("policy") or {})
    policy = PolicySpec(name=policy_data.get("name", "baseline"),
                        params=dict(policy_data.get("params") or {}))
    scalars = {
        key: data[key]
        for key in ("page_size_bits", "interconnect_latency",
                    "separate_l2_tlb", "separate_walkers", "max_tenants")
        if key in data
    }
    return GpuConfig(
        sm=sm,
        l2_tlb=TlbConfig(**data["l2_tlb"]),
        l2_cache=CacheConfig(**data["l2_cache"]),
        dram=DramConfig(**data["dram"]),
        walkers=WalkerConfig(**data["walkers"]),
        policy=policy,
        **scalars,
    )
