"""Set-associative, write-back, write-allocate cache with MSHRs.

The cache is non-blocking: misses allocate a Miss Status Holding Register
(MSHR); further accesses to the same line merge into the existing entry.
When all MSHRs are busy the access is held in an overflow queue and
replayed as registers free up — this back-pressure is what limits each
SM's outstanding memory operations, a first-order effect in the paper's
contention analysis.

The L2 cache additionally models banking: each bank is a server with an
occupancy term, so bursts to one bank serialize while independent banks
proceed in parallel.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Tuple

from repro.engine.config import CacheConfig
from repro.engine.simulator import Simulator


class _MshrEntry:
    __slots__ = ("line", "waiters", "any_write")

    def __init__(self, line: int) -> None:
        self.line = line
        self.waiters: List[Callable[[], None]] = []
        self.any_write = False


class _Fill:
    """Fill-completion callback for one outstanding miss.

    A slotted callable instead of a per-miss closure: every miss used to
    allocate a cell object plus a fresh lambda; this reuses one small
    object with direct attribute dispatch.
    """

    __slots__ = ("cache", "line", "tenant_id")

    def __init__(self, cache: "Cache", line: int, tenant_id: int) -> None:
        self.cache = cache
        self.line = line
        self.tenant_id = tenant_id

    def __call__(self) -> None:
        self.cache._on_fill(self.line, self.tenant_id)


class Cache:
    """A non-blocking set-associative cache level.

    ``lower`` is any object with the standard
    ``access(addr, is_write, on_done, tenant_id)`` interface (another
    cache or DRAM).
    """

    def __init__(
        self,
        sim: Simulator,
        config: CacheConfig,
        lower,
        name: str,
        bank_cycles: int = 2,
    ) -> None:
        self.sim = sim
        self.config = config
        self.lower = lower
        self.name = name
        self.bank_cycles = bank_cycles
        # each set is an OrderedDict line -> dirty flag, LRU order
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(config.num_sets)]
        self._mshrs: Dict[int, _MshrEntry] = {}
        self._overflow: Deque[Tuple[int, bool, Callable[[], None], int]] = deque()
        self._bank_free = [0] * config.banks
        # Scalars lifted off the config dataclass: access() runs for
        # every data/PTE reference and attribute-chain lookups there are
        # pure kernel overhead.
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._banks = config.banks
        self._hit_latency = config.hit_latency
        self._mshr_entries = config.mshr_entries
        self._assoc = config.associativity
        stats = sim.stats
        self._hits = stats.counter(f"{name}.hits")
        self._misses = stats.counter(f"{name}.misses")
        self._merges = stats.counter(f"{name}.mshr_merges")
        self._stalls = stats.counter(f"{name}.mshr_stalls")
        self._writebacks = stats.counter(f"{name}.writebacks")

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_of(self, addr: int) -> int:
        return addr // self.config.line_bytes

    def _set_index(self, line: int) -> int:
        return line % self.config.num_sets

    def _bank_of(self, line: int) -> int:
        return line % self.config.banks

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def access(
        self,
        addr: int,
        is_write: bool,
        on_done: Callable[[], None],
        tenant_id: int = 0,
    ) -> None:
        """Look up ``addr``; ``on_done`` fires when the data is available."""
        # line_of / _bank_latency / _set_index inlined, counters bumped
        # through their value field, and the scheduler entered through
        # the handle-free raw push: this is the hottest component path
        # in the simulator.
        line = addr // self._line_bytes
        bank_free = self._bank_free
        bank = line % self._banks
        sim = self.sim
        now = sim.now
        start = bank_free[bank]
        if start < now:
            start = now
        bank_free[bank] = start + self.bank_cycles
        done = start + self._hit_latency
        cache_set = self._sets[line % self._num_sets]
        if line in cache_set:
            self._hits.value += 1
            cache_set.move_to_end(line)  # LRU touch
            if is_write:
                cache_set[line] = True  # mark dirty
            sim.events.push_raw(done, on_done, ())
            return
        # Miss path.
        pending = self._mshrs.get(line)
        if pending is not None:
            self._merges.value += 1
            pending.waiters.append(on_done)
            pending.any_write = pending.any_write or is_write
            return
        if len(self._mshrs) >= self._mshr_entries:
            self._stalls.value += 1
            self._overflow.append((addr, is_write, on_done, tenant_id))
            return
        self._misses.value += 1
        entry = _MshrEntry(line)
        entry.waiters.append(on_done)
        entry.any_write = is_write
        self._mshrs[line] = entry
        # Fetch from the lower level after our own lookup latency.
        sim.events.push_raw(
            done,
            self.lower.access,
            (line * self._line_bytes, False, _Fill(self, line, tenant_id),
             tenant_id),
        )

    def _bank_latency(self, line: int) -> int:
        """Hit latency plus bank serialization delay."""
        bank = self._bank_of(line)
        now = self.sim.now
        start = max(now, self._bank_free[bank])
        self._bank_free[bank] = start + self.bank_cycles
        return (start - now) + self.config.hit_latency

    def _on_fill(self, line: int, tenant_id: int) -> None:
        """The lower level returned the line: install it, wake waiters."""
        entry = self._mshrs.pop(line)
        self._install(line, dirty=entry.any_write, tenant_id=tenant_id)
        for waiter in entry.waiters:
            waiter()
        self._drain_overflow()

    def _install(self, line: int, dirty: bool, tenant_id: int) -> None:
        cache_set = self._sets[line % self._num_sets]
        if len(cache_set) >= self._assoc:
            victim, victim_dirty = next(iter(cache_set.items()))
            del cache_set[victim]
            if victim_dirty:
                self._writebacks.value += 1
                # Fire-and-forget write-back; no one waits on it.
                self.lower.access(
                    victim * self._line_bytes, True, _noop, tenant_id
                )
        cache_set[line] = dirty

    def _drain_overflow(self) -> None:
        while self._overflow and len(self._mshrs) < self._mshr_entries:
            addr, is_write, on_done, tenant_id = self._overflow.popleft()
            self.access(addr, is_write, on_done, tenant_id)
            # access() may have consumed the freed MSHR (or hit); loop
            # re-checks capacity before replaying the next one.

    # ------------------------------------------------------------------
    # Introspection (tests, metrics)
    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        line = self.line_of(addr)
        return line in self._sets[self._set_index(line)]

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def outstanding_misses(self) -> int:
        return len(self._mshrs)


def _noop() -> None:
    """Completion sink for fire-and-forget write-backs."""
