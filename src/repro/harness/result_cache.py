"""Content-addressed on-disk cache for simulation results.

A full figure regeneration is dominated by re-simulating pairs that
nothing changed: the simulator is deterministic, so a
:class:`~repro.harness.parallel.Job` (workload names + config + scale +
warps + seed) fully determines its
:class:`~repro.tenancy.manager.RunResult`.  The cache exploits that by
addressing results with a stable content hash of the job description —
re-running any ``bench_fig*.py`` against a warm cache simulates nothing.

Key scheme
----------

:func:`job_key` hashes the canonical JSON of::

    {format: CACHE_FORMAT, names, config: dataclasses.asdict(config),
     scale, warps_per_sm, seed}

with sorted keys, so the key is insensitive to field ordering but
sensitive to *every* config field — flipping one latency or policy knob
produces a different key (an automatic invalidation; no manual cache
busting).

The job's execution limits stay out of the key.  ``max_rss_mb`` only
decides whether a run may finish; so does ``max_events``, because a
simulation that exhausts its event budget raises
:class:`~repro.engine.simulator.EventBudgetExceeded` instead of
returning a truncated result.  The budget therefore decides whether a
result exists, never what it is, and one rule in
:meth:`ResultCache.get` keeps the cache honest about it: a stored
result answers a job only if its ``events_fired`` is at most the job's
``max_events``.  A result that does not fit counts as a miss, so the
job runs — and raises — exactly as it would uncached.  A campaign
(200 M events) and ``repro serve`` (50 M) share every entry this way.

Format history
--------------

``CACHE_FORMAT`` is bumped whenever the simulator's observable
behaviour or the key scheme changes, orphaning every stale entry at
once.  Format 2 added ``max_events`` to the key and the
``wall_seconds`` field to stored results.  Format 3 added the
``*.lookups`` TLB counters and the per-tenant ``*.inflight_at_stop``
snapshot keys that the result validator's conservation identities rely
on.  Format 4 added the hoisted per-SM ``l1tlb.smN.mshr_stalls``
counters.  Format 5 took ``max_events`` back out of the key (see
above).

Storage is one checksummed entry per result under
``<root>/<key[:2]>/<key>.pkl``, written atomically (temp file +
``os.replace``) so a crashed or concurrent writer can never publish a
torn payload.  Each entry is an envelope::

    MAGIC (11 bytes) | format version (4 bytes BE) | sha256(payload)
    (32 bytes) | pickled payload

Loads verify the magic, the format version and the payload digest
before unpickling; anything that fails — truncation, a flipped bit, a
stale format, an unpicklable body — is *quarantined* (moved to
``<root>/quarantine/<key>.bad`` for post-mortem inspection, counted in
``corrupt``) and treated as a miss, so corruption always recomputes and
never crashes or poisons a campaign.  Every filesystem failure degrades
to "no cache", never to a wrong result.

Cost model
----------

Alongside the results, the cache keeps ``costs.json``: an exponential
moving average of per-job wall seconds keyed by :func:`cost_key` — a
*coarser* key than :func:`job_key` (workload names + scale + warps, no
config), so a config variant that was never run still inherits the
expected cost of its siblings over the same pair.  The campaign
scheduler sorts pending jobs longest-expected-first with it; on a cold
cache it degrades to a footprint heuristic (see
:mod:`repro.harness.parallel`).  Cost data is advisory: losing or
corrupting it only costs scheduling quality, never correctness.

Disk governance
---------------

A cache that only ever grows eventually fills the disk — the second
host-level failure mode resource governance exists for.  Passing
``max_bytes`` puts the cache under a byte quota enforced two ways:

* **Evict-before-store** — :meth:`ResultCache.put` measures the encoded
  entry and evicts least-recently-*accessed* entries until it fits,
  then stores.  A simulation's result is never dropped because the
  cache is full (one entry may exceed the quota alone — the floor is
  "the result that was just paid for always lands").
* **gc quota rung** — :meth:`ResultCache.gc` accepts ``max_bytes`` and,
  after the integrity sweep, evicts healthy entries in the same LRU
  order until the survivors fit.  ``dry_run`` walks the identical
  ordering without unlinking, so its byte totals match what a real
  sweep would reclaim.

Recency comes from ``usage.json``, an atomic accounting sidecar mapping
key -> (monotonic access sequence, entry bytes), touched on every hit
and store.  Like the cost model it is advisory: losing it degrades
eviction order (unknown entries evict first, oldest-key tiebreak keeps
the order deterministic), never correctness — an evicted entry is just
a future cache miss that recomputes.  An installed ``disk_full`` fault
(:mod:`repro.harness.faults`) adds phantom bytes to the measured usage,
which is how tests force eviction without writing gigabytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import struct
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.harness import faults
from repro.harness.fsutil import atomic_write_bytes, atomic_write_json

#: Bump to orphan every existing cache entry (simulator behaviour or
#: key scheme change; the module docstring keeps the history).
#: 5: ``max_events`` left the key; :meth:`ResultCache.get` checks it.
CACHE_FORMAT = 5

#: Entry envelope: magic, 4-byte BE format version, sha256(payload), payload.
ENTRY_MAGIC = b"RPROCACHE1\n"
_HEADER_LEN = len(ENTRY_MAGIC) + 4 + 32


class CacheIntegrityError(ValueError):
    """An entry failed its envelope checks (magic/version/checksum)."""


def encode_entry(payload: bytes, fmt: int = CACHE_FORMAT) -> bytes:
    """Wrap a pickled payload in the checksummed envelope."""
    return (ENTRY_MAGIC + struct.pack(">I", fmt)
            + hashlib.sha256(payload).digest() + payload)


def decode_entry(blob: bytes, fmt: int = CACHE_FORMAT) -> bytes:
    """Verify an envelope and return its payload, or raise
    :class:`CacheIntegrityError` naming what failed."""
    if len(blob) < _HEADER_LEN or not blob.startswith(ENTRY_MAGIC):
        raise CacheIntegrityError("bad magic or truncated header")
    (version,) = struct.unpack_from(">I", blob, len(ENTRY_MAGIC))
    if version != fmt:
        raise CacheIntegrityError(
            f"cache format {version} != expected {fmt}")
    digest = blob[len(ENTRY_MAGIC) + 4:_HEADER_LEN]
    payload = blob[_HEADER_LEN:]
    if hashlib.sha256(payload).digest() != digest:
        raise CacheIntegrityError("payload checksum mismatch")
    return payload

#: Weight of the newest observation in the wall-time moving average.
COST_EMA_ALPHA = 0.5


def job_key(job) -> str:
    """Stable content hash addressing ``job``'s simulation result."""
    payload = {
        "format": CACHE_FORMAT,
        "names": list(job.names),
        "config": dataclasses.asdict(job.config),
        "scale": job.scale,
        "warps_per_sm": job.warps_per_sm,
        "seed": job.seed,
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def cost_key(job) -> str:
    """Coarse key grouping jobs with similar expected wall time.

    Wall time is dominated by the event count, which is set by the
    workloads, their scale and the warp count — the config (policy,
    sizing) moves it far less.  Leaving the config out lets one measured
    run of ``GUPS.MM`` predict all of its config variants.
    """
    return f"{'.'.join(job.names)}|s{job.scale}|w{job.warps_per_sm}"


class ResultCache:
    """Pickle-per-entry result store addressed by :func:`job_key`."""

    COSTS_FILE = "costs.json"
    USAGE_FILE = "usage.json"
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root, max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = Path(root)
        #: Byte quota enforced by evict-before-store; ``None`` = no quota.
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: entries that failed integrity checks and were quarantined
        self.corrupt = 0
        #: entries removed by quota eviction (put path + gc quota rung)
        self.evictions = 0
        self.bytes_evicted = 0
        self._costs: Optional[Dict[str, float]] = None  # lazy-loaded
        self._costs_dirty = False
        # usage.json accounting: key -> [access_seq, entry_bytes]
        self._usage: Optional[Dict[str, List[int]]] = None  # lazy-loaded
        self._usage_seq = 0
        self._usage_dirty = False

    def _path(self, key: str) -> Path:
        # Two-level fan-out keeps directories small on big sweeps.
        return self.root / key[:2] / f"{key}.pkl"

    def entry_path(self, key: str) -> Path:
        """Where ``key``'s entry lives on disk (fault injection and the
        gc scanner need the real path; the layout is otherwise private)."""
        return self._path(key)

    def _quarantine_path(self, key: str) -> Path:
        # ``.bad`` keeps quarantined files out of the ``*/*.pkl`` globs
        # that len()/clear() use.
        return self.root / self.QUARANTINE_DIR / f"{key}.bad"

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def _quarantine(self, key: str, path: Path) -> None:
        """Move a failed entry aside for post-mortem; delete as fallback.

        Quarantined entries are preserved (a checksum mismatch on real
        hardware is worth inspecting), but they must leave the live
        namespace either way so the next lookup recomputes.
        """
        self.corrupt += 1
        target = self._quarantine_path(key)
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    def get(self, key: str,
            max_events: Optional[int] = None) -> Optional[object]:
        """The cached result for ``key``, or ``None`` on a miss.

        A present-but-damaged entry (torn write survivor, bit flip,
        stale format, legacy un-checksummed layout) is quarantined and
        reported as a miss — corruption recomputes, never raises.

        Every caller answering a job passes its ``max_events``, and a
        stored result answers the job only if ``events_fired <=
        max_events``.  A run either completes within its budget or
        raises, and the simulator is deterministic, so that result is
        exactly what the job would return; a smaller budget would raise.
        A result the budget does not cover is a miss, left in place for
        the jobs it does answer.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            return None
        try:
            result = pickle.loads(decode_entry(blob))
        except Exception:
            # CacheIntegrityError, truncated pickle, renamed classes, ...
            self._quarantine(key, path)
            self.misses += 1
            return None
        if max_events is not None and result.events_fired > max_events:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)  # refresh recency for LRU eviction
        return result

    def put(self, key: str, result: object) -> None:
        """Store ``result`` under ``key`` (best-effort, atomic).

        Under a quota the write path *evicts before storing*: least-
        recently-accessed entries are removed until the new entry fits,
        so a full cache degrades by forgetting cold results instead of
        failing the write (or the sweep).
        """
        try:
            payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
            blob = encode_entry(payload)
            if self.max_bytes is not None:
                self._make_room(len(blob), protect=key)
            atomic_write_bytes(self._path(key), blob)
        except (OSError, pickle.PicklingError):
            # A read-only or full disk must not fail the sweep.
            return
        self.stores += 1
        self._touch(key, nbytes=len(blob))
        self.flush_usage()

    # ------------------------------------------------------------------
    # Byte quota / LRU-by-access accounting
    # ------------------------------------------------------------------
    def _load_usage(self) -> Dict[str, List[int]]:
        if self._usage is None:
            try:
                with open(self.root / self.USAGE_FILE) as fh:
                    raw = json.load(fh)
                entries = raw.get("entries", {})
                self._usage = {str(k): [int(v[0]), int(v[1])]
                               for k, v in entries.items()}
                self._usage_seq = int(raw.get("seq", 0))
            except (OSError, ValueError, TypeError, KeyError, IndexError):
                # Advisory data: a lost sidecar only degrades eviction
                # order (unknown entries evict first), never correctness.
                self._usage = {}
                self._usage_seq = 0
        return self._usage

    def _touch(self, key: str, nbytes: Optional[int] = None) -> None:
        """Record an access to ``key`` (and its size, when known)."""
        usage = self._load_usage()
        self._usage_seq += 1
        entry = usage.get(key)
        if entry is None:
            usage[key] = [self._usage_seq, nbytes or 0]
        else:
            entry[0] = self._usage_seq
            if nbytes is not None:
                entry[1] = nbytes
        self._usage_dirty = True

    def flush_usage(self) -> None:
        """Persist the access-recency sidecar (best-effort, atomic)."""
        if not self._usage_dirty or self._usage is None:
            return
        try:
            atomic_write_json(
                self.root / self.USAGE_FILE,
                {"seq": self._usage_seq, "entries": self._usage},
                sort_keys=True)
        except OSError:
            return  # advisory data; a full disk must not fail the sweep
        self._usage_dirty = False

    def _live_entries(self) -> List[Tuple[str, Path, int]]:
        """``(key, path, bytes)`` for every well-filed live entry.

        Misfiled and quarantined files are the gc sweep's problem, not
        the quota's — governance only ever evicts healthy-looking
        entries from the live namespace.
        """
        out: List[Tuple[str, Path, int]] = []
        if not self.root.exists():
            return out
        for path in self.root.glob("*/*.pkl"):
            if path.parent.name == self.QUARANTINE_DIR:
                continue
            key = path.stem
            if path.parent.name != key[:2]:
                continue
            try:
                size = path.stat().st_size
            except OSError:
                continue
            out.append((key, path, size))
        return out

    def _phantom_bytes(self) -> int:
        """Injected ``disk_full`` fault bytes counted as usage."""
        spec = faults.resource_reading(faults.KIND_DISK_FULL)
        return int(spec.disk_bytes) if spec is not None else 0

    def total_bytes(self) -> int:
        """Live entry bytes on disk plus any injected phantom usage."""
        return (sum(size for _key, _path, size in self._live_entries())
                + self._phantom_bytes())

    def _eviction_order(
            self, entries: List[Tuple[str, Path, int]],
    ) -> List[Tuple[str, Path, int]]:
        """Least-recently-accessed first.

        Entries the sidecar has never seen sort before everything it
        has (sequence 0 = "older than anything recorded"); the key
        tiebreak makes the order — and therefore every eviction test —
        deterministic.
        """
        usage = self._load_usage()
        return sorted(entries,
                      key=lambda e: (usage.get(e[0], (0, 0))[0], e[0]))

    def _evict_entry(self, key: str, path: Path, size: int) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        self.evictions += 1
        self.bytes_evicted += size
        self._load_usage().pop(key, None)
        self._usage_dirty = True
        return True

    def _make_room(self, incoming: int, protect: str) -> None:
        """Evict until ``incoming`` more bytes fit under the quota.

        ``protect`` (the key about to be stored) is excluded from both
        the usage sum and the eviction candidates — an overwrite
        replaces its old copy.  When ``incoming`` alone exceeds the
        quota this evicts everything else and stores anyway: the result
        that was just paid for always lands.
        """
        entries = [e for e in self._live_entries() if e[0] != protect]
        usage = (sum(size for _k, _p, size in entries)
                 + self._phantom_bytes())
        budget = max(0, self.max_bytes - incoming)
        evicted = False
        for key, path, size in self._eviction_order(entries):
            if usage <= budget:
                break
            if self._evict_entry(key, path, size):
                usage -= size
                evicted = True
        if evicted:
            self.flush_usage()

    # ------------------------------------------------------------------
    # Wall-time cost model
    # ------------------------------------------------------------------
    def _load_costs(self) -> Dict[str, float]:
        if self._costs is None:
            try:
                with open(self.root / self.COSTS_FILE) as fh:
                    raw = json.load(fh)
                self._costs = {str(k): float(v) for k, v in raw.items()}
            except (OSError, ValueError, TypeError):
                self._costs = {}
        return self._costs

    def expected_cost(self, ckey: str) -> Optional[float]:
        """EMA wall seconds for a :func:`cost_key`, or ``None`` if unseen."""
        return self._load_costs().get(ckey)

    def record_cost(self, ckey: str, wall_seconds: float) -> None:
        """Fold one observed wall time into the moving average."""
        if wall_seconds <= 0:
            return
        costs = self._load_costs()
        previous = costs.get(ckey)
        if previous is None:
            costs[ckey] = wall_seconds
        else:
            costs[ckey] = (COST_EMA_ALPHA * wall_seconds
                           + (1 - COST_EMA_ALPHA) * previous)
        self._costs_dirty = True

    def flush_costs(self) -> None:
        """Persist the accounting sidecars (best-effort, atomic).

        Flushes both the cost model and the access-recency sidecar —
        callers already invoke this at every natural checkpoint (end of
        a sweep, serve drain), which is exactly when hit-touches need
        persisting too.
        """
        self.flush_usage()
        if not self._costs_dirty or self._costs is None:
            return
        try:
            atomic_write_json(self.root / self.COSTS_FILE, self._costs,
                              sort_keys=True)
        except OSError:
            return  # advisory data; a full disk must not fail the sweep
        self._costs_dirty = False

    # ------------------------------------------------------------------
    # Maintenance / introspection
    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if not self.root.exists():
            return 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def quarantined_entries(self) -> int:
        """How many corrupt entries are parked for post-mortem."""
        qdir = self.root / self.QUARANTINE_DIR
        if not qdir.exists():
            return 0
        return sum(1 for _ in qdir.glob("*.bad"))

    def stats(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "stores": self.stores, "corrupt": self.corrupt,
                "entries": len(self), "bytes": self.total_bytes(),
                "max_bytes": self.max_bytes, "evictions": self.evictions,
                "bytes_evicted": self.bytes_evicted}

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(self, dry_run: bool = False,
           max_bytes: Optional[int] = None) -> "GcReport":
        """Prune quarantined, damaged, orphaned and over-quota entries.

        Quarantine-and-recompute keeps a long-running host correct but
        grows the cache directory without bound: every corrupt entry
        parks a ``.bad`` file forever, stale-format entries from before
        a ``CACHE_FORMAT`` bump linger until their key is next looked
        up, and a crashed writer can leave ``*.tmp`` residue.  ``gc``
        removes all of it in one sweep:

        * quarantined post-mortem files (``quarantine/*.bad``),
        * live entries that fail their envelope checks (bad magic,
          truncation, checksum mismatch) — deleted outright, not
          re-quarantined: gc exists to reclaim space,
        * live entries in a stale ``CACHE_FORMAT`` (orphaned by a bump),
        * orphans: ``*.pkl`` files misfiled outside their fan-out
          directory and abandoned ``*.tmp`` files,
        * with a byte quota (``max_bytes`` here, or the cache's own):
          healthy entries evicted least-recently-accessed-first until
          the survivors fit — the quota rung, running strictly after
          the integrity rungs so reclaimed garbage counts toward the
          quota before any healthy entry is sacrificed,
        * fan-out directories left empty by the above.

        ``dry_run=True`` reports what *would* be removed and touches
        nothing; it walks the identical deterministic eviction order,
        so its byte totals always match what a real sweep reclaims.
        """
        report = GcReport(dry_run=dry_run)
        if not self.root.exists():
            return report

        def remove(path: Path, counter: str) -> None:
            size = 0
            try:
                size = path.stat().st_size
            except OSError:
                pass
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    return  # disappeared underneath us; not removed by gc
            setattr(report, counter, getattr(report, counter) + 1)
            setattr(report, counter + "_bytes",
                    getattr(report, counter + "_bytes") + size)
            report.bytes_freed += size

        qdir = self.root / self.QUARANTINE_DIR
        for path in sorted(qdir.glob("*.bad")) if qdir.exists() else []:
            remove(path, "quarantined")

        healthy: List[Tuple[str, Path, int]] = []
        for path in sorted(self.root.glob("*/*.pkl")):
            if path.parent.name == self.QUARANTINE_DIR:
                continue
            key = path.stem
            if path.parent.name != key[:2]:
                remove(path, "orphaned")
                continue
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            try:
                decode_entry(blob)
            except CacheIntegrityError as exc:
                stale = "cache format" in str(exc)
                remove(path, "stale_format" if stale else "corrupt")
                continue
            report.kept += 1
            report.kept_bytes += len(blob)
            healthy.append((key, path, len(blob)))

        for path in sorted(self.root.glob("*/*.tmp")):
            remove(path, "orphaned")

        effective = self.max_bytes if max_bytes is None else max_bytes
        if effective is not None:
            usage = report.kept_bytes + self._phantom_bytes()
            for key, path, size in self._eviction_order(healthy):
                if usage <= effective:
                    break
                if not dry_run and not self._evict_entry(key, path, size):
                    continue
                report.evicted += 1
                report.evicted_bytes += size
                usage -= size
                report.bytes_freed += size
                report.kept -= 1
                report.kept_bytes -= size

        if not dry_run:
            # Sidecar hygiene: drop accounting for anything no longer
            # live (evicted here, removed here, or deleted externally).
            live = {key for key, _path, _size in self._live_entries()}
            usage_map = self._load_usage()
            for key in [k for k in usage_map if k not in live]:
                del usage_map[key]
                self._usage_dirty = True
            self.flush_usage()
            for child in sorted(self.root.iterdir()):
                if child.is_dir():
                    try:
                        child.rmdir()  # only succeeds when empty
                    except OSError:
                        pass
        return report


@dataclasses.dataclass
class GcReport:
    """What one :meth:`ResultCache.gc` sweep found (and maybe removed).

    Every removal category carries both an entry count and a byte
    total, so an operator (and the quota eviction path that reuses this
    report) can see *where* the space went, not just that it went.
    """

    dry_run: bool = False
    kept: int = 0
    kept_bytes: int = 0
    quarantined: int = 0      # quarantine/*.bad post-mortem files
    quarantined_bytes: int = 0
    corrupt: int = 0          # live entries failing envelope checks
    corrupt_bytes: int = 0
    stale_format: int = 0     # live entries from an older CACHE_FORMAT
    stale_format_bytes: int = 0
    orphaned: int = 0         # misfiled *.pkl and abandoned *.tmp files
    orphaned_bytes: int = 0
    evicted: int = 0          # healthy entries removed by the byte quota
    evicted_bytes: int = 0
    bytes_freed: int = 0

    @property
    def removed(self) -> int:
        return (self.quarantined + self.corrupt + self.stale_format
                + self.orphaned + self.evicted)

    @property
    def bytes_scanned(self) -> int:
        """Total bytes the sweep looked at (survivors + reclaimed)."""
        return self.kept_bytes + self.bytes_freed

    def summary(self) -> str:
        verb = "would remove" if self.dry_run else "removed"
        parts = [f"{self.quarantined} quarantined "
                 f"[{self.quarantined_bytes} B]",
                 f"{self.corrupt} corrupt [{self.corrupt_bytes} B]",
                 f"{self.stale_format} stale-format "
                 f"[{self.stale_format_bytes} B]",
                 f"{self.orphaned} orphaned [{self.orphaned_bytes} B]"]
        if self.evicted:
            parts.append(f"{self.evicted} evicted over quota "
                         f"[{self.evicted_bytes} B]")
        return (f"cache gc: {verb} {self.removed} file(s) "
                f"({', '.join(parts)}), "
                f"{self.bytes_freed} bytes; scanned {self.bytes_scanned} "
                f"bytes; kept {self.kept} healthy "
                f"entr{'y' if self.kept == 1 else 'ies'} "
                f"({self.kept_bytes} bytes)")
