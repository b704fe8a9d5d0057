"""Engine throughput instrumentation: events/sec and per-component counts.

The profiler answers two questions about a simulation:

* **How fast is the kernel?** — wall-clock events/sec over the profiled
  span, the headline number tracked by
  ``benchmarks/bench_engine_throughput.py`` in ``BENCH_engine.json``.
* **Where do the events go?** — a per-component breakdown keyed by the
  callback's ``module.qualname``, so a regression in, say, the page-walk
  FSM shows up as an event-count shift at ``repro.vm.walker``.

Attach to a simulator around any ``run`` call::

    from repro.engine.profile import EngineProfiler

    profiler = EngineProfiler()
    with profiler.attach(sim):
        sim.run(max_events=...)
    print(profiler.report())

While attached, the kernel takes its instrumented loop (one extra call
per event); a detached simulator pays nothing.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple


class EngineProfiler:
    """Accumulates event counts and wall time across attached runs."""

    def __init__(self) -> None:
        self.events = 0
        self.batched_deliveries = 0
        self.wall_seconds = 0.0
        self.component_counts: Dict[str, int] = {}
        self.delivery_counts: Dict[str, int] = {}
        #: per-rung fold tallies (``Gpu.fastpath_stats``), recorded by
        #: the harness via :meth:`note_fold_rungs` after a profiled run:
        #: how many completions each fold rung absorbed from the queue.
        self.fold_rungs: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    @staticmethod
    def _key(fn) -> str:
        # Callable instances (e.g. ``_Fill``) have no __qualname__ of
        # their own; key them by type so runs aggregate and the label
        # carries no id() address.
        qualname = getattr(fn, "__qualname__", None)
        if qualname is None:
            fn = type(fn)
            qualname = getattr(fn, "__qualname__", None) or repr(fn)
        return (getattr(fn, "__module__", None) or "?") + "." + qualname

    def record(self, event) -> None:
        """Count one fired event (called by the simulator's run loop)."""
        self.events += 1
        key = self._key(event.fn)
        counts = self.component_counts
        counts[key] = counts.get(key, 0) + 1

    def record_delivery(self, fn) -> None:
        """Count one batched (folded) completion delivery.

        Folded completions never appear as queue events — N of them
        share one carrier event — so without this hook the breakdown
        would show the carrier (``CompletionBatches.fire``) and lose
        the callsites it delivered to.
        """
        self.batched_deliveries += 1
        key = self._key(fn)
        counts = self.delivery_counts
        counts[key] = counts.get(key, 0) + 1

    def note_fold_rungs(self, fastpath: Dict) -> None:
        """Record the per-rung fold breakdown of a profiled run.

        ``fastpath`` is ``Gpu.fastpath_stats()``; the profiler cannot
        reach the GPU from the simulator it attaches to, so the harness
        hands the tallies over after the run.  Keyed by rung (DESIGN.md
        §12 hit fold; §14 walk rungs), values accumulate across runs
        like every other profiler counter.
        """
        rungs = self.fold_rungs
        for key, label in (("folded_accesses", "hit-fold"),
                           ("folded_l2_tlb_hits", "l2-fold"),
                           ("batched_dram_fetches", "dram-batch-fetch"),
                           ("batched_dram_returns", "dram-batch-return")):
            count = fastpath.get(key)
            if count is not None:
                rungs[label] = rungs.get(label, 0) + count

    @contextmanager
    def attach(self, sim) -> Iterator["EngineProfiler"]:
        """Install on ``sim`` and time everything run while attached.

        Also hooks the queue's batched-completion observer (when the
        kernel has one) so folded deliveries are counted per callsite.
        """
        previous = sim.profiler
        sim.profiler = self
        queue = sim.events
        has_observer = hasattr(type(queue), "delivery_observer")
        if has_observer:
            previous_observer = queue.delivery_observer
            queue.delivery_observer = self.record_delivery
        start = perf_counter()
        try:
            yield self
        finally:
            self.wall_seconds += perf_counter() - start
            sim.profiler = previous
            if has_observer:
                queue.delivery_observer = previous_observer

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def events_per_sec(self) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def top_components(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` busiest callbacks, descending by event count."""
        ranked = sorted(self.component_counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:n]

    def breakdown(self, top: int = 10) -> List[Tuple[str, int, str]]:
        """The ``n`` busiest callsites across both delivery kinds.

        Each row is ``(callsite, count, kind)`` with kind ``"event"``
        (one queue entry fired per delivery) or ``"folded"`` (delivered
        from a shared carrier's completion batch).  A callsite reached
        both ways appears twice — the split *is* the information: it
        shows how much of a component's traffic the fold absorbed.
        """
        rows = [(name, count, "event")
                for name, count in self.component_counts.items()]
        rows += [(name, count, "folded")
                 for name, count in self.delivery_counts.items()]
        rows.sort(key=lambda row: (-row[1], row[0], row[2]))
        return rows[:top]

    def summary(self, top: int = 10) -> Dict:
        """JSON-portable view, as written into ``BENCH_engine.json``."""
        summary = {
            "events": self.events,
            "batched_deliveries": self.batched_deliveries,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "components": dict(self.top_components(top)),
            "folded_deliveries": dict(sorted(
                self.delivery_counts.items(),
                key=lambda item: (-item[1], item[0]))[:top]),
        }
        if self.fold_rungs:
            summary["fold_rungs"] = dict(self.fold_rungs)
        return summary

    def report(self, top: int = 10) -> str:
        """Human-readable top-N table of where the deliveries went."""
        total = self.events + self.batched_deliveries
        lines = [
            f"{self.events} events (+{self.batched_deliveries} folded "
            f"deliveries) in {self.wall_seconds:.3f}s "
            f"({self.events_per_sec:,.0f} events/sec)"
        ]
        for name, count, kind in self.breakdown(top):
            share = count / total if total else 0.0
            lines.append(f"  {count:>10}  {share:6.1%}  {kind:<6}  {name}")
        if self.fold_rungs:
            lines.append("fold rungs: " + "  ".join(
                f"{label} {count}" for label, count
                in sorted(self.fold_rungs.items())))
        return "\n".join(lines)
