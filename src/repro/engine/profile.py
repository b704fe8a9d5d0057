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
        self.wall_seconds = 0.0
        self.component_counts: Dict[str, int] = {}
        #: Always empty: every delivery is a queue event, counted in
        #: ``component_counts``.  Kept only because
        #: ``perfbench/layers.py`` still reads it.
        self.delivery_counts: Dict[str, int] = {}

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

    def record(self, fn) -> None:
        """Count one fired event with callback ``fn`` (called by the
        simulator's run loop)."""
        self.events += 1
        key = self._key(fn)
        counts = self.component_counts
        counts[key] = counts.get(key, 0) + 1

    @contextmanager
    def attach(self, sim) -> Iterator["EngineProfiler"]:
        """Install on ``sim`` and time everything run while attached."""
        previous = sim.profiler
        sim.profiler = self
        start = perf_counter()
        try:
            yield self
        finally:
            self.wall_seconds += perf_counter() - start
            sim.profiler = previous

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

    def summary(self, top: int = 10) -> Dict:
        """JSON-portable view, as written into ``BENCH_engine.json``."""
        return {
            "events": self.events,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "components": dict(self.top_components(top)),
        }

    def report(self, top: int = 10) -> str:
        """Human-readable top-N table of where the events went."""
        lines = [
            f"{self.events} events in {self.wall_seconds:.3f}s "
            f"({self.events_per_sec:,.0f} events/sec)"
        ]
        for name, count in self.top_components(top):
            share = count / self.events if self.events else 0.0
            lines.append(f"  {count:>10}  {share:6.1%}  {name}")
        return "\n".join(lines)
