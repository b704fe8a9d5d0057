"""Per-layer metrics of a traced run.

:class:`Instrumentation` wraps the program's public calls with spans
(see ``README.md`` for the list and the layer each one belongs to),
attaches an :class:`~repro.engine.profile.EngineProfiler` to every
simulation, and keeps the counts the program already returns
(``RunResult.stats``, ``RunResult.events_fired``,
``Gpu.fastpath_stats()``).  :meth:`Instrumentation.metrics` turns all of
it into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import re
from collections import Counter
from typing import Dict, List, Optional

from repro.engine.profile import EngineProfiler
from repro.harness import campaign, experiments, parallel, reporting
from repro.harness.campaign import CampaignManifest
from repro.harness.result_cache import ResultCache
from repro.serve import server
from repro.serve.admission import AdmissionQueue
from repro.serve.estimator import ServeIndex
from repro.serve.server import ReproServer
from repro.tenancy.manager import MultiTenantManager
from repro.workloads.base import TraceMemo, Workload

from stats import median
from spans import Tracer, has_ancestor, self_times

#: ``RunResult.stats`` keys summed into the modelled-work counters.
STAT_PATTERNS = {
    "vm.l2tlb_misses": re.compile(r"gpu\.l2tlb_misses\.tenant\d+"),
    "vm.walks": re.compile(r"pws\.(t\d+\.)?walks\.tenant\d+"),
    "vm.pwc_hits": re.compile(r"pws\.(t\d+\.)?pwc\.hits"),
    "core.stolen_walks": re.compile(r"pws\.(t\d+\.)?stolen\.tenant\d+"),
    "mem.dram_accesses": re.compile(r"dram\.accesses"),
}
INSTRUCTIONS = re.compile(r"gpu\.instructions\.tenant\d+")

#: EngineProfiler callsites are ``repro.<package>.…``; deliveries are
#: grouped by package.
DELIVERY_GROUPS = ("gpu", "vm", "mem", "core", "engine")

FOLD_COUNTERS = ("folded_accesses", "unfolded_accesses",
                 "folded_l2_tlb_hits", "folded_walks",
                 "batched_dram_fetches")

#: span name -> layer metric its self time is charged to
SELF_TIME_LAYER = {
    "engine.run": "engine.run_s",
    "tenancy.construct": "tenancy.construct_s",
    "workloads.trace_memo": "workloads.trace_gen_s",
    "workloads.build_streams": "workloads.trace_gen_s",
    "validate.check": "validate.check_s",
    "result_cache.get": "result_cache.get_s",
    "result_cache.put": "result_cache.put_s",
    "result_cache.flush_usage": "result_cache.sidecar_s",
    "result_cache.flush_costs": "result_cache.sidecar_s",
    "campaign.plan": "campaign.plan_s",
    "campaign.checkpoint": "campaign.checkpoint_s",
    "parallel.run_jobs": "parallel.dispatch_s",
    "reporting.format_table": "reporting.render_s",
    "serve.query": "serve.query_s",
    "serve.index_record": "serve.index_s",
    "serve.index_estimate": "serve.index_s",
    "serve.admission_submit": "serve.admission_s",
    "serve.admission_take": "serve.admission_s",
    "bench.request": "serve.http_s",
}

#: spans whose inclusive time is a job executing inside ``run_jobs``
JOB_SPANS = ("tenancy.construct", "engine.run", "validate.check")

SERVE_P50 = ("serve.http_ms_p50", "serve.exact_ms_p50",
             "serve.index_record_ms_p50", "serve.simulated_ms_p50",
             "serve.queue_wait_ms_p50")


class Instrumentation:
    """Spans and counters for one traced run (one process)."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.deliveries: Counter = Counter()
        self.fastpath: Counter = Counter()
        self.counts: Counter = Counter()
        self.bytes_written = 0
        self._sidecar_inodes: Dict[str, int] = {}
        self._submitted: Dict[int, float] = {}
        self.queue_waits: List[float] = []

    # ------------------------------------------------------------------
    def install(self) -> None:
        t = self.tracer
        t.wrap(campaign, "plan_campaign", "campaign.plan")
        for figure in experiments.ALL_EXPERIMENTS:
            t.wrap(experiments.ALL_EXPERIMENTS, figure, "experiment")
        t.wrap(CampaignManifest, "save", "campaign.checkpoint")
        t.wrap(campaign, "run_jobs", "parallel.run_jobs")
        t.wrap(server, "run_jobs", "parallel.run_jobs")
        t.wrap(MultiTenantManager, "__init__", "tenancy.construct")
        t.patch(MultiTenantManager, "run",
                self._profiled_run(MultiTenantManager.run))
        t.wrap(TraceMemo, "build_streams", "workloads.trace_memo")
        t.wrap(Workload, "build_streams", "workloads.build_streams")
        t.wrap(parallel, "validate_result", "validate.check")
        t.wrap(ResultCache, "get", "result_cache.get", self._after_get)
        t.wrap(ResultCache, "put", "result_cache.put", self._after_put)
        t.wrap(ResultCache, "flush_usage", "result_cache.flush_usage",
               self._after_flush(ResultCache.USAGE_FILE))
        t.wrap(ResultCache, "flush_costs", "result_cache.flush_costs",
               self._after_flush(ResultCache.COSTS_FILE))
        t.wrap(reporting, "format_table", "reporting.format_table")
        t.wrap(ReproServer, "query", "serve.query", self._after_query)
        t.wrap(ServeIndex, "record", "serve.index_record")
        t.wrap(ServeIndex, "estimate", "serve.index_estimate")
        t.wrap(AdmissionQueue, "submit", "serve.admission_submit",
               self._after_submit)
        t.wrap(AdmissionQueue, "take", "serve.admission_take",
               self._after_take)

    def restore(self) -> None:
        self.tracer.restore()

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    def _profiled_run(self, original):
        tracer = self.tracer

        def run(manager):
            profiler = EngineProfiler()
            with tracer.span("engine.run"):
                with profiler.attach(manager.sim):
                    result = original(manager)
            self._note_run(profiler, manager.gpu.fastpath_stats(), result)
            return result
        return run

    def _note_run(self, profiler: EngineProfiler, fastpath: Dict,
                  result) -> None:
        for callsites in (profiler.component_counts,
                          profiler.delivery_counts):
            for key, count in callsites.items():
                parts = key.split(".")
                group = parts[1] if parts[0] == "repro" else "other"
                self.deliveries[group] += count
        for key in FOLD_COUNTERS:
            self.fastpath[key] += fastpath.get(key, 0)
        self.counts["engine.events"] += result.events_fired
        for key, value in result.stats.items():
            if INSTRUCTIONS.fullmatch(key):
                self.counts["instructions"] += value
                continue
            for metric, pattern in STAT_PATTERNS.items():
                if pattern.fullmatch(key):
                    self.counts[metric] += value
                    break

    def _after_get(self, span, args, result) -> None:
        span.attrs["hit"] = result is not None

    def _after_put(self, span, args, result) -> None:
        cache, key = args[0], args[1]
        try:
            self.bytes_written += cache.entry_path(key).stat().st_size
        except OSError:
            pass

    def _after_flush(self, filename: str):
        def after(span, args, result) -> None:
            # Sidecars are replaced atomically, so a rewrite shows up as
            # a new inode.
            path = args[0].root / filename
            try:
                st = os.stat(path)
            except OSError:
                return
            if self._sidecar_inodes.get(str(path)) != st.st_ino:
                self._sidecar_inodes[str(path)] = st.st_ino
                self.bytes_written += st.st_size
        return after

    def _after_query(self, span, args, result) -> None:
        span.attrs["key"] = args[1].key()
        span.attrs["status"] = result.status

    def _after_submit(self, span, args, result) -> None:
        ticket = result[0]
        if ticket is not None:
            self._submitted.setdefault(id(ticket), span.end)

    def _after_take(self, span, args, result) -> None:
        for ticket in result:
            submitted = self._submitted.pop(id(ticket), None)
            if submitted is not None:
                self.queue_waits.append(span.end - submitted)

    # ------------------------------------------------------------------
    def metrics(self, serve: Optional[Dict] = None) -> Dict[str, float]:
        """Every per-layer metric; layers the workload does not reach
        read 0.  ``serve`` carries the client-side figures of a serve
        run (see ``serve_mix.serve_layer_metrics``)."""
        spans = self.tracer.spans
        by_id = {s.sid: s for s in spans}
        own = self_times(spans)
        out: Dict[str, float] = dict.fromkeys(
            list(SELF_TIME_LAYER.values()) + ["campaign.replay_s"], 0.0)
        for s in spans:
            layer = SELF_TIME_LAYER.get(s.name)
            if s.name == "experiment":
                layer = ("campaign.plan_s"
                         if has_ancestor(s, by_id, "campaign.plan")
                         else "campaign.replay_s")
            if layer is not None:
                out[layer] += own[s.sid]

        memo = [s for s in spans if s.name == "workloads.trace_memo"]
        misses = {s.parent for s in spans
                  if s.name == "workloads.build_streams"}
        memo_hits = sum(1 for s in memo if s.sid not in misses)
        gets = [s for s in spans if s.name == "result_cache.get"]
        busy = sum(s.duration for s in spans if s.name in JOB_SPANS
                   and has_ancestor(s, by_id, "parallel.run_jobs"))
        dispatch_wall = sum(s.duration for s in spans
                            if s.name == "parallel.run_jobs")

        fp = self.fastpath
        accesses = fp["folded_accesses"] + fp["unfolded_accesses"]
        run_s = out["engine.run_s"]
        out.update({
            "engine.events": self.counts["engine.events"],
            "engine.kinst_per_s": (self.counts["instructions"] / run_s / 1e3
                                   if run_s else 0.0),
            "gpu.hit_path_fraction": (fp["folded_accesses"] / accesses
                                      if accesses else 0.0),
            "gpu.folded_l2_tlb_hits": fp["folded_l2_tlb_hits"],
            "gpu.folded_walks": fp["folded_walks"],
            "gpu.batched_dram_fetches": fp["batched_dram_fetches"],
            "workloads.memo_hit_ratio": memo_hits / len(memo) if memo
            else 0.0,
            "result_cache.hit_ratio": (sum(1 for s in gets
                                           if s.attrs.get("hit")) / len(gets)
                                       if gets else 0.0),
            "result_cache.bytes_written": self.bytes_written,
            "parallel.busy_s": busy,
            "parallel.utilization": busy / dispatch_wall
            if dispatch_wall else 0.0,
            "serve.queue_wait_ms_p50": (median(self.queue_waits) * 1e3
                                        if self.queue_waits else 0.0),
        })
        for group in DELIVERY_GROUPS:
            out[f"engine.deliveries.{group}"] = self.deliveries[group]
        for metric in STAT_PATTERNS:
            out[metric] = self.counts[metric]
        for metric in SERVE_P50 + ("serve.exact_ratio",
                                   "serve.campaign_exact_ratio"):
            out.setdefault(metric, 0.0)
        if serve:
            out.update(serve)
        return dict(out)

    def coverage(self) -> float:
        """Share of the benchmark's root spans (``bench.*``) spent in
        spans charged to a layer."""
        spans = self.tracer.spans
        own = self_times(spans)
        roots = [s for s in spans if s.parent is None
                 and s.name in ("bench.campaign", "bench.client")]
        wall = sum(s.duration for s in roots)
        unattributed = sum(own[s.sid] for s in roots)
        return 1.0 - unattributed / wall if wall else 0.0
