"""The experiment harness: one entry point per paper table and figure.

Typical use::

    from repro.harness import Session, experiments, reporting

    session = Session(scale=1.0, warps_per_sm=4)
    result = experiments.fig5_throughput(session)
    print(reporting.format_table(result))

The :class:`~repro.harness.runner.Session` caches every (pair, config)
simulation and every stand-alone run, so experiments that share
configurations (e.g. Figures 5, 6 and 7 all need Baseline/DWS/DWS++
runs) reuse each other's work.
"""

from repro.harness.campaign import (
    CampaignManifest,
    CampaignPlan,
    CampaignReport,
    PlanningSession,
    campaign_key,
    plan_campaign,
    run_campaign,
)
from repro.harness.faults import FaultSpec, clear_faults, install_faults
from repro.harness.fsutil import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.harness.parallel import (
    Job,
    WorkerPool,
    pair_jobs,
    run_jobs,
)
from repro.harness.supervision import (
    RetryPolicy,
    SupervisionPolicy,
    SupervisionStats,
)
from repro.harness.report import generate_report
from repro.harness.resources import (
    HostPressureMonitor,
    PressurePolicy,
    ResourceBudgetExceeded,
    RssSampler,
)
from repro.harness.result_cache import (
    CACHE_FORMAT,
    ResultCache,
    cost_key,
    job_key,
)
from repro.harness.results_io import export_results, load_results
from repro.harness.reporting import (
    ExperimentResult,
    format_bars,
    format_table,
    format_wall_summary,
    geomean,
)
from repro.harness.runner import Session, StandaloneMeasurement
from repro.harness.seeds import compare_policies, seed_study
from repro.harness.sweep import Sweep, axis
from repro.harness.validate import validate_result

__all__ = [
    "CACHE_FORMAT",
    "CampaignManifest",
    "CampaignPlan",
    "CampaignReport",
    "ExperimentResult",
    "FaultSpec",
    "HostPressureMonitor",
    "Job",
    "PlanningSession",
    "PressurePolicy",
    "ResourceBudgetExceeded",
    "ResultCache",
    "RetryPolicy",
    "RssSampler",
    "Session",
    "StandaloneMeasurement",
    "SupervisionPolicy",
    "SupervisionStats",
    "Sweep",
    "WorkerPool",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "axis",
    "campaign_key",
    "clear_faults",
    "compare_policies",
    "cost_key",
    "export_results",
    "format_bars",
    "format_table",
    "format_wall_summary",
    "generate_report",
    "geomean",
    "install_faults",
    "job_key",
    "load_results",
    "pair_jobs",
    "plan_campaign",
    "run_campaign",
    "run_jobs",
    "seed_study",
    "validate_result",
]
