"""Campaign scheduling: dedup exactness, byte-identical replay, caching."""

import pytest

from repro.harness.campaign import (
    PlanningSession,
    plan_campaign,
    run_campaign,
)
from repro.harness.experiments import ALL_EXPERIMENTS
from repro.harness.reporting import format_table
from repro.harness.runner import Session

SCALE = 0.05
WARPS = 2
FIGURES = ["fig5", "fig6", "fig7"]
PAIRS = ["HS.MM", "FFT.HS"]


def small_session(tmp_path=None):
    return Session(scale=SCALE, warps_per_sm=WARPS, seed=0,
                   cache_dir=None if tmp_path is None else str(tmp_path))


def serial_tables(figures, pairs):
    """The ground truth: one plain serial session, figures in order."""
    session = small_session()
    out = {}
    for figure in figures:
        kwargs = {"pairs": pairs} if pairs else {}
        out[figure] = format_table(ALL_EXPERIMENTS[figure](session, **kwargs))
    return out


class TestPlanning:
    def test_planning_simulates_nothing(self):
        recorder = PlanningSession(small_session())
        ALL_EXPERIMENTS["fig5"](recorder, pairs=PAIRS)
        assert recorder.simulations_executed == 0
        assert recorder.requested > 0
        assert len(recorder.jobs) > 0

    def test_exact_dedup_counts_across_figures(self):
        # Ground truth from per-figure plans: the combined campaign must
        # request the sum and keep exactly the union of unique jobs.
        session = small_session()
        singles = [plan_campaign(session, [f], pairs=PAIRS) for f in FIGURES]
        union = set()
        for single in singles:
            union.update(single.jobs)

        combined = plan_campaign(session, FIGURES, pairs=PAIRS)
        assert combined.requested == sum(s.requested for s in singles)
        assert set(combined.jobs) == union
        assert combined.unique_jobs == len(union)
        assert combined.deduplicated == combined.requested - len(union)
        # Figures 5/6/7 share their Baseline/DWS/DWS++ pair runs, so the
        # overlap is substantial, not incidental.
        assert combined.deduplicated > 0
        assert combined.unique_jobs < sum(s.unique_jobs for s in singles)

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError, match="fig99"):
            plan_campaign(small_session(), ["fig5", "fig99"])

    def test_figure_order_kept_and_repeats_dropped(self):
        plan = plan_campaign(small_session(), ["fig6", "fig5", "fig6"],
                             pairs=PAIRS)
        assert plan.figures == ("fig6", "fig5")

    def test_all_experiments_plan_without_simulating(self):
        # Planning the full paper is cheap: phantoms, no simulation.
        recorder_base = small_session()
        plan = plan_campaign(recorder_base, None, pairs=PAIRS)
        assert plan.figures == tuple(ALL_EXPERIMENTS)
        assert recorder_base.simulations_executed == 0
        assert not any(f.error for f in plan.per_figure), [
            (f.figure, f.error) for f in plan.per_figure if f.error]
        # fig14's ad-hoc variants are outside the plan by design.
        assert plan.unplanned_custom > 0

    def test_summary_mentions_counts(self):
        plan = plan_campaign(small_session(), ["fig5"], pairs=PAIRS)
        text = plan.summary()
        assert str(plan.requested) in text
        assert str(plan.unique_jobs) in text


class TestRunCampaign:
    def test_cold_campaign_matches_serial_byte_for_byte(self):
        expected = serial_tables(FIGURES, PAIRS)
        report = run_campaign(small_session(), FIGURES, pairs=PAIRS,
                              workers=1)
        got = {f: format_table(r) for f, r in report.results.items()}
        assert got == expected
        assert report.simulated == report.plan.unique_jobs
        assert report.cache_hits == 0

    def test_replay_simulates_nothing_extra(self):
        session = small_session()
        report = run_campaign(session, FIGURES, pairs=PAIRS, workers=1)
        # Every simulation happened in the execute phase; the replay of
        # the figures ran entirely from primed memory.
        assert session.simulations_executed == 0
        assert len(report.job_results) == report.plan.unique_jobs
        assert all(r.wall_seconds > 0 for r in report.job_results.values())
        assert report.sim_wall_seconds > 0

    def test_warm_campaign_hits_disk_cache_everywhere(self, tmp_path):
        cold = run_campaign(small_session(tmp_path), ["fig5"], pairs=PAIRS,
                            workers=1)
        assert cold.simulated == cold.plan.unique_jobs

        warm = run_campaign(small_session(tmp_path), ["fig5"], pairs=PAIRS,
                            workers=1)
        assert warm.simulated == 0
        assert warm.cache_hits == warm.plan.unique_jobs
        got = {f: format_table(r) for f, r in warm.results.items()}
        cold_tables = {f: format_table(r) for f, r in cold.results.items()}
        assert got == cold_tables

    def test_campaign_with_custom_runs_matches_serial(self):
        # fig14 issues run_custom calls the planner cannot describe;
        # they must simulate during replay and still match serial.
        expected = serial_tables(["fig14"], None)
        session = small_session()
        report = run_campaign(session, ["fig14"], workers=1)
        assert format_table(report.results["fig14"]) == expected["fig14"]
        assert report.plan.unplanned_custom > 0
        assert session.simulations_executed == report.plan.unplanned_custom

    def test_parallel_campaign_matches_serial(self):
        expected = serial_tables(["fig5"], PAIRS)
        try:
            report = run_campaign(small_session(), ["fig5"], pairs=PAIRS,
                                  workers=2)
        except (OSError, PermissionError):
            pytest.skip("process creation not permitted in this environment")
        assert format_table(report.results["fig5"]) == expected["fig5"]

    def test_summary_reports_execution(self):
        report = run_campaign(small_session(), ["fig5"], pairs=PAIRS,
                              workers=1)
        text = report.summary()
        assert "executed" in text
        assert f"{report.simulated} simulation(s)" in text
