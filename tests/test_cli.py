"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.harness import faults


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "GUPS.MM"])
        assert args.policy == "dws"
        assert args.scale == 0.5

    def test_experiment_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestListCommand:
    def test_lists_benchmarks_and_pairs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for token in ("GUPS", "MM", "HL:", "HH:", "45"):
            assert token in out


class TestCharacterizeCommand:
    def test_single_benchmark(self, capsys):
        rc = main(["characterize", "MM", "--scale", "0.1", "--warps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MM" in out and "MPMI" in out

    def test_unknown_benchmark_errors(self, capsys):
        rc = main(["characterize", "NOPE", "--scale", "0.1"])
        assert rc == 2


class TestRunCommand:
    def test_run_pair_prints_metrics(self, capsys):
        rc = main(["run", "HS.MM", "--scale", "0.1", "--warps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("total IPC", "weighted IPC", "fairness", "tenant 0",
                      "tenant 1"):
            assert token in out


class TestCompareCommand:
    def test_compare_prints_all_policies(self, capsys):
        rc = main(["compare", "HS.MM", "--scale", "0.1", "--warps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        for policy in ("baseline", "static", "dws", "dwspp"):
            assert policy in out


class TestExperimentCommand:
    def test_experiment_with_pair_subset(self, capsys):
        rc = main(["experiment", "fig5", "--pairs", "HS.MM",
                   "--scale", "0.1", "--warps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "HS.MM" in out


class TestCampaignCommand:
    SMALL = ["campaign", "--figures", "fig5", "--pairs", "HS.MM",
             "--scale", "0.05", "--warps", "2", "--workers", "1"]

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        faults.clear_faults()
        yield
        faults.clear_faults()

    def test_supervision_flags_parse(self):
        args = build_parser().parse_args(
            self.SMALL + ["--max-attempts", "5", "--deadline", "30",
                          "--supervision-report", "out.json"])
        assert args.max_attempts == 5
        assert args.deadline == 30.0
        assert args.supervision_report == "out.json"

    def test_clean_campaign_exits_zero(self, capsys):
        assert main(self.SMALL) == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "executed:" in out

    def test_transient_faults_still_exit_zero(self, capsys):
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label="*", fail_attempts=1)])
        assert main(self.SMALL) == 0

    def test_quarantine_exits_one_with_summary_not_traceback(self, capsys):
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label="*", fail_attempts=99)])
        rc = main(self.SMALL + ["--max-attempts", "2"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "Traceback" not in err

    def test_supervision_report_written(self, tmp_path, capsys):
        target = tmp_path / "supervision.json"
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label="*", fail_attempts=1)])
        rc = main(self.SMALL + ["--supervision-report", str(target)])
        assert rc == 0
        parsed = json.loads(target.read_text())
        assert parsed["retries"] >= 1
        assert parsed["quarantined"] == {}

    def test_wall_summary_flags_retries(self, capsys):
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label="*", fail_attempts=1)])
        assert main(self.SMALL + ["--wall-summary"]) == 0
        out = capsys.readouterr().out
        assert "retried attempt(s)" in out
        assert "supervision:" in out

    def test_governance_flags_parse(self):
        args = build_parser().parse_args(
            self.SMALL + ["--max-rss-mb", "512",
                          "--cache-max-bytes", "1048576"])
        assert args.max_rss_mb == 512.0
        assert args.cache_max_bytes == 1048576

    def test_rss_budget_breach_exits_one_with_quarantine(self, tmp_path,
                                                         capsys):
        faults.install_faults(
            [faults.FaultSpec(kind=faults.KIND_RSS_SPIKE, rss_mb=99999.0)])
        target = tmp_path / "governance.json"
        rc = main(self.SMALL + ["--max-rss-mb", "512",
                                "--forensics-dir", str(tmp_path / "bundles"),
                                "--supervision-report", str(target)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "Traceback" not in err
        parsed = json.loads(target.read_text())
        assert parsed["failures"].get("resource", 0) >= 1
        assert parsed["retries"] == 0  # deterministic failure: no retry
        assert parsed["quarantined"]
        for message in parsed["quarantined"].values():
            assert "ResourceBudgetExceeded" in message
        # Satellite: forensics bundle paths ride along in the report.
        assert parsed["forensics"]
        for bundle in parsed["forensics"].values():
            assert bundle.endswith(".json")

    def test_generous_rss_budget_is_invisible(self, capsys):
        assert main(self.SMALL + ["--max-rss-mb", "1000000"]) == 0

    def test_supervision_report_json_to_stdout(self, capsys):
        # The literal value 'json' prints the machine-readable report to
        # stdout — the same schema the file mode writes and the serve
        # layer's /healthz embeds.
        faults.install_faults(
            [faults.FaultSpec(kind="raise", label="*", fail_attempts=1)])
        assert main(self.SMALL + ["--supervision-report", "json"]) == 0
        out = capsys.readouterr().out
        start = out.index("{")
        parsed = json.loads(out[start:out.rindex("}") + 1])
        assert parsed["retries"] >= 1
        assert set(parsed) >= {"retries", "requeues", "quarantined",
                               "failures", "attempts", "forensics"}


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--cache-dir", "/tmp/c"])
        assert args.host == "127.0.0.1"
        assert args.port == 8642
        assert "workers" not in vars(args)  # one job at a time, in-process
        assert args.max_queue_depth == 8
        assert args.deadline == 30.0

    def test_cache_dir_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_cache_quota_flag_parses(self):
        args = build_parser().parse_args(
            ["serve", "--cache-dir", "/tmp/c",
             "--cache-max-bytes", "2097152"])
        assert args.cache_max_bytes == 2097152


class TestCacheCommand:
    def test_gc_dry_run_then_real(self, tmp_path, capsys):
        from repro.harness.faults import corrupt_cache_entry
        from repro.harness.result_cache import ResultCache

        cache = ResultCache(tmp_path)
        good, bad = "aa" + "0" * 62, "bb" + "1" * 62
        cache.put(good, {"keep": True})
        cache.put(bad, {"doomed": True})
        corrupt_cache_entry(cache, bad, mode="bitflip")
        assert cache.get(bad) is None  # quarantined on read

        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "would remove 1" in out
        assert cache.quarantined_entries() == 1  # dry run touched nothing

        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out and "kept 1" in out
        assert cache.quarantined_entries() == 0
        assert cache.get(good) is not None

    def test_gc_quota_dry_run_matches_real_reclaim(self, tmp_path, capsys):
        from repro.harness.result_cache import ResultCache

        cache = ResultCache(tmp_path)
        keys = ["aa" + "0" * 62, "bb" + "1" * 62, "cc" + "2" * 62]
        for key in keys:
            cache.put(key, {"v": "x" * 64})
        size = cache.entry_path(keys[0]).stat().st_size
        quota = 2 * size

        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", str(quota), "--dry-run"]) == 0
        dry_out = capsys.readouterr().out
        assert "would remove" in dry_out
        assert "evicted over quota" in dry_out
        assert f"[{size} B]" in dry_out
        assert len(cache) == 3  # dry run touched nothing

        assert main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", str(quota)]) == 0
        real_out = capsys.readouterr().out
        # Acceptance criterion: the dry run's byte totals match what the
        # real sweep actually reclaimed.
        assert f"1 evicted over quota [{size} B]" in dry_out
        assert f"1 evicted over quota [{size} B]" in real_out
        assert len(cache) == 2


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        rc = main(["report", "--experiments", "fig5", "--pairs", "HS.MM",
                   "--scale", "0.1", "--warps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "## fig5" in out and "| pair |" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        rc = main(["report", "--experiments", "fig5", "--pairs", "HS.MM",
                   "--scale", "0.1", "--warps", "2",
                   "--output", str(target)])
        assert rc == 0
        assert "## fig5" in target.read_text()
        assert "wrote" in capsys.readouterr().out
