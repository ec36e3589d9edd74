"""Tests for the repro-experiments CLI."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.length == 500
        assert args.scenario == "paper-eval"


class TestCommands:
    def test_fig1(self, capsys):
        assert main(["fig1"]) == 0
        out = capsys.readouterr().out
        assert "JPEG" in out and "Fig. 1(b)" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "LRU" in out and "22" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "Skip Events" in capsys.readouterr().out

    def test_fig7(self, capsys):
        assert main(["fig7"]) == 0
        assert "mobilities" in capsys.readouterr().out

    def test_fig9a_small(self, capsys):
        assert main(["fig9a", "--length", "15", "--rus", "4", "5"]) == 0
        out = capsys.readouterr().out
        assert "Local LFD (4)" in out and "Avg." in out

    def test_fig9b_small(self, capsys):
        assert main(["fig9b", "--length", "15", "--rus", "4"]) == 0
        assert "Skip" in capsys.readouterr().out

    def test_fig9c_small(self, capsys):
        assert main(["fig9c", "--length", "15", "--rus", "4"]) == 0
        assert "overhead" in capsys.readouterr().out

    def test_scenario_option(self, capsys):
        assert main(["fig9a", "--length", "12", "--rus", "4", "--scenario", "bursty"]) == 0
        assert "LFD" in capsys.readouterr().out

    def test_seed_option(self, capsys):
        assert main(["fig9a", "--length", "12", "--rus", "4", "--seed", "99"]) == 0
        capsys.readouterr()

    def test_hybrid(self, capsys):
        assert main(["hybrid"]) == 0
        assert "speed-up" in capsys.readouterr().out

    def test_export_csv(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(
            ["fig9a", "--length", "10", "--rus", "4", "--export-csv", str(path)]
        ) == 0
        capsys.readouterr()
        text = path.read_text()
        assert text.startswith("policy_label,")
        from repro.experiments.export import sweep_from_csv

        records = sweep_from_csv(text)
        assert {r.policy_label for r in records} >= {"LRU", "LFD"}

    def test_sensitivity_command(self, capsys):
        assert main(
            ["sensitivity", "--length", "15", "--seeds", "1", "2", "--rus", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Seed sensitivity" in out and "beats LFD" in out

    def test_all_command_smoke(self, capsys):
        # Regression: a local `report = run_sensitivity(...)` used to shadow
        # the experiments.report module and crash `all` with UnboundLocalError.
        assert main(
            ["all", "--length", "10", "--rus", "4", "--no-timing", "--no-ablation"]
        ) == 0
        out = capsys.readouterr().out
        assert "MAIN EVALUATION" in out and "Fig. 9a" in out

    def test_fig9a_with_jobs(self, capsys):
        assert main(
            ["fig9a", "--length", "12", "--rus", "4", "5", "--jobs", "2"]
        ) == 0
        assert "Avg." in capsys.readouterr().out

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("paper-eval", "quick", "bursty", "round-robin"):
            assert name in out
        assert "description" in out

    def test_sweep_command(self, capsys):
        assert main(
            ["sweep", "--scenario", "quick", "--length", "15", "--rus", "4", "5"]
        ) == 0
        out = capsys.readouterr().out
        assert "Local LFD (4)" in out and "design-time cache" in out

    def test_sweep_command_parallel_panel(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(
            [
                "sweep",
                "--panel", "fig9b",
                "--scenario", "quick",
                "--length", "15",
                "--rus", "4",
                "--jobs", "2",
                "--export-csv", str(path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "skip events" in out
        assert path.read_text().startswith("policy_label,")

    def test_sweep_matches_fig9a_command(self, capsys):
        """The sweep subcommand reproduces the fig9a artifact numbers."""
        assert main(["fig9a", "--length", "15", "--rus", "4"]) == 0
        fig9a_out = capsys.readouterr().out
        assert main(
            ["sweep", "--panel", "fig9a", "--length", "15", "--rus", "4"]
        ) == 0
        sweep_out = capsys.readouterr().out
        fig9a_rows = [l for l in fig9a_out.splitlines() if l.startswith("| L")]
        sweep_rows = [l for l in sweep_out.splitlines() if l.startswith("| L")]
        assert fig9a_rows == sweep_rows


class TestProfileFlag:
    def test_run_with_profile_prints_top_functions(self, capsys):
        assert main(
            ["run", "--scenario", "quick", "--length", "10", "--profile"]
        ) == 0
        out = capsys.readouterr().out
        assert "top 25 functions by cumulative time" in out
        assert "cumulative" in out  # pstats header

    def test_run_with_profile_dumps_stats_file(self, capsys, tmp_path):
        import pstats

        path = tmp_path / "run.prof"
        assert main(
            ["run", "--scenario", "quick", "--length", "10",
             "--profile", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert f"profile stats dumped to {path}" in out
        stats = pstats.Stats(str(path))  # parses as valid pstats
        assert stats.total_calls > 0

    def test_profile_rejected_outside_run(self, capsys):
        assert main(["fig2", "--profile"]) == 2
        assert "--profile" in capsys.readouterr().err


class TestTraceOutStdout:
    def test_trace_out_dash_streams_jsonl_to_stdout(self, capsys):
        import json as json_mod

        assert main(
            ["run", "--scenario", "quick", "--length", "10", "--trace-out", "-"]
        ) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l]
        assert json_mod.loads(lines[0])["event"] == "RunStart"
        assert json_mod.loads(lines[-1])["event"] == "RunEnd"
        # The human-readable summary moved to stderr to keep stdout pure.
        assert "makespan_us" in captured.err
        assert "streamed to stdout" in captured.err


class TestCacheJson:
    def test_cache_stats_json(self, capsys, tmp_path):
        import json as json_mod

        assert main(["cache", "stats", "--json", "--store", str(tmp_path)]) == 0
        info = json_mod.loads(capsys.readouterr().out)
        assert info["root"] == str(tmp_path)
        assert info["total_entries"] == 0
        assert set(info["entries"]) >= {"compiled", "ideal", "mobility"}

    def test_cache_stats_json_counts_entries(self, capsys, tmp_path):
        import json as json_mod

        assert main(
            ["cache", "warm", "--scenario", "quick", "--length", "10",
             "--rus", "4", "--store", str(tmp_path)]
        ) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--json", "--store", str(tmp_path)]) == 0
        info = json_mod.loads(capsys.readouterr().out)
        assert info["total_entries"] > 0


class TestServiceCommands:
    @pytest.fixture(scope="class")
    def daemon(self):
        from repro.server import ServerThread

        with ServerThread(workers=2, quota_rate=0) as srv:
            yield srv

    def _argv(self, daemon, *rest):
        return [*rest, "--host", daemon.host, "--port", str(daemon.port)]

    def test_submit_run_and_jobs_listing(self, capsys, daemon):
        argv = self._argv(
            daemon, "submit", "--scenario", "quick", "--length", "20",
            "--policy", "local-lfd", "--window", "2",
        )
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "submitted j" in captured.err
        assert "Local LFD (2)" in captured.out
        assert "makespan_us" in captured.out

        assert main(self._argv(daemon, "jobs")) == 0
        assert "done" in capsys.readouterr().out

    def test_submit_sweep_json(self, capsys, daemon):
        import json as json_mod

        argv = self._argv(
            daemon, "submit", "--sweep", "--scenario", "quick", "--length",
            "20", "--policies", "local-lfd", "lru", "--rus", "4", "6",
            "--json",
        )
        assert main(argv) == 0
        result = json_mod.loads(capsys.readouterr().out)
        assert result["kind"] == "sweep"
        assert len(result["records"]) == 4

    def test_submit_stream_writes_jsonl_to_stdout(self, capsys, daemon):
        import json as json_mod

        argv = self._argv(
            daemon, "submit", "--scenario", "quick", "--length", "20",
            "--stream",
        )
        assert main(argv) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l]
        assert json_mod.loads(lines[0])["event"] == "RunStart"
        assert json_mod.loads(lines[-1])["event"] == "RunEnd"

    def test_submit_no_wait_then_inspect_and_cancel(self, capsys, daemon):
        argv = self._argv(
            daemon, "submit", "--scenario", "quick", "--length", "20",
            "--no-wait",
        )
        assert main(argv) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("j")

        assert main(self._argv(daemon, "jobs", job_id)) == 0
        assert job_id in capsys.readouterr().out

        assert main(self._argv(daemon, "jobs", job_id, "--cancel")) == 0
        assert "cancel_requested" in capsys.readouterr().out

    def test_jobs_unknown_id_fails(self, capsys, daemon):
        assert main(self._argv(daemon, "jobs", "j-unknown")) == 1
        assert "404" in capsys.readouterr().err

    def test_service_flags_rejected_elsewhere(self, capsys):
        assert main(["fig2", "--workers", "3"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["run", "--stream"]) == 2
        assert "--stream" in capsys.readouterr().err
        assert main(["fig2", "--json"]) == 2
        assert "--json" in capsys.readouterr().err


class TestErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["run", "--scenario", "quick", "--length", "-5"], "length must be >= 1"),
            (["sweep", "--jobs", "0"], "must be >= 1, got 0"),
        ],
        ids=["run-negative-length", "sweep-zero-jobs"],
    )
    def test_repro_errors_print_one_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
