"""The ``python -m repro.bench`` CLI: argparse behaviour and caching."""

import json

import pytest

from repro.bench.__main__ import build_arg_parser, main
from repro.bench.jobs import EXPERIMENTS


class TestArgParsing:
    def test_unknown_flag_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--frobnicate"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_experiment_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--only", "fig9"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--jobs", "0"])
        assert exc.value.code == 2

    def test_defaults(self):
        args = build_arg_parser().parse_args([])
        assert args.jobs >= 1
        assert not args.quick and not args.no_cache

    def test_list_prints_stage_ids(self, capsys):
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.splitlines() == list(EXPERIMENTS)


class TestMainRuns:
    def test_table1_reports_and_exits_zero(self, capsys, tmp_path):
        code = main(["--only", "table1", "--jobs", "1",
                     "--cache-dir", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "== table1: NVMe Streamer FPGA utilization ==" in out
        assert out.endswith("ALL PAPER BANDS HIT\n")

    def test_cached_rerun_is_byte_identical_and_skips_work(
            self, capsys, tmp_path):
        argv = ["--only", "table1", "--jobs", "1",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "0 cache hit(s)" in first.err
        assert "0 job(s) simulated" in second.err
        assert "3 cache hit(s)" in second.err
        # stage seconds cover simulated jobs only, and never reach stdout
        assert "stage Table 1:" in first.err and "serial total:" in first.err
        assert "stage " not in second.err and "serial total" not in first.out

    def test_stage_seconds_follow_the_job_lines(self, capsys):
        assert main(["--quick", "--only", "table1", "--only", "fig4c",
                     "--jobs", "1", "--no-cache"]) == 0
        err = capsys.readouterr().err.splitlines()
        stages = [line for line in err if line.startswith("  stage ")]
        assert [line.split(":")[0] for line in stages] == [
            "  stage Table 1", "  stage Fig 4c"]
        assert err.index(stages[0]) > max(
            i for i, line in enumerate(err) if "ran in" in line)
        seconds = [float(line.split()[-1].rstrip("s")) for line in stages]
        total = next(line for line in err if "serial total:" in line)
        assert float(total.split()[-1].rstrip("s")) == pytest.approx(
            sum(seconds), abs=0.11)

    def test_no_cache_leaves_no_cache_dir(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(["--only", "table1", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()

    def test_clear_cache_drops_stale_entries(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        argv = ["--only", "table1", "--jobs", "1",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--clear-cache"]) == 0
        err = capsys.readouterr().err
        assert "cleared cache" in err
        assert "3 miss(es)" in err

    def test_json_output(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        assert main(["--only", "table1", "--no-cache",
                     "--json", str(path)]) == 0
        doc = json.loads(path.read_text())
        assert doc["ok"] is True
        assert doc["results"][0]["experiment"] == "table1"
        assert doc["results"][0]["rows"], "rows must be populated"


class TestCoarseningFlag:
    def test_invalid_coarsening_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--coarsening", "warp"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_default_is_train(self):
        args = build_arg_parser().parse_args([])
        assert args.coarsening == "train"
        assert not args.profile and args.profile_out is None

    def test_modes_share_non_fleet_cache_keys(self, capsys, tmp_path):
        # both modes over one cache: the second run may only re-simulate
        # the MAC jobs (coarsening is part of the case-study, A7 and fleet
        # cache keys only)
        cache = str(tmp_path / "cache")
        argv = ["--quick", "--only", "table1", "--jobs", "1",
                "--cache-dir", cache]
        assert main(argv + ["--coarsening", "train"]) == 0
        first = capsys.readouterr()
        assert main(argv + ["--coarsening", "per_frame"]) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        assert "3 cache hit(s)" in second.err


class TestProfileFlag:
    def test_profile_prints_cumulative_stats(self, capsys, tmp_path):
        code = main(["--only", "table1", "--profile",
                     "--cache-dir", str(tmp_path / "cache")])
        captured = capsys.readouterr()
        assert code == 0
        assert "cumulative" in captured.err
        assert "ALL PAPER BANDS HIT" in captured.out

    def test_profile_out_writes_stats_file(self, capsys, tmp_path):
        out = tmp_path / "bench.prof"
        code = main(["--only", "table1", "--profile-out", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
        capsys.readouterr()
        assert code == 0
        import pstats
        stats = pstats.Stats(str(out))
        assert stats.total_calls > 0

    def test_profile_forces_serial_jobs(self, capsys, tmp_path):
        code = main(["--only", "table1", "--profile", "--jobs", "4",
                     "--cache-dir", str(tmp_path / "cache")])
        captured = capsys.readouterr()
        assert code == 0
        assert "forcing --jobs 1" in captured.err
        assert "--jobs 1" in captured.err.splitlines()[-1]
