"""Tests for the command-line interface."""

from types import SimpleNamespace

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_requires_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run"])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--benchmark", "CCS"])
        assert args.config == "libra"
        assert args.frames == 8

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "NOPE"])

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--benchmark", "CCS", "--config", "magic"])


class TestCommands:
    @pytest.fixture(autouse=True)
    def private_cache(self, tmp_path, monkeypatch):
        """Commands that simulate read and write the trace cache."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))

    def test_list_prints_suite(self, capsys):
        assert main(["--width", "256", "--height", "128", "list"]) == 0
        out = capsys.readouterr().out
        assert "CCS" in out and "GDL" in out

    def test_run_small(self, capsys):
        code = main(["--width", "256", "--height", "128",
                     "run", "--benchmark", "GDL", "--config", "ptr",
                     "--frames", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GDL on ptr" in out
        assert "raster cyc" in out

    def test_compare_small(self, capsys):
        code = main(["--width", "256", "--height", "128",
                     "compare", "--benchmark", "GDL", "--frames", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "libra" in out
        assert "speedup" in out

    def test_heatmap_small(self, capsys):
        code = main(["--width", "256", "--height", "128",
                     "heatmap", "--benchmark", "CCS"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Per-tile DRAM accesses" in out

    def test_run_prints_the_cycles_of_simulate_point(self, capsys):
        from repro.experiments import SweepPoint, simulate_point
        code = main(["--width", "256", "--height", "128",
                     "run", "--benchmark", "GDL", "--config", "libra",
                     "--frames", "2"])
        assert code == 0
        expected = simulate_point(SweepPoint("GDL", "libra", (), frames=2,
                                             width=256, height=128))
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()
                if line.startswith("libra ")]
        assert rows[0][2] == str(expected.total_cycles)

    def test_heatmap_maps_the_points_last_frame(self, capsys):
        from repro.experiments import SweepPoint, simulate_point
        from repro.stats import render_ascii, tile_matrix
        code = main(["--width", "256", "--height", "128",
                     "heatmap", "--benchmark", "CCS", "--frames", "2"])
        assert code == 0
        expected = simulate_point(SweepPoint("CCS", "baseline", (),
                                             frames=2, width=256,
                                             height=128))
        matrix = tile_matrix(expected.frames[-1].per_tile_dram, 8, 4)
        assert capsys.readouterr().out.endswith(render_ascii(matrix) + "\n")

    def test_heatmap_maps_the_last_requested_frame(self, capsys):
        code = main(["--width", "128", "--height", "64",
                     "heatmap", "--benchmark", "GDL", "--frames", "3"])
        assert code == 0
        assert "GDL frame 2 (" in capsys.readouterr().out

    def test_trace_export(self, capsys, tmp_path):
        out_path = str(tmp_path / "t.jsonl.gz")
        code = main(["--width", "256", "--height", "128",
                     "trace", "--benchmark", "GDL", "--frames", "2",
                     "--out", out_path])
        assert code == 0
        from repro.workloads import load_traces
        assert len(load_traces(out_path)) == 2


class TestRobustness:
    """Error contract: exit 2 + valid names for unknown names; exit 1 +
    one-line diagnostic (no traceback) for ReproErrors."""

    def test_unknown_benchmark_exits_2_with_valid_names(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--benchmark", "NOPE"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "NOPE" in stderr
        assert "CCS" in stderr and "GDL" in stderr  # the valid names

    def test_unknown_config_exits_2_with_valid_names(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["run", "--benchmark", "CCS", "--config", "magic"])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "baseline" in stderr and "libra" in stderr

    def test_suite_unknown_benchmark_exits_2(self, capsys):
        code = main(["suite", "--benchmarks", "CCS,NOPE"])
        assert code == 2
        stderr = capsys.readouterr().err
        assert "NOPE" in stderr and "valid:" in stderr and "CCS" in stderr

    def test_repro_error_prints_one_line_diagnostic(self, capsys,
                                                    monkeypatch):
        from repro import cli
        from repro.errors import SimulationError

        def explode(args):
            raise SimulationError("frame 3 of GDL failed")

        monkeypatch.setattr(cli, "cmd_run", explode)
        code = cli.main(["run", "--benchmark", "GDL"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error: SimulationError: frame 3 of GDL failed" \
            in captured.err
        assert "Traceback" not in captured.err

    def test_bug_exceptions_still_propagate(self, monkeypatch):
        # Only ReproErrors are swallowed into diagnostics; a genuine
        # bug must keep its traceback.
        from repro import cli

        def explode(args):
            raise RuntimeError("actual bug")

        monkeypatch.setattr(cli, "cmd_run", explode)
        with pytest.raises(RuntimeError):
            cli.main(["run", "--benchmark", "GDL"])


class TestSuiteCommand:
    def test_suite_runs_and_reports(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["suite", "--benchmarks", "GDL", "--config", "ptr",
                     "--frames", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 ok (0 resumed), 0 failed, 0 skipped" in out
        assert "GDL/ptr" in out

    def test_suite_failure_sets_exit_code(self, capsys, tmp_path,
                                          monkeypatch):
        from repro.errors import SimulationError
        from repro.experiments import engine

        def explode(point):
            raise SimulationError("injected")

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(engine, "execute_point", explode)
        code = main(["--width", "128", "--height", "64", "suite",
                     "--benchmarks", "GDL", "--frames", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "failed" in out and "injected" in out

    def test_suite_honours_the_geometry(self, capsys, tmp_path,
                                        monkeypatch):
        from repro.experiments import SweepPoint, execute_point
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["--width", "128", "--height", "64", "suite",
                     "--benchmarks", "GDL", "--config", "ptr",
                     "--frames", "1"])
        assert code == 0
        expected = execute_point(SweepPoint("GDL", "ptr", (), frames=1,
                                            width=128, height=64))
        assert f"{expected.total_cycles:,} cycles" \
            in capsys.readouterr().out

    def test_suite_rerun_resumes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["--width", "128", "--height", "64", "suite",
                "--benchmarks", "GDL,tri_overlap", "--config", "ptr",
                "--frames", "1"]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert "2 ok (2 resumed)" in capsys.readouterr().out


class TestSweepExitCode:
    def test_skipped_point_exits_1(self, capsys, monkeypatch):
        """An interrupted sweep has holes: it must not report success."""
        import repro.experiments as experiments
        from repro.experiments import PointOutcome, SweepResult

        def interrupted(spec, **kwargs):
            first, second = spec.expand()
            return SweepResult(spec=spec, store_root="unused", outcomes=[
                PointOutcome(point=first, status="ok",
                             summary=SimpleNamespace(total_cycles=100,
                                                     telemetry_state=None),
                             provenance="completed"),
                PointOutcome(point=second, status="skipped",
                             error="run interrupted",
                             error_type="KeyboardInterrupt",
                             provenance="skipped")])

        monkeypatch.setattr(experiments, "run_sweep", interrupted)
        code = main(["sweep", "--benchmarks", "tri_overlap",
                     "--kinds", "baseline,libra", "--frames", "1"])
        assert code == 1
        assert "[PARTIAL]" in capsys.readouterr().out
