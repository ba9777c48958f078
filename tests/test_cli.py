"""CLI surface: flag parsing, exit codes, determinism, file emission."""

import argparse
import contextlib
import errno
import io
import hashlib
import os
import subprocess
import sys
import time
import types
from dataclasses import fields
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import avflock
import avflock.cli as cli
from avflock import __version__
from avflock.cli import build_parser, main
from avflock.core import ParamRangeWarning, SimParams, text_names, typed_fields
from avflock.engine import run
from avflock.experiments import (ExperimentSpec, builtin_set, format_rows, load_spec,
                                 run_experiment)
from avflock.richardson import RichardsonParams

RUN_SMOKE = ["run", "--scenario", "social", "--red", "10", "--black", "10",
             "--seed", "1", "--ticks", "50"]


class TestRun:
    def test_smoke_exit_zero_one_line(self, capsys):
        assert main(RUN_SMOKE) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert out.startswith("total collisions:")
        assert "seed 1" in out

    def test_no_agents_is_usage_error(self, capsys):
        assert main(["run", "--red", "0", "--black", "0"]) == 2
        assert "no agents" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_no_agents_keeps_the_previous_output(self, capsys, tmp_path, flag):
        path = tmp_path / "x.csv"
        path.write_bytes(b"the previous run's output\n")
        assert main(["run", "--red", "0", "--black", "0", flag, str(path)]) == 2
        assert "no agents" in capsys.readouterr().err
        assert path.read_bytes() == b"the previous run's output\n"

    @pytest.mark.parametrize("argv", [
        ["--collision-radius", "1e-200"],  # the list's span ** 2 underflows
        ["--collision-radius", "1e-200", "--scenario", "random"],
        ["--collision-radius", "1e-320"],  # width / cell_size overflows
        ["--collision-radius", "1e-310", "--world-width", "1e-300",
         "--world-height", "1e-300"],  # 2 ** 30 cells / width overflows
        ["--world-width", "5e-324"],  # one cell / width overflows
        ["--world-height", "5e-324", "--scenario", "random"],
    ])
    def test_tiny_collision_radius_runs(self, capsys, argv):
        assert main(["run", "--sonar-range", "0", "--ticks", "2"] + argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("total collisions:")
        assert captured.err == ""

    def test_invalid_flag_value_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--ticks", "soon"])
        assert exc.value.code == 2

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--warp", "9"])
        assert exc.value.code == 2

    def test_deterministic_stdout_and_files(self, capsys, tmp_path):
        out_csv = tmp_path / "ticks.csv"
        trace = tmp_path / "trace.log"
        argv = RUN_SMOKE + ["--out", str(out_csv), "--trace", str(trace)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        bytes1 = out_csv.read_bytes()
        trace1 = trace.read_bytes()
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        assert out_csv.read_bytes() == bytes1
        assert trace.read_bytes() == trace1
        lines = bytes1.decode().splitlines()
        assert lines[1] == "tick,collisions"
        assert len(lines) == 2 + 50

    def test_literal_mode_smoke(self):
        assert main(RUN_SMOKE + ["--literal"]) == 0

    @pytest.mark.parametrize("trace", ["x.csv", "sub/../x.csv"])
    def test_out_and_trace_on_one_file_exits_two(self, capsys, tmp_path, monkeypatch,
                                                 trace):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        path = tmp_path / "x.csv"
        path.write_bytes(b"the previous run's output\n")
        assert main(RUN_SMOKE + ["--out", "x.csv", "--trace", trace]) == 2
        assert "same file" in capsys.readouterr().err
        assert path.read_bytes() == b"the previous run's output\n"

    def test_out_dir_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("AVFLOCK_OUT_DIR", str(tmp_path))
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(RUN_SMOKE + ["--out", "relative.csv"]) == 0
        assert (tmp_path / "relative.csv").exists()
        # every other output flag resolves the same way
        for argv, name in [(RUN_SMOKE + ["--trace", "trace.log"], "trace.log"),
                           (TestSweep.ARGS + ["--out", "sweep.csv"], "sweep.csv"),
                           (["richardson", "--steps", "3", "--out", "traj.csv"],
                            "traj.csv")]:
            assert main(argv) == 0
            assert (tmp_path / name).stat().st_size > 0
        assert list(cwd.iterdir()) == []


class TestSweep:
    ARGS = ["sweep", "--builtin", "set1", "--ticks", "5", "--reps", "2",
            "--jobs", "1"]

    def test_builtin_writes_ten_row_csv(self, capsys, tmp_path):
        path = tmp_path / "set1.csv"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 10
        table = capsys.readouterr().out
        assert "AllSocialAVs" in table and "RandomWalk" in table

    def test_rerun_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(self.ARGS + ["--out", str(p1)])
        main(self.ARGS + ["--out", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_spec_file_exits_two(self, capsys):
        assert main(["sweep", "--spec", "missing.cfg"]) == 2
        assert capsys.readouterr().err == (
            "error: [Errno 2] No such file or directory: 'missing.cfg'\n")

    def test_directory_as_spec_file_exits_two(self, capsys, tmp_path):
        assert main(["sweep", "--spec", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err
        assert len(err.splitlines()) == 1

    def test_builtin_and_spec_are_exclusive(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--builtin", "set1", "--spec", "x.cfg"])
        assert exc.value.code == 2

    def test_out_equals_library_csv(self, tmp_path):
        # unset --base-seed keeps the builtin default of 1000
        path = tmp_path / "set1.csv"
        assert main(self.ARGS + ["--out", str(path)]) == 0
        spec = builtin_set("set1", ticks=5, repetitions=2, base_seed=1000)
        assert path.read_text() == format_rows(run_experiment(spec))

    def test_spec_file_sweep(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text("[experiment]\nname = mini\nrepetitions = 2\n"
                       "[config:a]\nn_red = 5\nn_black = 5\nticks = 10\n")
        assert main(["sweep", "--spec", str(cfg), "--jobs", "1"]) == 0
        assert "mini" in capsys.readouterr().out

    @pytest.mark.parametrize("batches, rows", [(None, 6), ("1", 2), ("2", 4)])
    def test_batches_flag_overrides_the_spec_file(self, tmp_path, batches, rows):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("[experiment]\nname = b\nrepetitions = 1\nbatches = 3\n"
                       "[config:a]\nscenario = social\nn_red = 5\nn_black = 5\n"
                       "ticks = 10\n[config:b]\nscenario = social\nn_red = 6\n"
                       "n_black = 6\nticks = 10\n")
        out = tmp_path / "b.csv"
        argv = ["sweep", "--spec", str(cfg), "--jobs", "1", "--out", str(out)]
        assert main(argv + (["--batches", batches] if batches else [])) == 0
        assert len(out.read_text().splitlines()) == 2 + rows


class TestCompare:
    ARGS = ["compare", "--red", "20", "--black", "20", "--ticks", "300",
            "--reps", "2", "--jobs", "1"]

    def test_report_contains_both_scenarios_and_efficiency(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "AllSocialAVs" in out and "RandomWalk" in out
        assert "efficiency" in out

    def test_zero_agents_rejected(self, capsys):
        assert main(["compare", "--red", "0", "--black", "0"]) == 2

    def test_fixed_seed_identical_report(self, capsys):
        main(self.ARGS)
        first = capsys.readouterr().out
        main(self.ARGS)
        assert capsys.readouterr().out == first


class TestDefaultJobs:
    @pytest.mark.parametrize("argv", [["sweep", "--builtin", "set1"], ["compare"]])
    def test_one_process_per_cpu_this_process_may_use(self, monkeypatch, argv):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert build_parser().parse_args(argv).jobs == 2

    def test_cpu_count_where_there_is_no_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert build_parser().parse_args(["compare"]).jobs == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert build_parser().parse_args(["compare"]).jobs == 1


class TestRichardson:
    def test_identity_dynamics_constant_trajectory(self, capsys):
        assert main(["richardson", "--delta1", "0", "--delta2", "0",
                     "--alpha1", "0", "--alpha2", "0", "--v1", "2.5",
                     "--v2", "-1.0", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 6
        assert all(r.split(",")[1:] == ["2.5", "-1.0"] for r in rows)
        assert "Marginal" in out
        assert "none" in out  # identity dynamics: no unique fixed point

    def test_default_preset_reported_stable(self, capsys):
        assert main(["richardson", "--steps", "3"]) == 0
        assert "Stable" in capsys.readouterr().out

    def test_decoupled_example_converges_to_fixed_point(self, capsys):
        assert main(["richardson", "--delta1", "0", "--delta2", "0",
                     "--alpha1", "-0.5", "--alpha2", "-0.5",
                     "--g1", "1", "--h1", "1", "--g2", "2", "--h2", "1",
                     "--v1", "0", "--v2", "0", "--steps", "60"]) == 0
        out = capsys.readouterr().out
        assert "fixed point: v1=2.0 v2=4.0" in out
        last = [l for l in out.splitlines() if l and l[0].isdigit()][-1]
        _, v1, v2 = last.split(",")
        assert float(v1) == pytest.approx(2.0) and float(v2) == pytest.approx(4.0)

    def test_non_numeric_coefficient_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["richardson", "--delta1", "fast"])
        assert exc.value.code == 2

    def test_default_output_pinned(self, capsys):
        # the default coefficients are stable_preset(): the same bytes as
        # when the CLI spelled them out by hand
        assert main(["richardson", "--steps", "20"]) == 0
        out = capsys.readouterr().out.encode("ascii")
        assert hashlib.sha256(out).hexdigest() == (
            "0808f033ae4d6f4ce6c6eb96d0ffacf7f7b081009bffe318cd8b7d0684fb7b24")

    def test_csv_to_file(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        assert main(["richardson", "--steps", "4", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[1] == "step,v1,v2"
        assert len(lines) == 2 + 5


def test_version(capsys):
    assert main(["version"]) == 0
    assert capsys.readouterr().out.strip() == f"avflock {__version__}"


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


class TestBadInput:
    @pytest.mark.parametrize("argv", [
        ["--world-width", "inf"],
        ["--world-height=-inf"],
        ["--collision-radius", "nan"],
        ["--max-velocity", "nan"],
        ["--sonar-range", "inf"],
        ["--safety-distance", "nan"],
    ])
    def test_non_finite_parameter_exits_two(self, capsys, argv):
        assert main(RUN_SMOKE + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--out", "--trace"])
    def test_unwritable_output_fails_before_simulating(self, capsys, monkeypatch,
                                                       tmp_path, flag):
        def no_run(*args, **kwargs):
            raise AssertionError("simulated before opening the outputs")

        monkeypatch.setattr("avflock.cli.run", no_run)
        bad = tmp_path / "missing" / "x.csv"
        assert main(RUN_SMOKE + [flag, str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("good, bad", [("--trace", "--out"), ("--out", "--trace")])
    def test_unwritable_output_leaves_the_other_as_it_was(self, capsys, tmp_path,
                                                         good, bad):
        old = tmp_path / "old.csv"
        old.write_bytes(b"the previous run's output\n")
        missing = str(tmp_path / "missing" / "x.csv")
        for path in (old, tmp_path / "new.csv"):
            assert main(RUN_SMOKE + [good, str(path), bad, missing]) == 2
            assert missing in capsys.readouterr().err
        assert old.read_bytes() == b"the previous run's output\n"
        assert list(tmp_path.iterdir()) == [old]  # no new file left behind

    def test_sweep_unwritable_output_fails_before_sweeping(self, capsys, monkeypatch,
                                                           tmp_path):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before opening the output")

        monkeypatch.setattr("avflock.cli.run_experiment", no_sweep)
        bad = tmp_path / "missing" / "x.csv"
        assert main(TestSweep.ARGS + ["--out", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    # the simulation call each command makes, broken below, and its command line
    FAILING = {"run": ("avflock.cli.run", RUN_SMOKE + ["--trace", "trace.log"]),
               "sweep": ("avflock.experiments.run", TestSweep.ARGS)}

    @pytest.mark.parametrize("command", FAILING)
    def test_failed_command_keeps_the_previous_output(self, capsys, monkeypatch,
                                                      tmp_path, command):
        def broken(*args, **kwargs):
            raise ValueError("run failed")

        target, argv = self.FAILING[command]
        monkeypatch.setattr(target, broken)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "set1.csv"
        path.write_text("the previous sweep's summary\n")
        assert main(argv + ["--out", str(path)]) == 2
        assert "run failed" in capsys.readouterr().err
        assert path.read_text() == "the previous sweep's summary\n"
        assert list(tmp_path.iterdir()) == [path]  # no new --trace left behind

    @pytest.mark.parametrize("command", FAILING)
    def test_failed_command_leaves_no_new_output(self, capsys, monkeypatch, tmp_path,
                                                 command):
        def broken(*args, **kwargs):
            raise ValueError("run failed")

        target, argv = self.FAILING[command]
        monkeypatch.setattr(target, broken)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "new.csv"
        assert main(argv + ["--out", str(path)]) == 2
        assert "run failed" in capsys.readouterr().err
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_write_error_during_the_run_exits_one(self, capsys, monkeypatch, tmp_path):
        # a full disk is a runtime failure, not a bad path
        def disk_full(*args, **kwargs):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("avflock.cli.run", disk_full)
        argv = RUN_SMOKE + ["--out", str(tmp_path / "x.csv"),
                            "--trace", str(tmp_path / "t.log")]
        assert main(argv) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad", ["missing/x.csv", "directory", "file/x.csv"],
                             ids=["missing-directory", "directory", "under-a-file"])
    @pytest.mark.parametrize("argv", [
        RUN_SMOKE + ["--out"], RUN_SMOKE + ["--trace"], TestSweep.ARGS + ["--out"],
        ["richardson", "--steps", "3", "--out"],
    ], ids=["run---out", "run---trace", "sweep", "richardson"])
    def test_unopenable_output_exits_two(self, capsys, tmp_path, argv, bad):
        (tmp_path / "directory").mkdir()
        (tmp_path / "file").write_text("a file, not a directory\n")
        before = sorted(tmp_path.iterdir())
        bad = str(tmp_path / bad)
        assert main(argv + [bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and bad in err
        assert sorted(tmp_path.iterdir()) == before
        assert (tmp_path / "file").read_text() == "a file, not a directory\n"

    def test_richardson_unwritable_output_fails_before_simulating(self, capsys,
                                                                  monkeypatch, tmp_path):
        def no_simulate(*args, **kwargs):
            raise AssertionError("simulated before opening the output")

        monkeypatch.setattr("avflock.cli.simulate", no_simulate)
        bad = tmp_path / "missing" / "x.csv"
        assert main(["richardson", "--steps", "3", "--out", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_dead_sweep_worker_is_one_error_line(self, capfd, monkeypatch):
        caller = os.getpid()

        def die_in_worker(params, seed):
            if os.getpid() != caller:
                os._exit(3)
            time.sleep(0.05)  # leave the worker time to claim a run and die
            return run(params, seed)

        monkeypatch.setattr("avflock.experiments.run", die_in_worker)
        argv = ["sweep", "--builtin", "set1", "--ticks", "5", "--reps", "1",
                "--jobs", "2"]
        assert main(argv) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: a sweep worker process died")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--reps", "--ticks", "--base-seed"])
    def test_builtin_only_flag_with_spec_exits_two(self, capsys, tmp_path, flag):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text("[config:a]\nn_red = 5\nn_black = 5\nticks = 10\n")
        assert main(["sweep", "--spec", str(cfg), "--jobs", "1", flag, "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv", [["--builtin", "set1"], ["--spec", "mini.cfg"]])
    def test_batches_below_one_exits_two(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mini.cfg").write_text("[config:a]\nn_red = 5\nn_black = 5\n")
        assert main(["sweep", *argv, "--jobs", "1", "--batches", "0"]) == 2
        assert "batches must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        RUN_SMOKE + ["--seed", "-1", "--out", "out.csv", "--trace", "t.csv"],
        TestSweep.ARGS + ["--base-seed", "-1", "--out", "out.csv"],
        ["compare", "--base-seed", "-1", "--ticks", "5", "--reps", "1",
         "--jobs", "1"],
    ], ids=["run", "sweep", "compare"])
    def test_negative_seed_exits_two(self, capsys, tmp_path, monkeypatch, argv):
        # random.Random(-1) seeds like random.Random(1)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be >= 0, got -1" in err
        assert list(tmp_path.iterdir()) == []  # no output was opened

    @pytest.mark.parametrize("argv", [
        RUN_SMOKE + ["--min-velocity", "0.9", "--max-velocity", "0.3",
                     "--out", "out.csv", "--trace", "t.csv"],
        ["sweep", "--spec", "band.cfg", "--jobs", "1", "--out", "out.csv"],
    ], ids=["run", "sweep"])
    def test_min_velocity_above_max_exits_two(self, capsys, tmp_path, monkeypatch,
                                              argv):
        # random walkers keep to [min_velocity, max_velocity]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "band.cfg").write_text(
            "[config:a]\nn_red = 5\nn_black = 5\nticks = 10\n"
            "min_velocity = 0.9\nmax_velocity = 0.3\n")
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and (
            "min_velocity (0.9) must not exceed max_velocity (0.3)" in err)
        assert [p.name for p in tmp_path.iterdir()] == ["band.cfg"]  # no output

    def test_spec_name_with_a_comma_exits_two(self, capsys, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text("[experiment]\nname = a,b\n"
                       "[config:a]\nn_red = 5\nn_black = 5\nticks = 10\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--spec", str(cfg), "--jobs", "1",
                     "--out", str(out)]) == 2
        assert "name must not contain" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out_dir", [False, True])
    def test_sweep_out_on_the_spec_file_exits_two(self, capsys, tmp_path,
                                                   monkeypatch, out_dir):
        cfg = tmp_path / "mini.cfg"
        text = "[config:a]\nn_red = 5\nn_black = 5\nticks = 10\n"
        cfg.write_text(text)
        out = str(cfg)
        if out_dir:  # AVFLOCK_OUT_DIR prefixes a relative --out
            monkeypatch.setenv("AVFLOCK_OUT_DIR", str(tmp_path / "sub" / ".."))
            (tmp_path / "sub").mkdir()
            out = "mini.cfg"
        assert main(["sweep", "--spec", str(cfg), "--jobs", "1",
                     "--out", out]) == 2
        assert "--out names the --spec file" in capsys.readouterr().err
        assert cfg.read_text() == text

    def test_negative_sonar_range_exits_two(self, capsys):
        assert main(RUN_SMOKE + ["--sonar-range", "-1"]) == 2
        assert "sonar_range must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--alpha1", "nan"], ["--delta2", "inf"],
                                      ["--h1=-inf"], ["--v1", "nan"],
                                      ["--v2", "inf"]])
    def test_non_finite_richardson_input_exits_two(self, capsys, argv):
        assert main(["richardson", "--steps", "3"] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must be finite" in err

    @pytest.mark.parametrize("text", ["[config:x]\nn_red = 5\nn_red = 6\n",
                                      "n_red = 5\n"])
    def test_malformed_spec_exits_two(self, capsys, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--spec", str(cfg), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--builtin", "set1", "--jobs", "-3"],
        ["sweep", "--builtin", "set1", "--jobs", "two"],
        ["compare", "--jobs", "0"],
    ])
    def test_jobs_below_one_exits_two(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "argument --jobs: must be an int >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["run", "--ticks", "1.5"], "argument --ticks: ticks must be int, got '1.5'"),
        (["run", "--red", "true"], "argument --red: n_red must be int, got 'true'"),
        (["run", "--scenario", "both"],
         "scenario must be one of random, social, got 'both'"),
        (["sweep", "--builtin", "set1", "--reps", "x"],
         "argument --reps: repetitions must be int, got 'x'"),
        (["compare", "--base-seed", "x"],
         "argument --base-seed: base_seed must be int, got 'x'"),
        (["richardson", "--delta1", "fast"],
         "argument --delta1: delta1 must be float, got 'fast'"),
    ])
    def test_wrong_type_flag_exits_two(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, names", [
        ("[config:x]\nn_red = 5\nseed = 99\n", ["[config:x] seed", "base_seed"]),
        ("[experiment]\nreps = 3\n[config:x]\nn_red = 5\n", ["'reps'"]),
        ("[config:a]\nn_red = 5\n[config:b]\nn_red = 5\n", ["[config:a]", "[config:b]"]),
    ], ids=["seed", "experiment-key", "identical"])
    def test_spec_schema_violation_exits_two(self, capsys, tmp_path, text, names):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert main(["sweep", "--spec", str(cfg), "--jobs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert all(name in err for name in names)


# Any `avflock run` built from hostile values of the float flags exits 0 or
# 2, or 1 with one error line; nothing escapes main as a traceback. The
# examples take the random walk's neighbor list with a tiny radius and in a
# huge world.
HOSTILE = ("0", "-0.0", "5e-324", "1e-300", "1e9", "1e300", "inf", "nan", "-1")
FLOAT_FLAGS = ("--min-velocity", "--max-velocity", "--max-acceleration",
               "--deceleration", "--safety-distance", "--sonar-range",
               "--world-width", "--world-height", "--collision-radius")


@pytest.mark.filterwarnings("ignore::avflock.core.ParamRangeWarning")
@settings(derandomize=True, max_examples=400, deadline=None)
@given(flags=st.dictionaries(st.sampled_from(FLOAT_FLAGS), st.sampled_from(HOSTILE),
                             min_size=1, max_size=4),
       scenario=st.sampled_from(("social", "random")), ticks=st.integers(1, 3))
@example(flags={"--collision-radius": "1e-300", "--min-velocity": "5e-324",
                "--max-velocity": "5e-324"}, scenario="random", ticks=3)
@example(flags={"--world-width": "1e300", "--world-height": "1e300"},
         scenario="random", ticks=3)
def test_hostile_run_flags_exit_cleanly(flags, scenario, ticks):
    argv = ["run", "--scenario", scenario, "--ticks", str(ticks)]
    for flag, value in flags.items():
        argv.append(f"{flag}={value}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert out.getvalue().startswith("total collisions:"), argv
    else:
        assert code in (1, 2) and lines and lines[0].startswith("error:"), argv
        assert code == 2 or len(lines) == 1, (argv, lines)


class TestRangeWarnings:
    def _range_warnings(self, recwarn):
        return [str(w.message) for w in recwarn if w.category is ParamRangeWarning]

    def test_default_run_does_not_warn(self, recwarn):
        assert main(["run", "--ticks", "5"]) == 0
        assert self._range_warnings(recwarn) == []

    def test_given_out_of_range_value_warns_once(self, recwarn):
        assert main(["run", "--ticks", "5", "--max-velocity", "0.3"]) == 0
        assert self._range_warnings(recwarn) == [
            "max_velocity=0.3 outside the slider range [0.6, 1.0]"]

    @staticmethod
    def _main_stderr(tmp_path, *argv) -> str:
        # a fresh interpreter: the warning registry of this one may already
        # hold the messages, which would hide a repeat
        src = str(Path(avflock.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from avflock.cli import main; sys.exit(main(sys.argv[1:]))",
             *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        return proc.stderr

    def test_builtin_sweep_stderr_is_empty(self, tmp_path):
        assert self._main_stderr(tmp_path, "sweep", "--builtin", "set1", "--ticks",
                                 "5", "--reps", "1", "--jobs", "1") == ""

    def test_paired_spec_section_warns_once(self, tmp_path):
        # both halves of the pair carry the value, but it was given once
        (tmp_path / "pair.cfg").write_text(
            "[experiment]\nrepetitions = 1\n[config:x]\nn_red = 150\nticks = 2\n")
        err = self._main_stderr(tmp_path, "sweep", "--spec", "pair.cfg", "--jobs", "1")
        (line,) = [l for l in err.splitlines() if "ParamRangeWarning" in l]
        assert line.endswith("ParamRangeWarning: n_red=150 outside the slider "
                             "range [0, 100]")


def _subparser(command: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _actions(command: str) -> list[argparse.Action]:
    return _subparser(command)._actions


class TestSchema:
    PARAM_OPTIONS = {"--red", "--black", "--min-velocity", "--max-velocity",
                     "--max-acceleration", "--deceleration", "--safety-distance",
                     "--sonar-range", "--world-width", "--world-height",
                     "--collision-radius", "--ticks", "--collision-rule", "--literal"}

    def test_run_and_compare_options_pinned(self):
        def options(command):
            return {o for a in _actions(command) for o in a.option_strings}

        assert options("run") == self.PARAM_OPTIONS | {
            "-h", "--help", "--scenario", "--seed", "--out", "--trace"}
        assert options("compare") == self.PARAM_OPTIONS | {
            "-h", "--help", "--reps", "--base-seed", "--jobs"}

    def test_sweep_options_pinned(self):
        assert {o for a in _actions("sweep") for o in a.option_strings} == {
            "-h", "--help", "--builtin", "--spec", "--out", "--reps", "--base-seed",
            "--batches", "--ticks", "--jobs"}

    def test_richardson_options_pinned(self):
        assert {o for a in _actions("richardson") for o in a.option_strings} == {
            "-h", "--help", "--delta1", "--delta2", "--alpha1", "--alpha2", "--g1",
            "--g2", "--h1", "--h2", "--v1", "--v2", "--steps", "--out"}

    def test_richardson_help_shows_each_coefficient_default(self):
        lines = _subparser("richardson").format_help().splitlines()
        for f in fields(RichardsonParams):
            (line,) = [l for l in lines if l.lstrip().startswith(f"--{f.name} ")]
            assert line.endswith(f"(default {f.default})"), line

    @pytest.mark.filterwarnings("ignore::avflock.core.ParamRangeWarning")
    @pytest.mark.parametrize("f, kind", typed_fields(SimParams),
                             ids=[f.name for f, _ in typed_fields(SimParams)])
    def test_flag_and_spec_key_give_the_same_params(self, monkeypatch, tmp_path,
                                                    f, kind):
        # a valid non-default value of every field, as text
        if kind is bool:
            text = "true"
        elif issubclass(kind, Enum):
            text = next(n for n, m in text_names(f, kind).items() if m is not f.default)
        elif f.name == "min_velocity":  # at most max_velocity, whose default it is
            text = str(f.default / 2)
        else:
            text = str(f.default + kind(1))

        seen = []

        def fake_run(params, seed, trace=None):
            seen.append(params)
            return types.SimpleNamespace(total_collisions=0, per_team_collisions=(0, 0),
                                         seed=seed)

        monkeypatch.setattr(cli, "run", fake_run)
        flag = next(a.option_strings[0] for a in _actions("run") if a.dest == f.name)
        assert main(["run", flag] + ([] if kind is bool else [text])) == 0
        (from_flag,) = seen
        assert getattr(from_flag, f.name) != f.default

        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"[config:x]\n{f.name} = {text}\n")
        if f.name == "seed":  # replicate seeds come from [experiment] base_seed
            with pytest.raises(ValueError, match="base_seed"):
                load_spec(str(cfg))
        else:
            assert load_spec(str(cfg)).configurations[0] == from_flag

    @pytest.mark.parametrize("f", [f for f in fields(ExperimentSpec) if f.metadata],
                             ids=lambda f: f.name)
    def test_flag_and_experiment_key_give_the_same_sweep(self, tmp_path, f):
        # set1's sliders are SimParams' defaults: this file is set1 at 2 ticks
        sections = "".join(f"[config:{n}]\nn_red = {n}\nn_black = {n}\nticks = 2\n"
                           for n in (40, 50, 60, 70, 80))
        text = str(f.default + 1)
        cfg = tmp_path / "set1.cfg"
        cfg.write_text(f"[experiment]\nname = set1\n{f.name} = {text}\n{sections}")
        flag = next(a.option_strings[0] for a in _actions("sweep") if a.dest == f.name)
        # a spec file sets its own repetitions and base_seed: their flags
        # take a builtin set, and so does --batches here
        by_flag, by_key = tmp_path / "flag.csv", tmp_path / "key.csv"
        assert main(["sweep", "--builtin", "set1", "--ticks", "2", flag, text,
                     "--jobs", "1", "--out", str(by_flag)]) == 0
        assert main(["sweep", "--spec", str(cfg), "--jobs", "1",
                     "--out", str(by_key)]) == 0
        assert by_flag.read_bytes() == by_key.read_bytes()
