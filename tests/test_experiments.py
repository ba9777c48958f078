"""Sweep harness contracts: builtin sets, seed schedule, aggregation, CSV."""

import dataclasses
import os
import re
import statistics
import time
import warnings

import pytest

import avflock.experiments as ex
from avflock.core import ParamRangeWarning, Scenario, SimParams
from avflock.engine import run
from avflock.experiments import (ExperimentSpec, builtin_set, efficiency,
                                 export_csv, format_rows, load_spec,
                                 run_experiment, seed_groups)

SMALL = builtin_set("set1", ticks=5, repetitions=2)


@pytest.fixture
def pool_sizes(monkeypatch) -> list[int]:
    """The worker count of each process pool started, with the pool replaced
    by one that runs each submitted call in this process and starts nothing."""
    import concurrent.futures

    made: list[int] = []
    # the fake runs the worker initializer here: restore what it sets
    monkeypatch.setattr(ex, "_counter", None)

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            made.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return made


class TestBuiltinSets:
    def test_set1_shape_and_values(self):
        spec = builtin_set("set1")
        assert spec.name == "set1"
        assert len(spec.configurations) == 10
        assert spec.repetitions == 8
        pops = sorted({p.n_red for p in spec.configurations})
        assert pops == [40, 50, 60, 70, 80]
        for p in spec.configurations:
            assert p.n_red == p.n_black
            assert p.min_velocity == 0.3 and p.max_velocity == 0.3
            assert p.max_acceleration == 0.1 and p.deceleration == 0.1
            assert p.min_safety_distance == 1.0 and p.sonar_range == 2.5
            assert p.ticks == 1000
        scenarios = {p.scenario for p in spec.configurations}
        assert scenarios == {Scenario.ALL_SOCIAL_AVS, Scenario.RANDOM_WALK}

    @pytest.mark.parametrize("which", ["set1", "set2"])
    def test_builds_without_warnings(self, which):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            builtin_set(which)

    def test_set2_values(self):
        for p in builtin_set("set2").configurations:
            assert p.min_velocity == 0.5 and p.max_velocity == 0.9
            assert p.deceleration == 0.3

    def test_sets_differ_only_in_velocity_range_and_deceleration(self):
        s1 = builtin_set("set1").configurations
        s2 = builtin_set("set2").configurations
        for a, b in zip(s1, s2):
            assert dataclasses.replace(
                a, min_velocity=0, max_velocity=0, deceleration=0) == \
                dataclasses.replace(
                b, min_velocity=0, max_velocity=0, deceleration=0)

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError):
            builtin_set("set3")


class TestSeedSchedule:
    def test_scenario_pairs_share_a_group(self):
        groups = seed_groups(builtin_set("set1"))
        assert groups == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_default_schedule_is_injective_per_group(self):
        spec = builtin_set("set1")
        n_groups = 5
        seeds = {ex._seed(spec, n_groups, g, k, 0)
                 for g in range(n_groups) for k in range(spec.repetitions)}
        assert len(seeds) == n_groups * spec.repetitions

    def test_schedule_formula(self):
        spec = ExperimentSpec("s", (SimParams(ticks=1),), repetitions=8,
                              base_seed=1000)
        assert ex._seed(spec, 5, 3, 2, 0) == 1000 + 3 * 8 + 2

    def test_batches_extend_without_seed_reuse(self):
        spec = builtin_set("set1")
        seeds = {ex._seed(spec, 5, g, k, b)
                 for g in range(5) for k in range(8) for b in range(3)}
        assert len(seeds) == 5 * 8 * 3

    def test_paired_scenarios_replay_identical_seeds(self, monkeypatch):
        calls = []

        def recorder(spec, n_groups, group, rep, batch):
            calls.append((group, rep))
            return 77000 + group * 100 + rep

        monkeypatch.setattr(ex, "_seed", recorder)
        run_experiment(ExperimentSpec("s", SMALL.configurations, 2))
        # every (group, rep) pair must occur exactly twice: once per scenario
        from collections import Counter
        counts = Counter(calls)
        assert set(counts.values()) == {2}
        assert len(counts) == 5 * 2


class TestRunExperiment:
    def test_row_shape_and_order(self):
        rows = run_experiment(SMALL)
        assert len(rows) == 10
        keys = [(r.config_id, r.scenario.value) for r in rows]
        assert keys == sorted(keys)
        assert all(r.n == 2 for r in rows)
        assert all(r.set_name == "set1" for r in rows)

    def test_aggregation_matches_two_pass_reference(self):
        spec = ExperimentSpec("ref", SMALL.configurations[:4], repetitions=3,
                              base_seed=500)
        rows = run_experiment(spec)
        groups = seed_groups(spec)
        for ci, params in enumerate(spec.configurations):
            totals = [run(params, ex._seed(spec, 2, groups[ci], k, 0)).total_collisions
                      for k in range(3)]
            mean = sum(totals) / 3
            var = sum((t - mean) ** 2 for t in totals) / 2
            row = next(r for r in rows if r.config_id == groups[ci]
                       and r.scenario == params.scenario)
            assert abs(row.mean_collisions - mean) <= 1e-12 * max(1, abs(mean))
            assert abs(row.stdev_collisions - var ** 0.5) <= 1e-12 * max(1, var ** 0.5)

    def test_single_repetition_reports_zero_stdev(self):
        spec = ExperimentSpec("one", SMALL.configurations[:2], repetitions=1)
        rows = run_experiment(spec)
        assert all(r.stdev_collisions == 0.0 and r.n == 1 for r in rows)

    def test_forced_equal_seeds_give_zero_stdev(self, monkeypatch):
        spec = ExperimentSpec("dup", SMALL.configurations[:2], repetitions=8)
        monkeypatch.setattr(ex, "_seed", lambda spec, n_groups, g, k, b: 42)
        rows = run_experiment(spec)
        assert all(r.stdev_collisions == 0.0 for r in rows)

    def test_hand_statistics_example(self, monkeypatch):
        class Fake:
            def __init__(self, total):
                self.total_collisions = total

        feed = iter([260, 270])
        monkeypatch.setattr(ex, "run", lambda params, seed: Fake(next(feed)))
        spec = ExperimentSpec("hand", (SimParams(ticks=1),), repetitions=2)
        row = run_experiment(spec)[0]
        assert row.mean_collisions == pytest.approx(265.0)
        assert row.stdev_collisions == pytest.approx(7.0710678, abs=1e-6)

    def test_parallel_jobs_match_sequential(self):
        spec = ExperimentSpec("par", builtin_set("set1", ticks=40).configurations[:4],
                              repetitions=2)
        assert run_experiment(spec, jobs=1) == run_experiment(spec, jobs=2)

    def test_batches_make_independent_rows(self):
        spec = ExperimentSpec("b", SMALL.configurations[:2], repetitions=2, batches=3)
        rows = run_experiment(spec)
        assert len(rows) == 2 * 3
        assert sorted({r.batch for r in rows}) == [0, 1, 2]

    def test_engine_errors_carry_the_configuration_id(self, monkeypatch):
        def broken(params, seed):
            raise ValueError("run failed")

        monkeypatch.setattr(ex, "run", broken)
        spec = ExperimentSpec("bad", (SimParams(ticks=1),), repetitions=1)
        with pytest.raises(ValueError, match="configuration 0"):
            run_experiment(spec)

    def test_error_that_takes_other_arguments_becomes_a_runtime_error(self, monkeypatch):
        class TwoArgs(Exception):
            def __init__(self, code, detail):
                super().__init__(f"{code}: {detail}")

        original = TwoArgs(7, "run failed")

        def broken(params, seed):
            raise original

        monkeypatch.setattr(ex, "run", broken)
        spec = ExperimentSpec("bad", (SimParams(ticks=1),), repetitions=1)
        with pytest.raises(RuntimeError, match=r"^configuration 0: 7: run failed$") as info:
            run_experiment(spec)
        assert info.value.__cause__ is original

    def test_empty_configurations_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("x", ())

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("x", (SimParams(ticks=1),), repetitions=0)

    def test_negative_base_seed_rejected(self):
        # base_seed -2 with 4 replicates ran seeds -2..1, and -1 replays 1
        with pytest.raises(ValueError, match="base_seed must be >= 0, got -2"):
            ExperimentSpec("x", (SimParams(ticks=1),), repetitions=4, base_seed=-2)

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb"])
    def test_name_that_breaks_a_csv_row_rejected(self, name):
        with pytest.raises(ValueError, match="name must not contain"):
            ExperimentSpec(name, (SimParams(ticks=1),))

    def test_identical_configurations_rejected(self):
        a, b = SimParams(ticks=1), SimParams(ticks=2)
        with pytest.raises(ValueError, match="configurations 0 and 2 are identical"):
            ExperimentSpec("x", (a, b, a))
        # a paired configuration differs by scenario and stays legal
        ExperimentSpec("x", (a, dataclasses.replace(a, scenario=Scenario.RANDOM_WALK)))

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_experiment(SMALL, jobs=jobs)

    # the calling process is one of the `jobs`: the pool has one fewer
    @pytest.mark.parametrize("reps, jobs, pools", [(1, 64, [1]), (2, 3, [2])])
    def test_pool_has_no_more_workers_than_runs(self, pool_sizes, reps, jobs, pools):
        spec = ExperimentSpec("cap", SMALL.configurations[:2], repetitions=reps)
        assert run_experiment(spec, jobs=jobs) == run_experiment(spec, jobs=1)
        assert pool_sizes == pools

    def test_a_single_run_starts_no_pool(self, pool_sizes):
        spec = ExperimentSpec("one", SMALL.configurations[:1], repetitions=1)
        assert run_experiment(spec, jobs=64) == run_experiment(spec, jobs=1)
        assert pool_sizes == []


class TestEfficiency:
    def test_benchmark_pair(self):
        assert efficiency(1248.12, 268.25) == pytest.approx(78.51, abs=0.01)

    def test_no_improvement(self):
        assert efficiency(123.4, 123.4) == 0.0

    def test_perfect_avoidance(self):
        assert efficiency(100.0, 0.0) == 100.0

    def test_rejects_nonpositive_reference(self):
        with pytest.raises(ValueError):
            efficiency(0.0, 1.0)
        with pytest.raises(ValueError):
            efficiency(-5.0, 1.0)

    def test_strictly_decreasing_in_social_mean(self):
        import random as _r
        rng = _r.Random(1)
        for _ in range(100):
            r = rng.uniform(1, 1000)
            s1 = rng.uniform(0, 1000)
            s2 = s1 + rng.uniform(0.001, 100)
            assert efficiency(r, s2) < efficiency(r, s1)

    def test_scale_invariance(self):
        import random as _r
        rng = _r.Random(2)
        for _ in range(100):
            r, s, c = rng.uniform(1, 100), rng.uniform(0, 100), rng.uniform(0.01, 50)
            assert efficiency(c * r, c * s) == pytest.approx(efficiency(r, s))


class TestCsvExport:
    HEADER = ("set,config_id,scenario,n_red,n_black,min_vel,max_vel,max_accel,"
              "decel,safety,sonar,ticks,reps,mean_collisions,stdev_collisions")

    def test_empty_rows_give_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        export_csv([], str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == self.HEADER
        assert len(lines) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        rows = run_experiment(SMALL)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_csv(rows, str(p1))
        export_csv(run_experiment(SMALL), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_set1_emits_ten_data_rows(self, tmp_path):
        path = tmp_path / "set1.csv"
        export_csv(run_experiment(SMALL), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 2 + 10
        first = lines[2].split(",")
        assert first[0] == "set1" and first[2] in ("AllSocialAVs", "RandomWalk")
        assert len(first) == len(self.HEADER.split(","))

    def test_format_rows_round_trips_full_precision(self):
        rows = run_experiment(ExperimentSpec("p", SMALL.configurations[:1],
                                             repetitions=3))
        text = format_rows(rows)
        value = text.splitlines()[2].split(",")[13]
        assert float(value) == rows[0].mean_collisions


class TestLoadSpec:
    CFG = """
[experiment]
name = demo
repetitions = 3
base_seed = 77

[config:small]
n_red = 5
n_black = 5
ticks = 10
scenario = both

[config:solo]
n_red = 3
n_black = 0
ticks = 10
sonar_range = 2.0
scenario = social
"""

    def test_round_trip(self, tmp_path):
        path = tmp_path / "demo.cfg"
        path.write_text(self.CFG)
        spec = load_spec(str(path))
        assert spec.name == "demo"
        assert spec.repetitions == 3 and spec.base_seed == 77
        assert len(spec.configurations) == 3  # both expands to a pair
        assert spec.configurations[0].scenario is Scenario.ALL_SOCIAL_AVS
        assert spec.configurations[1].scenario is Scenario.RANDOM_WALK
        assert spec.configurations[2].sonar_range == 2.0
        groups = seed_groups(spec)
        assert groups[0] == groups[1] != groups[2]
        rows = run_experiment(spec)
        assert len(rows) == 3

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_spec("/nonexistent/path.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[config:x]\nn_red = 5\nwarp_factor = 9\n")
        with pytest.raises(ValueError, match="warp_factor"):
            load_spec(str(path))

    def test_bad_scenario_rejected(self, tmp_path):
        path = tmp_path / "bad2.cfg"
        path.write_text("[config:x]\nn_red = 5\nscenario = chaotic\n")
        with pytest.raises(ValueError, match="scenario"):
            load_spec(str(path))

    def test_duplicate_key_is_a_value_error(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("[config:x]\nn_red = 5\nn_red = 6\n")
        with pytest.raises(ValueError, match="n_red"):
            load_spec(str(path))

    def test_missing_section_header_is_a_value_error(self, tmp_path):
        path = tmp_path / "flat.cfg"
        path.write_text("n_red = 5\n")
        with pytest.raises(ValueError, match="section header"):
            load_spec(str(path))

    def test_seed_key_points_to_base_seed(self, tmp_path):
        path = tmp_path / "seed.cfg"
        path.write_text("[config:x]\nn_red = 5\nseed = 99\n")
        with pytest.raises(ValueError, match=r"\[config:x\] seed .*\[experiment\] base_seed"):
            load_spec(str(path))

    def test_unknown_experiment_key_rejected(self, tmp_path):
        path = tmp_path / "reps.cfg"
        path.write_text("[experiment]\nreps = 3\n[config:x]\nn_red = 5\n")
        with pytest.raises(ValueError, match=r"\[experiment\] unknown parameter 'reps'"):
            load_spec(str(path))

    def test_identical_sections_rejected(self, tmp_path):
        path = tmp_path / "same.cfg"
        path.write_text("[config:a]\nn_red = 5\nsonar_range = 2\n"
                        "[config:b]\nsonar_range = 2.00\nn_red = 5\n")
        with pytest.raises(ValueError, match=r"\[config:a\] and \[config:b\]"):
            load_spec(str(path))
        # a paired social/random configuration differs by scenario and stays legal
        path.write_text("[config:a]\nn_red = 5\nscenario = social\n"
                        "[config:b]\nn_red = 5\nscenario = random\n")
        assert len(load_spec(str(path)).configurations) == 2

    def test_only_given_values_warn(self, tmp_path, recwarn):
        path = tmp_path / "warn.cfg"
        path.write_text("[config:x]\nn_red = 5\nscenario = social\n")
        load_spec(str(path))  # defaults max_velocity 0.3, min_safety_distance 1.0
        path.write_text("[config:x]\nmax_velocity = 0.4\nscenario = social\n")
        load_spec(str(path))
        assert [str(w.message) for w in recwarn if w.category is ParamRangeWarning] == [
            "max_velocity=0.4 outside the slider range [0.6, 1.0]"]

    @pytest.mark.parametrize("section, line, message", [
        ("config:x", "ticks = 1.5", "ticks must be int, got '1.5'"),
        ("config:x", "n_red = true", "n_red must be int"),
        ("config:x", "literal_rules = maybe", "literal_rules must be true or false"),
        ("config:x", "collision_rule = pairs", "collision_rule must be one of"),
        ("experiment", "repetitions = 2.5", "repetitions must be int"),
    ])
    def test_values_parsed_by_field_type(self, tmp_path, section, line, message):
        path = tmp_path / "typed.cfg"
        path.write_text(f"[{section}]\n{line}\n[config:y]\nn_red = 5\n")
        with pytest.raises(ValueError, match=re.escape(f"[{section}] {message}")):
            load_spec(str(path))


class TestScheduling:
    MIXED = (SimParams(n_red=5, n_black=5, ticks=30),
             SimParams(n_red=20, n_black=20, ticks=30),
             SimParams(n_red=10, n_black=10, ticks=60,
                       scenario=Scenario.RANDOM_WALK),
             SimParams(n_red=30, n_black=30, ticks=10))

    def test_largest_first_is_descending_and_stable(self):
        tasks = [(p, 0, ci) for ci, p in enumerate(self.MIXED) for _ in range(2)]
        order = ex._largest_first(tasks)
        # agent-ticks 300, 1200, 1200, 600: ties keep the task order
        assert order == [2, 3, 4, 5, 6, 7, 0, 1]

    def test_pool_with_batches_matches_sequential(self):
        spec = ExperimentSpec("mixed", self.MIXED, repetitions=2, batches=2)
        sequential = run_experiment(spec, jobs=1)
        assert len(sequential) == 4 * 2
        for jobs in (2, 3):
            rows = run_experiment(spec, jobs=jobs)
            assert rows == sequential
            assert format_rows(rows) == format_rows(sequential)


def _log_runs(monkeypatch, log, fails=lambda params: False) -> None:
    """Append one line per run started, in any process, to `log`; the runs
    whose params `fails` accepts raise. Pool workers inherit the patch."""
    def logged(params, seed):
        with open(log, "a", encoding="ascii") as fh:  # one short O_APPEND write
            fh.write(f"{params.n_red} {params.scenario.value} {seed}\n")
        if fails(params):
            raise ValueError("run failed")
        return run(params, seed)

    monkeypatch.setattr(ex, "run", logged)


class TestSharedClaims:
    def test_every_run_starts_once(self, monkeypatch, tmp_path):
        # 200 one-tick runs over 4 processes: the claims contend hard, and
        # a lost counter update would start a run twice or never
        spec = builtin_set("set1", ticks=1, repetitions=20)
        logs = {jobs: tmp_path / f"jobs{jobs}.log" for jobs in (1, 4)}
        rows = {}
        for jobs, log in logs.items():
            _log_runs(monkeypatch, log)
            rows[jobs] = run_experiment(spec, jobs=jobs)
        assert rows[4] == rows[1]
        started = {jobs: log.read_text().splitlines() for jobs, log in logs.items()}
        assert len(started[1]) == len(set(started[1])) == 200
        assert sorted(started[4]) == sorted(started[1])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_failed_run_stops_every_process(self, monkeypatch, tmp_path, jobs):
        # the four 80 + 80 runs (seed group 4) raise; they are the last in
        # task order and the first a pool claims
        log = tmp_path / "runs.log"
        _log_runs(monkeypatch, log, fails=lambda params: params.n_red == 80)
        spec = builtin_set("set1", ticks=50, repetitions=2)
        with pytest.raises(ValueError, match=r"^configuration 4: run failed$"):
            run_experiment(spec, jobs=jobs)
        started = len(log.read_text().splitlines())
        if jobs == 1:
            assert started == 17  # the 16 smaller runs, then the first failure
        else:
            assert 1 <= started <= jobs  # each process's first run raises

    def test_a_failure_in_the_caller_stops_the_worker(self, monkeypatch, tmp_path):
        # the worker's runs succeed: only the counter can stop it
        caller = os.getpid()
        log = tmp_path / "runs.log"
        _log_runs(monkeypatch, log, fails=lambda params: os.getpid() == caller)
        with pytest.raises(ValueError, match="run failed"):
            run_experiment(builtin_set("set1", ticks=50, repetitions=2), jobs=2)
        assert 1 <= len(log.read_text().splitlines()) <= 2

    def test_a_dead_worker_stops_the_caller(self, monkeypatch):
        # the worker dies on its first claim; the pool's done-callback then
        # ends the caller's claims after a run or two of its 39
        caller = os.getpid()
        ran = []

        def die_in_worker(task):
            if os.getpid() != caller:
                os._exit(3)
            time.sleep(0.05)
            ran.append(task)
            return 0

        monkeypatch.setattr(ex, "_run_total", die_in_worker)
        spec = builtin_set("set1", ticks=1, repetitions=4)  # 40 runs
        with pytest.raises(ChildProcessError, match="a sweep worker process died"):
            run_experiment(spec, jobs=2)
        assert len(ran) <= 5, len(ran)
