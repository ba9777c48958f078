"""The three avflock benchmark workloads, run in a fresh interpreter.

`run.py` starts this file as a child process in one of two modes and reads
the JSON object it prints last:

  measure  repeat the workload's unit, untraced, for --seconds; report each
           unit's wall time and output digests, the peak RSS, and the set-up
           samples of probe.py runs started at intervals over the run
  trace    a pass timing only engine.tick, then a pass with every layer
           wrapped; report the per-layer metrics

Untraced units call only the public entry points (cli.main, engine.run).
Every unit starts from scratch: nothing is shared between runs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import warnings
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# the tick-only pass repeats the unit until p99 has ten samples beyond it
MIN_TICK_SAMPLES = 1000
# measure mode starts no unit that could end past this many seconds
MEASURE_BUDGET_S = 120.0
# fresh-interpreter set-up samples per measure run
SETUP_PROBES = 15


class CheckError(Exception):
    """A program output failed a correctness check."""


def import_avflock():
    """Import the program from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import avflock
    import avflock.cli
    if Path(avflock.__file__).resolve().parent != SRC / "avflock":
        raise ImportError(f"avflock imported from {avflock.__file__}, not {SRC}")
    warnings.simplefilter("ignore", avflock.ParamRangeWarning)
    return avflock


def _run_digest(series, red: int, black: int) -> str:
    """sha256 of one run's per-tick collision series plus per-team totals."""
    text = ",".join(map(str, series)) + f"\nred={red},black={black}\n"
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _check_run(series, total: int, red: int, black: int, ticks: int) -> None:
    # pair-entry rule: every counted event adds one to each agent's tally
    if len(series) != ticks or sum(series) != total or red + black != 2 * total:
        raise CheckError(f"inconsistent run: {len(series)} ticks, sum "
                         f"{sum(series)}, total {total}, red {red}, black {black}")


def _call_cli(main, argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    if rc != 0:
        raise CheckError(f"avflock {argv[0]} exited {rc}")
    return buf.getvalue()


class SweepPaired:
    """`avflock sweep --builtin set1` then `set2`: 1 replicate, --jobs 2."""

    name = "sweep_paired"
    sets = ("set1", "set2")
    jobs = 2
    ticks = 1000

    def __init__(self, seed: int, work: Path):
        self.base_seed = 1000 + 100 * seed
        self.work = work

    def inputs(self):
        from avflock import builtin_set
        specs = [builtin_set(s, ticks=self.ticks, repetitions=1,
                             base_seed=self.base_seed) for s in self.sets]
        # seed of seed group 0, replicate 0
        return specs, specs[0].configurations[0], self.base_seed

    @property
    def agent_ticks(self) -> int:
        specs, _, _ = self.inputs()
        return sum((p.n_red + p.n_black) * p.ticks
                   for spec in specs for p in spec.configurations)

    def runs(self, main, run):
        specs, _, _ = self.inputs()
        for which, spec in zip(self.sets, specs):
            out = self.work / f"{which}.csv"
            argv = ["sweep", "--builtin", which, "--reps", "1",
                    "--jobs", str(self.jobs), "--base-seed", str(self.base_seed),
                    "--ticks", str(self.ticks), "--out", str(out)]
            yield which, (lambda argv=argv: _call_cli(main, argv)), \
                (lambda stdout, out=out, spec=spec: self._check(stdout, out, spec))

    def _check(self, stdout: str, out: Path, spec):
        data = out.read_bytes()
        lines = data.decode("ascii").splitlines()
        rows = [line.split(",") for line in lines[2:]]
        if len(rows) != len(spec.configurations):
            raise CheckError(f"{out.name}: {len(rows)} rows, expected "
                             f"{len(spec.configurations)}")
        for row in rows:
            mean = float(row[13])
            # one replicate: the mean is that run's integer total, stdev 0
            if (row[0] != spec.name or row[11] != str(self.ticks) or row[12] != "1"
                    or mean < 0 or mean != int(mean) or row[14] != "0.0"):
                raise CheckError(f"{out.name}: bad row {row}")
        return hashlib.sha256(data).hexdigest(), len(stdout) + len(data)


class SocialScale:
    """One social run via engine.run: set1 profile, 1000+1000 agents on a
    353.55 m torus (the 80+80-in-100 m density)."""

    name = "social_scale"
    n_per_team = 1000
    world = 353.55
    ticks = 100
    jobs = 1

    def __init__(self, seed: int, work: Path):
        self.seed = seed

    def inputs(self):
        from avflock import builtin_set
        # the first set1 configuration is a social one
        params = dataclasses.replace(
            builtin_set("set1").configurations[0], n_red=self.n_per_team,
            n_black=self.n_per_team, world_width=self.world,
            world_height=self.world, ticks=self.ticks)
        return params, params, self.seed

    @property
    def agent_ticks(self) -> int:
        return 2 * self.n_per_team * self.ticks

    def runs(self, main, run):
        params, _, seed = self.inputs()
        yield "run", (lambda: run(params, seed)), self._check

    def _check(self, result):
        red, black = result.per_team_collisions
        _check_run(result.collisions_per_tick, result.total_collisions, red,
                   black, self.ticks)
        return _run_digest(result.collisions_per_tick, red, black), 0


class RandomTrace:
    """`avflock run --scenario random`, 80+80, set2 profile, --trace and --out."""

    name = "random_trace"
    n_per_team = 80
    ticks = 1000
    jobs = 1
    _TOTALS = re.compile(r"total collisions: (\d+) \(red (\d+), black (\d+)\)")

    # `avflock run` flag of each SimParams field the workload sets
    _FLAGS = (("--red", "n_red"), ("--black", "n_black"),
              ("--min-velocity", "min_velocity"),
              ("--max-velocity", "max_velocity"),
              ("--max-acceleration", "max_acceleration"),
              ("--deceleration", "deceleration"),
              ("--safety-distance", "min_safety_distance"),
              ("--sonar-range", "sonar_range"),
              ("--world-width", "world_width"),
              ("--world-height", "world_height"),
              ("--ticks", "ticks"), ("--seed", "seed"))

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.out = work / "collisions.csv"
        self.trace = work / "trace.csv"

    def inputs(self):
        from avflock import builtin_set
        # the second set2 configuration is a random-walk one
        params = dataclasses.replace(
            builtin_set("set2").configurations[1], n_red=self.n_per_team,
            n_black=self.n_per_team, ticks=self.ticks, seed=self.seed)
        return params, params, self.seed

    @property
    def agent_ticks(self) -> int:
        return 2 * self.n_per_team * self.ticks

    def runs(self, main, run):
        params, _, _ = self.inputs()
        argv = ["run", "--scenario", "random"]
        for flag, field in self._FLAGS:
            argv += [flag, str(getattr(params, field))]
        argv += ["--trace", str(self.trace), "--out", str(self.out)]
        yield "run", (lambda: _call_cli(main, argv)), self._check

    def _check(self, stdout: str):
        m = self._TOTALS.search(stdout)
        if m is None:
            raise CheckError(f"no totals line in output: {stdout!r}")
        total, red, black = map(int, m.groups())
        data = self.out.read_bytes()
        lines = data.decode("ascii").splitlines()
        if lines[1] != "tick,collisions":
            raise CheckError(f"unexpected header {lines[1]!r}")
        series = [int(line.split(",")[1]) for line in lines[2:]]
        _check_run(series, total, red, black, self.ticks)
        trace = self.trace.read_bytes()
        if trace.count(b"\n") != 1 + 2 * self.n_per_team * self.ticks:
            raise CheckError("trace has the wrong number of lines")
        digest = _run_digest(series, red, black)
        # the trace file bytes are pinned too: they are this workload's output
        return (f"{digest} trace:{hashlib.sha256(trace).hexdigest()}",
                len(stdout) + len(data))


WORKLOADS = {w.name: w for w in (SweepPaired, SocialScale, RandomTrace)}


def run_unit(wl, main, run, after_call=None) -> dict:
    """Execute one unit: time the program calls, then check their outputs.

    Returns the summed wall time of the program calls, the digest per run
    label, the failures and the bytes the CLI printed and wrote.
    `after_call()`, if given, runs untimed after each program call.
    """
    wall, digests, errors, out_bytes = 0.0, {}, {}, 0
    for label, do, check in wl.runs(main, run):
        t0 = perf_counter()
        try:
            raw = do()
        except Exception as exc:  # a failed run is counted, not fatal
            errors[label] = f"raised {exc!r}"
            continue
        finally:
            wall += perf_counter() - t0
            if after_call is not None:
                after_call()
        try:
            digests[label], nbytes = check(raw)
            out_bytes += nbytes
        except (CheckError, OSError, ValueError, IndexError) as exc:
            errors[label] = f"check failed: {exc}"
    return {"wall_s": wall, "digests": digests, "errors": errors,
            "out_bytes": out_bytes}


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux


class PoolPeaks:
    """Each pool worker's own peak RSS, recorded by the worker as it exits.

    The program's pool forks its workers. An after-fork hook gives each
    worker an exit finaliser that writes the worker's ru_maxrss to a file in
    `folder`; `collect_mb` sums and removes the files written so far.
    """

    def __init__(self, folder: Path):
        self.folder = folder
        folder.mkdir(parents=True, exist_ok=True)
        mp_util.register_after_fork(self, PoolPeaks._in_worker)

    def _in_worker(self) -> None:
        mp_util.Finalize(None, self._write, exitpriority=0)

    def _write(self) -> None:
        (self.folder / str(os.getpid())).write_text(str(_maxrss_kib()))

    def collect_mb(self) -> float:
        kib = 0
        for f in self.folder.iterdir():
            kib += int(f.read_text())
            f.unlink()
        return kib / 1024.0


def measure(wl, seconds: float, probe_argv: list[str], work: Path) -> dict:
    """Repeat the unit for `seconds`, with set-up probes spread over the run.

    The host's speed drifts in phases of seconds, so the probes are started
    between program calls, about evenly in time, so that their median spans
    the same phases as the unit wall times. Each
    probe is a fresh interpreter (probe.py) that runs while this process
    waits, outside the timed program calls.
    """
    t0 = perf_counter()
    avflock = import_avflock()
    import_s = perf_counter() - t0
    peaks = PoolPeaks(work / "rss")
    units, setups, pool_mb = [], [], [0.0]
    start = perf_counter()

    def probe_until(due: int) -> None:
        while len(setups) < due:
            done = subprocess.run(probe_argv, stdout=subprocess.PIPE, text=True,
                                  check=True, timeout=60)
            setups.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])

    def after_call() -> None:
        # one program call runs at most one pool: its workers were concurrent
        pool_mb[0] = max(pool_mb[0], peaks.collect_mb())
        share = (perf_counter() - start) / max(seconds, 1e-9)
        probe_until(min(SETUP_PROBES, 1 + int(SETUP_PROBES * share)))

    probe_until(1)
    while True:
        units.append(run_unit(wl, avflock.cli.main, avflock.engine.run, after_call))
        elapsed = perf_counter() - start
        if elapsed >= seconds or elapsed + units[-1]["wall_s"] > MEASURE_BUDGET_S:
            break
    probe_until(SETUP_PROBES)
    if wl.jobs > 1 and not pool_mb[0]:
        raise RuntimeError("no pool worker peaks arrived (pool not forked?)")
    return {"units": units, "import_s": import_s, "agent_ticks": wl.agent_ticks,
            "peak_rss_mb": _maxrss_kib() / 1024.0 + pool_mb[0],
            "setup_samples_s": setups}


def _layer_metrics(wl, rec, tick_s, reference_s: float, traced: dict,
                   imbalance: list[float]) -> dict:
    c, s, n, tot = rec.calls, rec.self_s, rec.counts, rec.total_s
    cands = n["find_nearmates.candidates"]
    busy = list(rec.busy_by_pid.values())
    tick_ms = [t * 1000.0 for t in tick_s]
    q = statistics.quantiles(tick_ms, n=100, method="inclusive")
    return {
        "core.displace.calls": c["core.displace"],
        "core.displace.self_s": s["core.displace"],
        "core.pair_distance.calls": c["core.pair_distance"],
        "core.pair_distance.self_s": s["core.pair_distance"],
        "agents.social_step.calls": c["agents.social_step"],
        "agents.social_step.self_s": s["agents.social_step"],
        "agents.find_nearmates.self_s": s["agents.find_nearmates"],
        "agents.find_nearmates.candidates": cands,
        "agents.find_nearmates.in_sonar": n["find_nearmates.in_sonar"],
        "agents.find_nearmates.hit_ratio":
            n["find_nearmates.in_sonar"] / cands if cands else 0.0,
        "agents.mirror.calls": c["agents.mirror"],
        "agents.accelerate.calls": c["agents.accelerate"],
        "agents.random_walk_step.calls": c["agents.random_walk_step"],
        "agents.random_walk_step.self_s": s["agents.random_walk_step"],
        "engine.collision_events": n["collision_events"],
        "engine.setup_s": tot["engine.setup"],
        "engine.run.self_s": s["engine.run"],
        "engine.tick.self_s": s["engine.tick"],
        "engine.tick_ms.p50": q[49],
        "engine.tick_ms.p99": q[98],
        "engine.tick_ms.samples": len(tick_ms),
        "engine.grid_rebuild.calls": c["engine.grid_rebuild"],
        "engine.grid_rebuild.self_s": s["engine.grid_rebuild"],
        "engine.grid_candidates.calls": c["engine.grid_candidates"],
        "engine.grid_candidates.self_s": s["engine.grid_candidates"],
        "engine.grid_candidates.mean_len":
            n["grid_candidates.len"] / c["engine.grid_candidates"]
            if c["engine.grid_candidates"] else 0.0,
        "engine.detect_collisions.self_s": s["engine.detect_collisions"],
        "engine.trace.bytes": n["trace.bytes"],
        "engine.trace.write_s": s["engine.trace"],
        "experiments.tasks": n["experiments.tasks"],
        "experiments.worker_busy_s": sum(busy),
        "experiments.pool_overhead_s":
            tot["experiments.run_experiment"] - sum(busy) / wl.jobs if busy else 0.0,
        "experiments.worker_imbalance": max(imbalance, default=0.0),
        "experiments.export_s": tot["experiments.export"],
        "cli.main.self_s": s["cli.main"],
        "cli.output_bytes": traced["out_bytes"],
        "bench.trace_overhead_ratio": traced["wall_s"] / reference_s - 1.0,
    }


def trace(wl, spool: Path) -> dict:
    """Tick-only pass, then one fully traced unit.

    The tick-only pass wraps one call per tick (of 160 to 2000 agent
    updates), so its median unit wall is the untraced reference for
    bench.trace_overhead_ratio; a separate untraced unit would add a whole
    sweep to the traced run's time.
    """
    avflock = import_avflock()
    from tracer import Recorder, patched, targets
    main, run = avflock.cli.main, avflock.engine.run
    spool.mkdir(parents=True, exist_ok=True)

    ticks = Recorder()
    tick_units = []
    with patched(targets(ticks, spool, ticks_only=True)):
        while len(ticks.tick_s) < MIN_TICK_SAMPLES:
            tick_units.append(run_unit(wl, main, run))
            ticks.merge_spool(spool)
            if tick_units[-1]["errors"]:
                break

    rec = Recorder()
    imbalance: list[float] = []
    timed_main = rec.wrap("cli.main", main)

    def traced_main(argv):
        try:
            return timed_main(argv)
        finally:
            busy = list(rec.merge_spool(spool).values())
            if busy:
                imbalance.append(max(busy) / statistics.fmean(busy))

    with patched(targets(rec, spool, ticks_only=False)):
        traced = run_unit(wl, traced_main, rec.wrap("engine.run", run))
    if wl.jobs > 1 and rec.counts["experiments.tasks"] == 0:
        raise RuntimeError("no pool worker spans arrived (pool not forked?)")
    reference_s = statistics.median(u["wall_s"] for u in tick_units)
    metrics = _layer_metrics(wl, rec, ticks.tick_s, reference_s, traced, imbalance)
    return {"units": [*tick_units, traced], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("measure", "trace"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--work", type=Path, required=True,
                    help="directory for output files and worker span files")
    args = ap.parse_args()
    args.work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.work)
    if args.mode == "measure":
        probe_argv = [sys.executable, str(Path(__file__).with_name("probe.py")),
                      "--workload", args.workload, "--seed", str(args.seed),
                      "--work", str(args.work)]
        out = measure(wl, args.seconds, probe_argv, args.work)
    else:
        out = trace(wl, args.work / "spool")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
