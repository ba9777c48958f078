"""avflock benchmark: one command, three workloads, pinned output digests.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep_paired --seed 0 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

  sweep_paired  `avflock sweep --builtin set1`, then set2; 1 replicate,
                --jobs 2, --out CSVs (the paper's experiment, process pool)
  social_scale  one social engine.run, 1000+1000 agents, 100 ticks
  random_trace  `avflock run --scenario random`, 80+80, --trace and --out

With --trace 0 the workload runs untraced in a fresh interpreter for
--seconds, and the end-to-end metrics are printed: wall_s, agent_ticks_per_s,
setup_s, peak_rss_mb. With --trace 1 a separate traced run prints the
per-layer metrics. Either way every run's output is checked (invariants,
determinism across units, and the pinned digests in digests.json when the
seed has them), runs_failed is printed, and the last line of stdout is one
JSON object {"correct", "attempted", "failed", "metrics"}. The exit code is
0 only if every run passed its checks.

This file imports nothing from avflock: set-up is timed in fresh child
interpreters (probe.py), so it includes the import.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweep_paired", "social_scale", "random_trace")
# every child must be done by then, so the command ends within 180 s
DEADLINE_S = 170.0

def host_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": numpy, "cpu": model}


class Child:
    """Runs workload.py in a fresh interpreter under one deadline."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.script = [sys.executable, str(BENCH / "workload.py")]
        self.args = ["--workload", workload, "--seed", str(seed), "--work", str(work)]
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        self.env.pop("AVFLOCK_OUT_DIR", None)

    def __call__(self, mode: str, *extra: str) -> dict:
        # own session, so a timeout can kill the pool workers too
        proc = subprocess.Popen([*self.script, mode, *self.args, *extra],
                                stdout=subprocess.PIPE, env=self.env, cwd=ROOT,
                                start_new_session=True, text=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise RuntimeError(f"workload.py {mode} did not finish in time")
        finally:
            # a crashed child may leave pool workers behind in its session
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        if proc.returncode != 0:
            raise RuntimeError(f"workload.py {mode} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def check_runs(units: list[dict], pinned: dict | None) -> tuple[int, int, list[str]]:
    """Count runs attempted and failed; a run fails if it raised, failed an
    output check, differs from the first unit or differs from the pin."""
    attempted, failed, notes = 0, 0, []
    reference = pinned if pinned is not None else units[0]["digests"]
    for i, unit in enumerate(units):
        labels = set(unit["digests"]) | set(unit["errors"])
        attempted += len(labels)
        for label in sorted(labels):
            if label in unit["errors"]:
                failed += 1
                notes.append(f"unit {i} {label}: {unit['errors'][label]}")
            elif unit["digests"][label] != reference.get(label):
                failed += 1
                notes.append(f"unit {i} {label}: digest {unit['digests'][label]} "
                             f"!= {reference.get(label)}"
                             f" ({'pinned' if pinned is not None else 'unit 0'})")
    return attempted, failed, notes


def end_to_end(child: Child, seconds: int) -> tuple[dict, list[dict], dict]:
    m = child("measure", "--seconds", str(seconds))
    setups = m["setup_samples_s"]
    # the mean, not the median: the host's speed drifts in phases of seconds,
    # and over the run's units the mean was the steadier of the two
    wall = statistics.fmean(u["wall_s"] for u in m["units"])
    metrics = {"wall_s": wall, "agent_ticks_per_s": m["agent_ticks"] / wall,
               "setup_s": statistics.median(setups),
               "peak_rss_mb": m["peak_rss_mb"]}
    info = {"units": len(m["units"]), "import_s": m["import_s"],
            "unit_wall_s": [u["wall_s"] for u in m["units"]],
            "setup_samples_s": setups}
    return metrics, m["units"], info


def main() -> int:
    ap = argparse.ArgumentParser(description="avflock benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "avflock" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'avflock'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units_of = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}
    pins = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))
    pinned = pins["digests"][args.workload].get(str(args.seed))

    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    child = Child(args.workload, args.seed, work, deadline)
    load_before = os.getloadavg()
    try:
        if args.trace:
            t = child("trace")
            metrics, units = t["metrics"], t["units"]
            info = {"tick_only_units": len(units) - 1,
                    "unit_wall_s": [u["wall_s"] for u in units]}
        else:
            metrics, units, info = end_to_end(child, args.seconds)
    except (RuntimeError, ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            work.parent.rmdir()
    if set(metrics) != set(units_of):
        print(f"error: metrics {sorted(set(metrics) ^ set(units_of))} are not "
              "both measured and declared in BENCHMARK.json", file=sys.stderr)
        return 1
    attempted, failed, notes = check_runs(units, pinned)
    info["digests"] = units[0]["digests"]

    print(f"# avflock benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, digests "
          f"{'pinned' if pinned is not None else 'not pinned for this seed'}")
    for name in units_of:
        print(f"{name:<36} {metrics[name]:>16.6g} {units_of[name]}")
    print(f"{'runs_failed':<36} {failed:>16d} count (of {attempted} runs)")
    for note in notes:
        print(f"# FAILED {note}")
    host = host_facts()
    host["loadavg_before"] = load_before
    host["loadavg_after"] = os.getloadavg()
    print("# host " + json.dumps(host))
    print("# info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units_of.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
