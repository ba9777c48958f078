"""In-memory span recorder for the traced benchmark passes.

The program's source is never edited. Instead, `patched(targets(...))`
replaces the module attributes the program looks up at run time (engine.tick,
agents.find_nearmates, ...) with wrappers that count calls and accumulate
total and self time per layer name. Self time is a span's duration minus the
time its child spans cover. Pool workers inherit the wrappers through fork; each task's spans are
written to a spool directory by the worker and merged by the parent.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace


class Recorder:
    """Counters and span times of one process, keyed by layer name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.busy_by_pid: dict[str, float] = defaultdict(float)
        self.tick_s: list[float] = []
        # child-time accumulators of the open spans; [0] is the root
        self._stack = [0.0]

    def reset(self) -> None:
        # clear in place: wrappers hold references to these containers
        for d in (self.calls, self.total_s, self.self_s, self.counts,
                  self.busy_by_pid):
            d.clear()
        self.tick_s.clear()
        del self._stack[1:]
        self._stack[0] = 0.0

    def wrap(self, name: str, fn, count=None, samples: list | None = None):
        """Return `fn` wrapped in a span called `name`.

        `count(counts, args, result)` updates derived counters after the call;
        `samples` receives each call's duration in seconds.
        """
        calls, total, selfs, stack = self.calls, self.total_s, self.self_s, self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[name] += 1
                total[name] += dt
                selfs[name] += dt - inner
                if samples is not None:
                    samples.append(dt)
            if count is not None:
                count(counts, args, out)
            return out

        return wrapper

    def to_dict(self) -> dict:
        return {"calls": dict(self.calls), "total_s": dict(self.total_s),
                "self_s": dict(self.self_s), "counts": dict(self.counts),
                "busy_by_pid": dict(self.busy_by_pid), "tick_s": list(self.tick_s)}

    def merge(self, d: dict) -> None:
        for key in ("calls", "total_s", "self_s", "counts", "busy_by_pid"):
            mine = getattr(self, key)
            for name, v in d[key].items():
                mine[name] += v
        self.tick_s.extend(d["tick_s"])

    def merge_spool(self, spool: Path) -> dict[str, float]:
        """Fold in every span file the pool workers wrote, then delete them.

        Returns the busy seconds per worker of the merged files.
        """
        busy: dict[str, float] = defaultdict(float)
        for f in sorted(spool.glob("*.json")):
            d = json.loads(f.read_text(encoding="utf-8"))
            self.merge(d)
            for pid, v in d["busy_by_pid"].items():
                busy[pid] += v
            f.unlink()
        return busy


def _count_nearmates(counts, args, view) -> None:
    cands = args[3] if len(args) > 3 else None
    n = len(args[1].agents) if cands is None else len(cands)
    counts["find_nearmates.candidates"] += n - 1  # the agent itself is skipped
    counts["find_nearmates.in_sonar"] += len(view.nearmates)


def _count_len(key):
    def count(counts, args, out) -> None:
        counts[key] += len(out)
    return count


def _count_events(counts, args, added) -> None:
    counts["collision_events"] += added


def _count_text(counts, args, n) -> None:
    counts["trace.bytes"] += len(args[0].encode("utf-8"))


@contextmanager
def patched(targets):
    """Set (object, attribute, value) triples; restore the originals on exit."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in targets]
    try:
        for obj, attr, value in targets:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _run_span(rec: Recorder, fn, spool: Path, owner_pid: int):
    """Span around engine.run as the CLI and the sweep tasks call it.

    A trace stream argument is replaced by a timed proxy. In a pool worker
    the task span is the root: the worker's recorder (a fork-time copy of the
    parent's) is cleared before the task and written to the spool after it.
    """
    timed_run = rec.wrap("engine.run", fn)
    seq = [0]

    def run(params, seed=None, trace=None):
        if trace is not None:
            trace = SimpleNamespace(write=rec.wrap("engine.trace", trace.write,
                                                   count=_count_text))
        if os.getpid() == owner_pid:
            return timed_run(params, seed, trace)
        rec.reset()
        t0 = perf_counter()
        try:
            return timed_run(params, seed, trace)
        finally:
            pid = os.getpid()
            rec.busy_by_pid[str(pid)] += perf_counter() - t0
            rec.counts["experiments.tasks"] += 1
            seq[0] += 1
            path = spool / f"{pid}-{seq[0]}.json"
            path.write_text(json.dumps(rec.to_dict()), encoding="utf-8")
            rec.reset()

    return run


def targets(rec: Recorder, spool: Path, ticks_only: bool):
    """The attributes to patch for one traced pass.

    With `ticks_only`, only engine.tick is timed (plus the task span that
    ships worker data), so tick durations are not inflated by leaf wrappers.
    """
    from avflock import agents, cli, engine, experiments

    owner = os.getpid()
    out = [(engine, "tick", rec.wrap("engine.tick", engine.tick, samples=rec.tick_s)),
           (experiments, "run", _run_span(rec, experiments.run, spool, owner))]
    if ticks_only:
        return out
    grid = engine.SpatialGrid
    out += [
        (cli, "run", _run_span(rec, cli.run, spool, owner)),
        (cli, "run_experiment",
         rec.wrap("experiments.run_experiment", cli.run_experiment)),
        (cli, "export_csv", rec.wrap("experiments.export", cli.export_csv)),
        (engine, "setup", rec.wrap("engine.setup", engine.setup)),
        (engine, "social_step", rec.wrap("agents.social_step", engine.social_step)),
        (engine, "random_walk_step",
         rec.wrap("agents.random_walk_step", engine.random_walk_step)),
        (engine, "displace", rec.wrap("core.displace", engine.displace)),
        (engine, "detect_collisions",
         rec.wrap("engine.detect_collisions", engine.detect_collisions,
                  count=_count_events)),
        (engine, "torus_distance_xy",
         rec.wrap("core.pair_distance", engine.torus_distance_xy)),
        (grid, "rebuild", rec.wrap("engine.grid_rebuild", grid.rebuild)),
        (grid, "candidates",
         rec.wrap("engine.grid_candidates", grid.candidates,
                  count=_count_len("grid_candidates.len"))),
        (agents, "find_nearmates",
         rec.wrap("agents.find_nearmates", agents.find_nearmates,
                  count=_count_nearmates)),
        (agents, "mirror", rec.wrap("agents.mirror", agents.mirror)),
        (agents, "accelerate", rec.wrap("agents.accelerate", agents.accelerate)),
        (agents, "torus_distance_xy",
         rec.wrap("core.pair_distance", agents.torus_distance_xy)),
    ]
    return out
