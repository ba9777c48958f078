"""Command-line surface: single runs, sweeps, scenario comparison, and
relative-position trajectory dumps.

The CLI is a thin shell over the library; it owns flag parsing, exit codes
(0 ok, 2 usage error, 1 runtime failure) and file emission only; the fields of
SimParams, ExperimentSpec and RichardsonParams define the settings' flags.
Data files carry no timestamps, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from dataclasses import fields, replace
from enum import Enum

from . import __version__
from .core import Scenario, SimParams, from_text, text_names, typed_fields
from .engine import run
from .experiments import (ExperimentSpec, builtin_set, efficiency, export_csv,
                          load_spec, run_experiment)
from .richardson import PairState, RichardsonParams, fixed_point, simulate, stability


def _flag_type(f, kind):
    """The argparse `type` of field `f`'s flag: the spec-file parser, with
    its message for a bad value."""
    def parse(text: str):
        try:
            return from_text(f, kind, text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _flag(f) -> str:
    """Field `f`'s flag: its `flag` metadata, else `--field-name`."""
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


def _add_param_flags(parser: argparse.ArgumentParser, title: str, cls: type,
                     exclude=()) -> None:
    """A group `title` of one flag per field of dataclass `cls` not in `exclude`.

    Flags default to SUPPRESS, so the parsed namespace holds only the values
    the user gave (`_given`) and `cls` supplies the rest.
    """
    g = parser.add_argument_group(title, argument_default=argparse.SUPPRESS)
    for f, kind in typed_fields(cls):
        if f.name in exclude:
            continue
        flag, help_text = _flag(f), f.metadata.get("help")
        if kind is bool:
            g.add_argument(flag, dest=f.name, action="store_true", help=help_text)
            continue
        metavar, default = kind.__name__.upper(), f.default
        if issubclass(kind, Enum):
            names = text_names(f, kind)
            metavar = "{" + ",".join(sorted(names)) + "}"
            default = next(n for n, m in names.items() if m is f.default)
        g.add_argument(flag, dest=f.name, type=_flag_type(f, kind), metavar=metavar,
                       help=f"{help_text or ''} (default {default})".lstrip())


def _given(args, cls: type) -> dict:
    """{field: value} of the `cls` fields whose flags the user gave."""
    return {f.name: getattr(args, f.name) for f in fields(cls) if f.name in args}


def _default_jobs() -> int:
    """One process per CPU this process may run on: one pinned by taskset or a
    cpuset may use fewer than the machine has."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _jobs(text: str) -> int:
    """The --jobs process count: an int of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an int >= 1, got {text!r}")
    return int(text)


@contextlib.contextmanager
def _outputs(outputs: dict, inputs: dict | None = None):
    """Own a command's output files, {flag: path or None}; yield {flag: path}
    of those given, relative ones under AVFLOCK_OUT_DIR. Two flags on one
    file (`inputs` are the files it reads) and an output that cannot be
    opened are usage errors before any work. A failed body leaves no new file.
    """
    base = os.environ.get("AVFLOCK_OUT_DIR", "")  # an absolute path ignores it
    paths = {flag: os.path.join(base, path) for flag, path in outputs.items() if path}
    named = [*paths.items(), *((flag, path) for flag, path
                               in (inputs or {}).items() if path)]
    # two handles on one file would each truncate it, and the last to flush
    # would silently win
    for (a, path_a), (b, path_b) in itertools.combinations(named, 2):
        if os.path.realpath(path_a) == os.path.realpath(path_b):
            clash = (f"and {b} name the same file" if b in outputs
                     else f"names the {b} file")
            raise ValueError(f"{a} {clash}: {outputs[a]}")
    new = [path for path in paths.values() if not os.path.exists(path)]
    try:
        for path in paths.values():
            try:  # "a" keeps an existing file's bytes
                open(path, "a").close()
            except OSError as exc:  # any bad path, a directory as a missing one
                raise ValueError(exc) from None
        yield paths
    except BaseException:
        for path in new:
            if os.path.exists(path):  # else the probe stopped before it
                os.remove(path)
        raise


def _create(path: str):
    """An output, truncated and open for writing, as `export_csv` opens one."""
    return open(path, "w", encoding="utf-8", newline="")


def cmd_run(args) -> int:
    params = SimParams.from_given(_given(args, SimParams))
    with _outputs({"--out": args.out, "--trace": args.trace}) as paths:
        # only the trace streams; --out is written once the run has succeeded
        trace = _create(paths["--trace"]) if args.trace else contextlib.nullcontext()
        with trace as trace_fh:
            result = run(params, params.seed, trace=trace_fh)
        red, black = result.per_team_collisions
        print(f"total collisions: {result.total_collisions} "
              f"(red {red}, black {black}) over {params.ticks} ticks, "
              f"scenario {params.scenario.value}, seed {result.seed}")
        if args.out:
            with _create(paths["--out"]) as fh:
                fh.write(f"# avflock {__version__}\n")
                fh.write("tick,collisions\n")
                for t, c in enumerate(result.collisions_per_tick, start=1):
                    fh.write(f"{t},{c}\n")
            print(f"per-tick collisions written to {fh.name}")
    return 0


def _print_rows(rows) -> None:
    print(f"{'set':<8}{'config':<8}{'scenario':<14}{'red':>5}{'black':>7}"
          f"{'reps':>6}{'mean':>12}{'stdev':>10}")
    for r in rows:
        print(f"{r.set_name:<8}{r.config_id:<8}{r.scenario.value:<14}"
              f"{r.params.n_red:>5}{r.params.n_black:>7}{r.n:>6}"
              f"{r.mean_collisions:>12.2f}{r.stdev_collisions:>10.2f}")


def cmd_sweep(args) -> int:
    if args.builtin:
        spec = builtin_set(args.builtin, **_given(args, SimParams))  # --ticks
    else:
        # a spec file sets its own settings; only --batches overrides one
        for f in (*fields(ExperimentSpec), *fields(SimParams)):
            if f.name in args and f.name != "batches":
                raise ValueError(f"{_flag(f)} applies to --builtin only; "
                                 "set it in the spec file instead")
        try:
            spec = load_spec(args.spec)
        except OSError as exc:  # missing, a directory or unreadable: a usage error
            raise ValueError(exc) from None
    spec = replace(spec, **_given(args, ExperimentSpec))
    with _outputs({"--out": args.out}, {"--spec": args.spec}) as paths:
        rows = run_experiment(spec, jobs=args.jobs)
        _print_rows(rows)
        if args.out:
            export_csv(rows, paths["--out"])
            print(f"summary written to {paths['--out']}")
    return 0


def cmd_compare(args) -> int:
    social = SimParams.from_given(_given(args, SimParams))  # no --scenario: social
    rnd = replace(social, scenario=Scenario.RANDOM_WALK)
    spec = ExperimentSpec("compare", (social, rnd), **_given(args, ExperimentSpec))
    s, r = run_experiment(spec, jobs=args.jobs)  # social first
    print(f"configuration: {social.n_red} red + {social.n_black} black, "
          f"{social.ticks} ticks, {spec.repetitions} paired replicates")
    for row in (s, r):
        print(f"{row.scenario.value:<13}: mean {row.mean_collisions:.2f}  "
              f"stdev {row.stdev_collisions:.2f}  (n={row.n})")
    if r.mean_collisions > 0:
        eff = efficiency(r.mean_collisions, s.mean_collisions)
        print(f"efficiency: social agents cause {eff:.2f} % fewer collisions "
              f"than the random walk")
    else:
        print("efficiency: undefined (random-walk mean is 0)")
    return 0


def cmd_richardson(args) -> int:
    params = RichardsonParams(**_given(args, RichardsonParams))
    with _outputs({"--out": args.out}) as paths:
        trajectory = simulate(PairState(args.v1, args.v2), params, args.steps)
        lines = [f"# avflock {__version__}", "step,v1,v2"]
        lines += [f"{i},{s.v1!r},{s.v2!r}" for i, s in enumerate(trajectory)]
        text = "\n".join(lines) + "\n"
        if args.out:
            with _create(paths["--out"]) as fh:
                fh.write(text)
            print(f"trajectory written to {fh.name}")
        else:
            sys.stdout.write(text)
    report = stability(params)
    print(f"stability: {report.kind.value} (spectral radius {report.spectral_radius!r})")
    fp = fixed_point(params)
    if fp is None:
        print("fixed point: none (I - M is singular)")
    else:
        print(f"fixed point: v1={fp.v1!r} v2={fp.v2!r}")
    return 0


def cmd_version(args) -> int:
    print(f"avflock {__version__}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avflock",
        description="Social collision avoidance for autonomous vehicles in "
                    "flock-like traffic: simulator, baseline, sweep harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one simulation run")
    _add_param_flags(p_run, "simulation parameters", SimParams)
    p_run.add_argument("--out", metavar="CSV", help="write per-tick collision counts")
    p_run.add_argument("--trace", metavar="PATH",
                       help="write a per-agent per-tick trace log")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run an experiment sweep")
    which = p_sweep.add_mutually_exclusive_group(required=True)
    which.add_argument("--builtin", choices=("set1", "set2"),
                       help="one of the benchmark sweeps")
    which.add_argument("--spec", metavar="FILE",
                       help="custom experiment file (INI schema, see README); it sets "
                            "--reps, --base-seed, --ticks and, unless given, --batches")
    p_sweep.add_argument("--out", metavar="CSV", help="write the summary table")
    _add_param_flags(p_sweep, "experiment settings", ExperimentSpec,
                     exclude=("name", "configurations"))
    _add_param_flags(p_sweep, "simulation parameters", SimParams,
                     exclude={f.name for f in fields(SimParams)} - {"ticks"})
    p_sweep.add_argument("--jobs", type=_jobs, default=_default_jobs(),
                         help="processes that run simulations, this one included "
                              "(default: one per CPU this process may use)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="run both scenarios paired and report efficiency")
    _add_param_flags(p_cmp, "simulation parameters", SimParams,
                     exclude=("seed", "scenario"))
    _add_param_flags(p_cmp, "experiment settings", ExperimentSpec,
                     exclude=("name", "configurations", "batches"))
    p_cmp.add_argument("--jobs", type=_jobs, default=_default_jobs())
    p_cmp.set_defaults(func=cmd_compare)

    p_rich = sub.add_parser(
        "richardson",
        help="dump a trajectory of the two-vehicle relative-position dynamics")
    _add_param_flags(p_rich, "coefficients", RichardsonParams)
    p_rich.add_argument("--v1", type=float, default=1.0, help="initial v1")
    p_rich.add_argument("--v2", type=float, default=0.0, help="initial v2")
    p_rich.add_argument("--steps", type=int, default=20)
    p_rich.add_argument("--out", metavar="CSV")
    p_rich.set_defaults(func=cmd_richardson)

    p_ver = sub.add_parser("version", help="print the version")
    p_ver.set_defaults(func=cmd_version)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
