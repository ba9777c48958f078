"""Batch experiment harness: parameter sweeps with paired seeding.

A sweep executes `repetitions` runs per configuration and reports the mean
and sample standard deviation of the total collision count. Configurations
that differ only in scenario share a seed group, and replicate k of seed
group j runs with seed = base_seed + j * repetitions + k, so both scenarios
replay the same seeds. They share only the spawn positions, though: over
seeds 1000-1015 the two scenarios' totals correlate -0.23 to +0.32, and
their paired differences are no tighter than unpaired ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from . import __version__
from .core import (Scenario, SimParams, _check_seed, check_fields, from_text,
                   typed_fields)
from .engine import run

_CSV_HEADER = ("set,config_id,scenario,n_red,n_black,min_vel,max_vel,"
               "max_accel,decel,safety,sonar,ticks,reps,"
               "mean_collisions,stdev_collisions")

_POPULATIONS = (40, 50, 60, 70, 80)


@dataclass(frozen=True)
class ExperimentSpec:
    """A named sweep: configurations, replicate count, and seed schedule.

    `batches` repeats the whole sweep as independent replicate batches,
    each reported as its own summary row (seed-shifted so no seed repeats).
    The schema of a sweep's settings, as SimParams is of a run's: the [experiment]
    keys and the `sweep`/`compare` flags derive from it; `core.check_fields` checks it.
    """

    name: str
    configurations: tuple[SimParams, ...]
    repetitions: int = field(default=8, metadata={
        "flag": "--reps", "help": "replicates per configuration"})
    base_seed: int = field(default=1000, metadata={"help": "first seed"})
    batches: int = field(default=1, metadata={
        "help": "independent replicate batches, one row each per configuration"})

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.configurations:
            raise ValueError("an experiment needs at least one configuration")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.batches < 1:
            raise ValueError("batches must be >= 1")
        _check_seed(self.base_seed, "base_seed")
        # the name is a field of every summary CSV row, written unquoted
        if any(c in self.name for c in ',"\r\n'):
            raise ValueError("name must not contain a comma, a quote or a line "
                             f"break, got {self.name!r}")
        # identical configurations would give indistinguishable rows
        first: dict[SimParams, int] = {}
        for i, params in enumerate(self.configurations):
            if first.setdefault(params, i) != i:
                raise ValueError(f"configurations {first[params]} and {i} are identical")


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate of the replicates of one (configuration, scenario, batch)."""

    set_name: str
    config_id: int
    scenario: Scenario
    params: SimParams
    n: int
    mean_collisions: float
    stdev_collisions: float
    batch: int = 0


def seed_groups(spec: ExperimentSpec) -> list[int]:
    """Seed-group index per configuration; scenario is ignored for grouping
    so paired scenarios replay identical seeds."""
    groups: dict[SimParams, int] = {}
    return [groups.setdefault(replace(p, scenario=Scenario.ALL_SOCIAL_AVS), len(groups))
            for p in spec.configurations]


def _seed(spec: ExperimentSpec, n_groups: int, group: int, rep: int, batch: int) -> int:
    return spec.base_seed + (batch * n_groups + group) * spec.repetitions + rep


def _run_total(task: tuple[SimParams, int, int]) -> int:
    params, seed, config_id = task
    try:
        return run(params, seed).total_collisions
    except Exception as exc:
        try:
            annotated = type(exc)(f"configuration {config_id}: {exc}")
        except TypeError:
            annotated = RuntimeError(f"configuration {config_id}: {exc}")
        raise annotated from exc


def _largest_first(tasks: list[tuple[SimParams, int, int]]) -> list[int]:
    """Task indices by descending agent-ticks, ties in task order.

    Claiming the longest runs first keeps a long run from starting last
    and leaving the other processes idle at the end of the sweep.
    """
    cost = [(p.n_red + p.n_black) * p.ticks for p, _, _ in tasks]
    return sorted(range(len(tasks)), key=lambda t: -cost[t])


_counter = None  # a pool worker's handle on the shared next-claim index


def _share(counter) -> None:
    global _counter
    _counter = counter


def _drain(tasks, order: list[int], counter=None) -> dict[int, int]:
    """Run `tasks[order[k]]` for each k this process claims from the shared
    counter, until none is left; return {task index: total} of those runs. A
    run that raises sets the counter past the end: no process starts another."""
    counter = _counter if counter is None else counter
    totals = {}
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= len(order):
            return totals
        try:
            totals[order[k]] = _run_total(tasks[order[k]])
        except BaseException:
            counter.value = len(order)
            raise


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> list[SummaryRow]:
    """Execute the sweep and aggregate each configuration's replicates.

    `jobs` > 1 runs it in that many processes, this one included, but no more
    than there are runs; each claims the largest run left until none is.
    Rows come in (seed group, scenario, batch) order, decided before any run
    starts: any job count gives the same.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    groups = seed_groups(spec)
    n_groups = max(groups) + 1
    configs, reps = spec.configurations, spec.repetitions
    # (configuration index, batch) per row, in row order: each row's
    # replicates are then one consecutive slice of the tasks
    cells = sorted(((ci, b) for ci in range(len(configs)) for b in range(spec.batches)),
                   key=lambda c: (groups[c[0]], configs[c[0]].scenario.value, c[1]))
    tasks = [(configs[ci], _seed(spec, n_groups, groups[ci], k, b), groups[ci])
             for ci, b in cells for k in range(reps)]

    workers = min(jobs, len(tasks)) - 1
    if workers:
        # imported here: the pool stack (multiprocessing, pickle, socket,
        # logging) would otherwise load on every `import avflock`
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        from multiprocessing import Value

        order = _largest_first(tasks)
        counter = Value("i", 0)  # inherited by the workers: it cannot be pickled

        def stop_if_failed(future) -> None:  # a worker raised or died
            if future.exception() is not None:
                counter.value = len(order)

        try:
            with ProcessPoolExecutor(workers, initializer=_share,
                                     initargs=(counter,)) as pool:
                futures = [pool.submit(_drain, tasks, order) for _ in range(workers)]
                for future in futures:
                    future.add_done_callback(stop_if_failed)
                totals = _drain(tasks, order, counter)
                for future in futures:
                    totals.update(future.result())
        except BrokenProcessPool as exc:
            raise ChildProcessError(f"a sweep worker process died: {exc}") from exc
    else:
        totals = list(map(_run_total, tasks))

    import statistics  # pulls in decimal and fractions; only sweeps need it

    rows = []
    for c, (ci, b) in enumerate(cells):
        samples = [totals[t] for t in range(c * reps, (c + 1) * reps)]
        mean = float(statistics.mean(samples))
        stdev = float(statistics.stdev(samples)) if reps > 1 else 0.0
        rows.append(SummaryRow(
            set_name=spec.name,
            config_id=groups[ci],
            scenario=configs[ci].scenario,
            params=configs[ci],
            n=reps,
            mean_collisions=mean,
            stdev_collisions=stdev,
            batch=b,
        ))
    return rows


def efficiency(random_mean: float, social_mean: float) -> float:
    """Percent reduction of the social mean relative to the random-walk mean."""
    if random_mean <= 0:
        raise ValueError(f"random-walk mean must be positive, got {random_mean}")
    return 100.0 * (1.0 - social_mean / random_mean)


def builtin_set(which: str, ticks: int = SimParams.ticks,
                repetitions: int = ExperimentSpec.repetitions,
                base_seed: int = ExperimentSpec.base_seed) -> ExperimentSpec:
    """The two benchmark sweeps over populations of 40..80 per team.

    "set1" runs the slow profile (velocity pinned to 0.3, deceleration 0.1),
    "set2" the fast one (velocity 0.5-0.9, deceleration 0.3); both use
    safety distance 1 and sonar range 2.5, and pair both scenarios per
    population.
    """
    which = which.lower()
    if which == "set1":
        sliders = dict(min_velocity=0.3, max_velocity=0.3, deceleration=0.1)
    elif which == "set2":
        sliders = dict(min_velocity=0.5, max_velocity=0.9, deceleration=0.3)
    else:
        raise ValueError(f"unknown builtin set {which!r} (expected set1 or set2)")
    configs = []
    for pop in _POPULATIONS:
        for scenario in (Scenario.ALL_SOCIAL_AVS, Scenario.RANDOM_WALK):
            configs.append(SimParams(
                n_red=pop, n_black=pop,
                max_acceleration=0.1,
                min_safety_distance=1.0, sonar_range=2.5,
                scenario=scenario, ticks=ticks,
                **sliders,
            ))
    return ExperimentSpec(name=which, configurations=tuple(configs),
                          repetitions=repetitions, base_seed=base_seed)


def load_spec(path: str) -> ExperimentSpec:
    """Read an ExperimentSpec from an INI-style file (schema in README).

    One [experiment] section whose keys are ExperimentSpec fields other than
    `configurations` and one section per configuration whose keys are
    SimParams fields other than `seed`; `scenario` accepts social, random,
    or both (the default: a paired pair).
    """
    import configparser  # only spec files need the INI parser

    parser = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
        sections = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:  # malformed INI or interpolation: a usage error
        raise ValueError(f"{path}: {exc}") from exc
    settings = {"name": "custom"}
    section_of: dict[SimParams, str] = {}  # each configuration, in file order
    for section, items in sections.items():
        if section == "experiment":
            settings.update(_parse_section(section, items, ExperimentSpec,
                                           exclude="configurations"))
            continue
        if "seed" in items:
            raise ValueError(f"[{section}] seed is set per replicate by the "
                             "seed schedule; set [experiment] base_seed instead")
        paired = items.get("scenario", "both") == "both"
        if paired:  # the pair's social half; its random half is derived below
            items["scenario"] = "social"
        params = SimParams.from_given(_parse_section(section, items, SimParams,
                                                     exclude="seed"))
        configs = [params]
        if paired:
            configs.append(replace(params, scenario=Scenario.RANDOM_WALK))
        for params in configs:
            if params in section_of:
                raise ValueError(f"{path}: [{section_of[params]}] and [{section}] "
                                 "are identical configurations")
            section_of[params] = section
    return ExperimentSpec(configurations=tuple(section_of), **settings)


def _parse_section(section: str, items, cls: type, exclude: str) -> dict:
    """A spec section's values, each parsed by the type of the `cls` field
    it names; a key naming no field, or naming `exclude`, is an error."""
    schema = {f.name: (f, kind) for f, kind in typed_fields(cls) if f.name != exclude}
    values = {}
    for key, text in items.items():
        if key not in schema:
            raise ValueError(f"[{section}] unknown parameter {key!r}")
        try:
            values[key] = from_text(*schema[key], text)
        except ValueError as exc:
            raise ValueError(f"[{section}] {exc}") from None
    return values


def data_text(header: str, rows) -> str:
    """Every data file's text: the version line, `header`, then a line per row."""
    return "\n".join((f"# avflock {__version__}", header, *rows)) + "\n"


def create(path: str):
    """An output file (a data file or a trace), truncated and open for writing."""
    return open(path, "w", encoding="utf-8", newline="")


def format_rows(rows: list[SummaryRow]) -> str:
    """Render summary rows as CSV text (deterministic bytes)."""
    lines = []
    for r in rows:
        p = r.params
        lines.append(
            f"{r.set_name},{r.config_id},{r.scenario.value},"
            f"{p.n_red},{p.n_black},{p.min_velocity!r},{p.max_velocity!r},"
            f"{p.max_acceleration!r},{p.deceleration!r},"
            f"{p.min_safety_distance!r},{p.sonar_range!r},{p.ticks},{r.n},"
            f"{r.mean_collisions!r},{r.stdev_collisions!r}")
    return data_text(_CSV_HEADER, lines)


def export_csv(rows: list[SummaryRow], path: str) -> None:
    """Write summary rows to `path`; reruns of the same spec are byte-identical."""
    text = format_rows(rows)
    with create(path) as fh:
        fh.write(text)
