"""A table of hand-made mutants of `src/` and a runner that re-runs them.

Each mutant replaces one exact snippet of a source file, which must occur
there exactly once, and names the test node ids expected to kill it. A
mutant that is expected to live carries a note that starts "survives:"
(no test kills it, and why that is accepted) or "equivalent:" (no
program behaves differently, and why). A note that starts "racy:" marks
a mutant whose killers catch it only when processes interleave one way,
so either outcome is expected.

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only these

The runner copies `src/`, `tests/`, `pyproject.toml` and `README.md` to a
temporary directory, checks that every node id named in the table passes
there unmutated, then applies each mutant in turn to a fresh copy and
runs only its node ids. It prints one line per mutant and exits 1 when a
mutant expected to die survives, when one noted "survives:" or
"equivalent:" is killed, or when a run errs. It is not part of the tier-1 suite;
`tests/test_mutants.py` checks there that the table still matches `src/`.
A change that adds mutants adds them here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FUSED = "tests/test_fused.py::"
POSITIONS = ("tests/test_engine.py::TestTick::"
             "test_position_off_the_torus_names_the_agent")
PARTNERS = ("tests/test_engine.py::TestSpatialGrid::"
            "test_partners_list_each_adjacent_pair_once")
CLAIMS = "tests/test_experiments.py::TestSharedClaims::"
CLI = "tests/test_cli.py::"
CHECK_FIELDS = "tests/test_core.py::test_check_fields_names_the_field"
GOLDEN = "tests/test_golden.py::"
WRAP = FUSED + "test_moves_wrap_a_rounding_to_the_far_edge"


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in `file`
    replacement: str
    killers: tuple[str, ...]  # test node ids, relative to the root
    note: str = ""  # "survives: ...", "equivalent: ..." or "racy: ...", with the reason


MUTANTS = (
    Mutant(
        "scan_without_rebuild", "src/avflock/engine.py",
        "        self.rebuild(xs, ys)\n", "",
        (FUSED + "test_scan_buckets_the_positions_it_is_given",
         FUSED + "test_fused_pass_equals_brute_force")),
    Mutant(
        "static_cache_without_rebuild", "src/avflock/engine.py",
        "        grid.rebuild(xs, ys)\n", "",
        (FUSED + "test_static_cache_buckets_its_own_grid",
         FUSED + "test_static_cache_flock_crosses_half_both_ways")),
    Mutant(
        "source_compares_x_only", "src/avflock/engine.py",
        "        if xs != self.xs or ys != self.ys:\n",
        "        if xs != self.xs:\n",
        (FUSED + "test_source_holds_state_only_where_the_last_tick_left_the_agents",
         FUSED + "test_static_cache_follows_caller_edits[stop_at_top]")),
    Mutant(
        "source_keeps_a_moved_list", "src/avflock/engine.py",
        "            self.held = None\n"
        "            return False\n",
        "            return False\n",
        (FUSED + "test_source_holds_state_only_where_the_last_tick_left_the_agents",
         FUSED + "test_list_follows_caller_edits[move]")),
    Mutant(
        "held_list_reused_as_the_cache", "src/avflock/engine.py",
        "            if not isinstance(held, StaticCache):\n",
        "            if held is None:\n",
        (FUSED + "test_source_drops_the_state_of_the_others",
         FUSED + "test_list_hands_over_to_the_cache_and_back")),
    Mutant(
        "grid_keeps_the_list", "src/avflock/engine.py",
        "            self.held = None\n"
        "            return self.grid.scan(xs, ys, radius, cut)\n",
        "            return self.grid.scan(xs, ys, radius, cut)\n",
        (FUSED + "test_source_drops_the_state_of_the_others",)),
    Mutant(
        "random_move_skips_snapshot_y", "src/avflock/engine.py",
        "            a.y = ys[i] = y\n", "            a.y = y\n",
        (FUSED + "test_fused_tick_equals_oracle_after_every_tick[plain]",)),
    Mutant(
        "social_move_skips_snapshot_x", "src/avflock/engine.py",
        "        a.x = xs[i] = 0.0 if x >= w else x\n",
        "        a.x = 0.0 if x >= w else x\n",
        (FUSED + "test_fused_tick_equals_oracle_after_every_tick[plain]",)),
    Mutant(
        "far_below_the_reach", "src/avflock/engine.py",
        "    far = max(radius, cut)\n",
        "    far = max(radius, cut) * (1.0 - 1e-9)\n",
        (FUSED + "test_fused_pass_equals_brute_force",
         FUSED + "test_list_exact_ties",
         FUSED + "test_static_cache_exact_ties_and_cut")),
    Mutant(
        "grid_without_rounding_allowance", "src/avflock/engine.py",
        "        wide = cell_size + self.ulp\n",
        "        wide = cell_size\n",
        (FUSED + "test_fused_pass_equals_brute_force",)),
    Mutant(
        "scale_not_lowered", "src/avflock/engine.py",
        "    while math.nextafter(side, 0.0) * scale >= n:\n"
        "        scale = math.nextafter(scale, 0.0)\n", "",
        ("tests/test_engine.py::TestSpatialGrid::"
         "test_last_position_keys_to_the_last_cell",
         FUSED + "test_fused_pass_equals_brute_force")),
    Mutant(
        "measure_radius_inclusive", "src/avflock/engine.py",
        "            if d < radius:\n", "            if d <= radius:\n",
        (FUSED + "test_fused_pass_equals_brute_force",
         FUSED + "test_list_exact_ties",
         FUSED + "test_static_cache_exact_ties_and_cut")),
    Mutant(
        "measure_cut_strict", "src/avflock/engine.py",
        "            if d <= cut:\n", "            if d < cut:\n",
        (FUSED + "test_fused_pass_equals_brute_force",
         FUSED + "test_list_exact_ties",
         FUSED + "test_static_cache_exact_ties_and_cut")),
    Mutant(
        "measure_tie_to_the_first_seen_at_i", "src/avflock/engine.py",
        "                if d < best[i] or (d == best[i] and j < near[i]):\n",
        "                if d < best[i]:\n",
        (FUSED + "test_fused_pass_equals_brute_force",
         FUSED + "test_list_exact_ties",
         FUSED + "test_static_cache_exact_ties_and_cut")),
    Mutant(
        "measure_tie_to_the_first_seen_at_j", "src/avflock/engine.py",
        "                if d < best[j] or (d == best[j] and i < near[j]):\n",
        "                if d < best[j]:\n",
        (FUSED + "test_fused_pass_equals_brute_force",
         FUSED + "test_list_exact_ties",
         FUSED + "test_static_cache_exact_ties_and_cut")),
    Mutant(
        "around_interior_strict_lower_bound", "src/avflock/engine.py",
        "            # no key passes on a grid with fewer than 3 cells on an axis\n"
        "            if ny <= key < last_x and 0 < key % ny < last_y:\n",
        "            # no key passes on a grid with fewer than 3 cells on an axis\n"
        "            if ny < key < last_x and 0 < key % ny < last_y:\n",
        ("tests/test_engine.py::TestSpatialGrid::test_around_lists_each_wrapped_block_once",
         FUSED + "test_tiny_grid_case_has_fewer_than_three_cells_on_an_axis"),
        "equivalent: key == ny is row 0 of column 1, and key % ny == 0 "
        "already fails the row test"),
    Mutant(
        "around_interior_inclusive_upper_bound", "src/avflock/engine.py",
        "            # no key passes on a grid with fewer than 3 cells on an axis\n"
        "            if ny <= key < last_x and 0 < key % ny < last_y:\n",
        "            # no key passes on a grid with fewer than 3 cells on an axis\n"
        "            if ny <= key <= last_x and 0 < key % ny < last_y:\n",
        ("tests/test_engine.py::TestSpatialGrid::test_around_lists_each_wrapped_block_once",
         FUSED + "test_tiny_grid_case_has_fewer_than_three_cells_on_an_axis"),
        "equivalent: key == last_x = (nx - 1) * ny is row 0 of the last column, "
        "and key % ny == 0 already fails the row test"),
    Mutant(
        "cache_thaws_without_the_guard", "src/avflock/engine.py",
        "        if thaw:  # on most ticks no agent thaws and none freezes\n"
        "            for i, block in zip(thaw, g.around([cells[i] for i in thaw])):\n"
        "                self._unlink(i, block, dirty)\n",
        "        for i, block in zip(thaw, g.around([cells[i] for i in thaw])):\n"
        "            self._unlink(i, block, dirty)\n",
        (FUSED + "test_static_cache_from_an_all_stopped_start",
         FUSED + "test_static_cache_flock_crosses_half_both_ways"),
        "equivalent: with no agent thawing, around([]) yields nothing and no "
        "agent is unlinked; the guard only skips building the empty key list"),
    Mutant(
        "unlink_leaves_dirty_empty", "src/avflock/engine.py",
        "            if near[k] == i and static[k]:\n"
        "                dirty.append(k)\n", "",
        (FUSED + "test_static_cache_from_an_all_stopped_start",
         FUSED + "test_static_cache_exact_ties_and_cut")),
    Mutant(
        "join_scan_inclusive", "src/avflock/engine.py",
        "        if self.n_static + len(moved) < len(speeds):\n",
        "        if self.n_static + len(moved) <= len(speeds):\n",
        (FUSED + "test_static_cache_from_an_all_stopped_start",
         FUSED + "test_static_cache_flock_crosses_half_both_ways"),
        "equivalent: after the thaw the static agents and the movers are "
        "disjoint, so at equality every stopped agent is static already and "
        "the scan finds none to join"),
    Mutant(
        "dirty_keeps_thawed_agents", "src/avflock/engine.py",
        "        dirty = [j for j in dirty if static[j]]\n",
        "        dirty = [j for j in dirty]\n",
        (FUSED + "test_list_speed_gate_turns_off_and_on",)),
    Mutant(
        "charge_drops_top_lo_corner", "src/avflock/engine.py",
        "        step = max(chord * top, math.hypot(top - lo, chord * "
        "math.sqrt(lo * top)))\n",
        "        step = chord * top\n",
        (FUSED + "test_list_charge_covers_each_branch[stopped]",)),
    Mutant(
        "charge_arc_before_the_move", "src/avflock/engine.py",
        "            chord = 2.0 * math.sin(math.radians(self._arc()) / 2.0)\n",
        "            chord = 2.0 * math.sin(math.radians(self.arc) / 2.0)\n"
        "            self._arc()\n",
        (FUSED + "test_list_charge_covers_each_branch[new_heading]",)),
    Mutant(
        "charge_without_ulp", "src/avflock/engine.py",
        "        step = self.step = self.moves * (step + 1e-9 * top + 2.0 * self.grid.ulp)\n",
        "        step = self.step = self.moves * (step + 1e-9 * top)\n",
        (FUSED + "test_list_head_on_lanes[crawl]",)),
    Mutant(
        "charge_without_moves", "src/avflock/engine.py",
        "        step = self.step = self.moves * (step + 1e-9 * top + 2.0 * self.grid.ulp)\n",
        "        step = self.step = step + 1e-9 * top + 2.0 * self.grid.ulp\n",
        (FUSED + "test_list_charge_covers_each_branch[random_walk]",)),
    Mutant(
        "charge_negative_speed_on_the_arc", "src/avflock/engine.py",
        "            chord, lo = 2.0, 0.0\n",
        "            lo = 0.0\n"
        "            chord = 2.0 * math.sin(math.radians(self._arc()) / 2.0)\n",
        (FUSED + "test_list_charge_covers_each_branch[negative_speed]",)),
    Mutant(
        "new_list_on_one_tick_of_skin", "src/avflock/engine.py",
        "        elif 2.0 * step <= self.skin and len(xs) <= self.cap:\n",
        "        elif step <= self.skin and len(xs) <= self.cap:\n",
        (FUSED + "test_source_takes_each_bound_inclusively",)),
    Mutant(
        "held_list_serves_without_slack", "src/avflock/engine.py",
        "        if isinstance(held, list) and self.slack >= step:\n",
        "        if isinstance(held, list):\n",
        (FUSED + "test_source_takes_each_bound_inclusively",
         FUSED + "test_list_serves_several_ticks_and_rebuilds_on_slack")),
    Mutant(
        "arc_uncapped", "src/avflock/engine.py",
        "            self.arc = min(360.0 - gap, 180.0)\n",
        "            self.arc = 360.0 - gap\n",
        (FUSED + "test_list_exact_ties",)),
    Mutant(
        "speed_check_only_on_an_infinite_sum", "src/avflock/engine.py",
        "    if not math.isfinite(sum(speeds) + sum(headings)):\n",
        "    if math.isinf(sum(speeds) + sum(headings)):\n",
        ("tests/test_engine.py::TestTick::"
         "test_non_finite_speed_names_the_agent",)),
    Mutant(
        "check_skips_headings", "src/avflock/engine.py",
        "    if not math.isfinite(sum(speeds) + sum(headings)):\n",
        "    if not math.isfinite(sum(speeds)):\n",
        ("tests/test_engine.py::TestTick::"
         "test_non_finite_heading_names_the_agent",)),
    Mutant(
        "position_check_skips_y", "src/avflock/engine.py",
        "                       and 0.0 <= min(ys) and max(ys) < h\n", "",
        (POSITIONS,)),
    Mutant(
        "position_check_without_upper_bound", "src/avflock/engine.py",
        "        if xs and not (0.0 <= min(xs) and max(xs) < w\n"
        "                       and 0.0 <= min(ys) and max(ys) < h\n",
        "        if xs and not (0.0 <= min(xs)\n"
        "                       and 0.0 <= min(ys)\n",
        (POSITIONS,)),
    Mutant(
        "snapshot_recorded_before_the_check", "src/avflock/engine.py",
        "    if not index.source(xs, ys):\n",
        "    kept = index.source(xs, ys)\n"
        "    index.xs = xs\n"
        "    index.ys = ys\n"
        "    if not kept:\n",
        (POSITIONS,)),
    Mutant(
        "partners_slice_includes_the_cell", "src/avflock/engine.py",
        "                    after = edges[key] = hood[hood.index(key) + 1:]\n",
        "                    after = edges[key] = hood[hood.index(key):]\n",
        (PARTNERS,)),
    Mutant(
        "partners_slice_skips_a_key", "src/avflock/engine.py",
        "                    after = edges[key] = hood[hood.index(key) + 1:]\n",
        "                    after = edges[key] = hood[hood.index(key) + 2:]\n",
        (PARTNERS,)),
    Mutant(
        "partners_interior_admits_column_zero", "src/avflock/engine.py",
        "            # are these 4\n"
        "            if ny <= key < last_x and 0 < key % ny < last_y:\n",
        "            # are these 4\n"
        "            if 0 <= key < last_x and 0 < key % ny < last_y:\n",
        (PARTNERS,)),
    Mutant(
        "partners_drop_key_plus_ny_minus_one", "src/avflock/engine.py",
        "                    others = [*get(key + 1, ()), *get(e - 1, ()), *get(e, ()),\n",
        "                    others = [*get(key + 1, ()), *get(e, ()),\n",
        (PARTNERS,)),
    Mutant(
        "failed_run_leaves_the_counter", "src/avflock/experiments.py",
        "            counter.value = len(order)\n"
        "            raise\n",
        "            raise\n",
        (CLAIMS + "test_a_failure_in_the_caller_stops_the_worker",)),
    Mutant(
        "pool_of_jobs_workers", "src/avflock/experiments.py",
        "    workers = min(jobs, len(tasks)) - 1\n",
        "    workers = min(jobs, len(tasks))\n",
        ("tests/test_experiments.py::TestRunExperiment::"
         "test_pool_has_no_more_workers_than_runs",)),
    Mutant(
        "claim_past_the_end", "src/avflock/experiments.py",
        "        if k >= len(order):\n", "        if k > len(order):\n",
        ("tests/test_experiments.py::TestRunExperiment::"
         "test_parallel_jobs_match_sequential",)),
    Mutant(
        "dead_worker_as_runtime_error", "src/avflock/experiments.py",
        "            raise ChildProcessError(", "            raise RuntimeError(",
        ("tests/test_cli.py::TestBadInput::test_dead_sweep_worker_is_one_error_line",)),
    Mutant(
        "claim_without_the_lock", "src/avflock/experiments.py",
        "        with counter.get_lock():\n"
        "            k = counter.value\n"
        "            counter.value = k + 1\n",
        "        k = counter.value\n"
        "        counter.value = k + 1\n",
        (CLAIMS + "test_every_run_starts_once",),
        "racy: two processes then claim the same run in about 1 of 600 "
        "claims, which the stress test catches in some runs and not in others"),
    Mutant(
        "failed_worker_without_the_callback", "src/avflock/experiments.py",
        "                for future in futures:\n"
        "                    future.add_done_callback(stop_if_failed)\n", "",
        (CLAIMS + "test_a_dead_worker_stops_the_caller",)),
    Mutant(
        "social_move_without_x_reset", "src/avflock/engine.py",
        "        a.x = xs[i] = 0.0 if x >= w else x\n",
        "        a.x = xs[i] = x\n",
        (WRAP,)),
    Mutant(
        "social_move_without_y_reset", "src/avflock/engine.py",
        "        a.y = ys[i] = 0.0 if y >= h else y\n",
        "        a.y = ys[i] = y\n",
        (WRAP,)),
    Mutant(
        "random_move_without_first_x_reset", "src/avflock/engine.py",
        "            y = (ys[i] + sp * sc[1]) % h\n"
        "            if x >= w:\n"
        "                x = 0.0\n",
        "            y = (ys[i] + sp * sc[1]) % h\n",
        (WRAP,)),
    Mutant(
        "random_move_without_first_y_reset", "src/avflock/engine.py",
        "            if y >= h:\n"
        "                y = 0.0\n"
        "            # an int turn",
        "            # an int turn",
        (WRAP,)),
    Mutant(
        "random_move_without_second_x_reset", "src/avflock/engine.py",
        "            y = (y + sp * sc[1]) % h\n"
        "            if x >= w:\n"
        "                x = 0.0\n",
        "            y = (y + sp * sc[1]) % h\n",
        (WRAP,)),
    Mutant(
        "random_move_without_second_y_reset", "src/avflock/engine.py",
        "            if y >= h:\n"
        "                y = 0.0\n"
        "            a.x = xs[i] = x\n",
        "            a.x = xs[i] = x\n",
        (WRAP,)),
    Mutant(
        "heading_unit_swaps_sin_and_cos", "src/avflock/core.py",
        "    return math.sin(rad), math.cos(rad)\n",
        "    return math.cos(rad), math.sin(rad)\n",
        (GOLDEN + "test_digest_pinned", GOLDEN + "test_trace_digest_pinned")),
    Mutant(
        "layout_without_version_line", "src/avflock/experiments.py",
        "    return \"\\n\".join((f\"# avflock {__version__}\", header, *rows)) + \"\\n\"\n",
        "    return \"\\n\".join((header, *rows)) + \"\\n\"\n",
        (CLI + "TestRichardson::test_default_output_pinned",
         CLI + "TestRun::test_deterministic_stdout_and_files")),
    Mutant(
        "output_opened_for_append", "src/avflock/experiments.py",
        "    return open(path, \"w\", encoding=\"utf-8\", newline=\"\")\n",
        "    return open(path, \"a\", encoding=\"utf-8\", newline=\"\")\n",
        (CLI + "TestRun::test_deterministic_stdout_and_files",)),
    Mutant(
        "seed_bound_admits_minus_one", "src/avflock/core.py",
        "    if seed < 0:\n",
        "    if seed < -1:\n",
        ("tests/test_experiments.py::TestRunExperiment::test_negative_base_seed_rejected",
         CLI + "TestBadInput::test_negative_seed_exits_two")),
    Mutant(
        "compare_takes_batches", "src/avflock/cli.py",
        "                     exclude=(\"name\", \"configurations\", \"batches\"))\n",
        "                     exclude=(\"name\", \"configurations\"))\n",
        (CLI + "TestSchema::test_run_and_compare_options_pinned",)),
    Mutant(
        "builtin_only_check_skips_base_seed", "src/avflock/cli.py",
        "            if f.name in args and f.name != \"batches\":\n",
        "            if f.name in args and f.name not in (\"batches\", \"base_seed\"):\n",
        (CLI + "TestBadInput::test_builtin_only_flag_with_spec_exits_two[--base-seed]",)),
    Mutant(
        "check_fields_takes_a_bool_as_a_number", "src/avflock/core.py",
        "    if isinstance(value, bool):\n"
        "        return kind is bool\n", "",
        (CHECK_FIELDS,)),
    Mutant(
        "check_fields_without_finiteness", "src/avflock/core.py",
        "        if kind is float and not abs(v) <= sys.float_info.max:  # nan, inf, 10**400\n"
        "            raise ValueError(f\"{f.name} must be finite, got {v}\")\n", "",
        (CHECK_FIELDS,)),
    Mutant(
        "experiment_spec_skips_check_fields", "src/avflock/experiments.py",
        "        check_fields(self)\n", "",
        (CHECK_FIELDS,)),
    Mutant(
        "richardson_params_skip_check_fields", "src/avflock/richardson.py",
        "    __post_init__ = check_fields\n", "",
        (CHECK_FIELDS,)),
)


def _copy(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(where: Path, ids) -> int:
    env = dict(os.environ, PYTHONPATH=str(where / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *ids], cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def _outcome(m: Mutant) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        where = Path(tmp)
        _copy(where)
        path = where / m.file
        text = path.read_text()
        if text.count(m.snippet) != 1:
            return "error: snippet does not occur exactly once"
        path.write_text(text.replace(m.snippet, m.replacement))
        code = _pytest(where, m.killers)
    # pytest exits 1 when a test failed, 0 when all passed
    return {0: "survived", 1: "killed"}.get(code, f"error: pytest exit {code}")


def main(argv: list[str]) -> int:
    mutants = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        _copy(Path(tmp))
        ids = sorted({i for m in mutants for i in m.killers})
        if _pytest(Path(tmp), ids) != 0:
            print("the named tests do not all pass unmutated")
            return 1
    bad, survivors = 0, []
    for m in mutants:
        outcome = _outcome(m)
        ok = (outcome in ("survived", "killed") if m.note.startswith("racy: ")
              else outcome == ("survived" if m.note else "killed"))
        bad += not ok
        if outcome == "survived":
            survivors.append(m.name)
        print(f"{'ok ' if ok else 'BAD'} {m.name}: {outcome}"
              + (f" ({m.note.partition(':')[0]})" if m.note else ""))
    print(f"{len(mutants)} mutants, {bad} unexpected; survivors: "
          f"{', '.join(survivors) or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
