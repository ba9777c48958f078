"""Engine contracts: setup, collision detection, tick loop, determinism,
and grid/brute-force equivalence."""

import copy
import dataclasses
import inspect
import io
import itertools
import math
import random
import re
from pathlib import Path

import pytest

from avflock import engine
from avflock.agents import ActionKind
from avflock.core import (AgentState, CollisionRule, Scenario, SimParams,
                          Team, WorldState, torus_distance_xy)
from avflock.engine import (RunResult, SpatialGrid, detect_collisions, run,
                            setup, tick)

TABLE1 = SimParams()  # defaults mirror the slow benchmark profile
RANDOM1 = dataclasses.replace(TABLE1, scenario=Scenario.RANDOM_WALK)
# (width, height, cell size) of grids whose n / side keys nextafter(side, 0)
# to n on each axis: their scales are lowered
LOWERED = [(100.0, 100.0, 3.0), (6.8353003564519375, 7.8830994013644915, 1.0),
           (7.8830994013644915, 6.8353003564519375, 1.0),
           (436.0, 436.0, 22.94736842105263)]


def world_at(positions, params=None, headings=None, speeds=None):
    params = params or TABLE1
    agents = [AgentState(id=i, team=Team.RED if i % 2 == 0 else Team.BLACK,
                         x=x, y=y,
                         heading=headings[i] if headings else 90.0,
                         speed=speeds[i] if speeds else params.min_velocity)
              for i, (x, y) in enumerate(positions)]
    return WorldState(agents=agents, params=params, rng=random.Random(0))


def _ticked_once(scenario, speed, source) -> WorldState:
    """A 20 + 20 world after one tick, every agent at `speed` unless it is
    None, whose next tick `source` serves: checked on a copy."""
    world = setup(SimParams(n_red=20, n_black=20, scenario=scenario), 1)
    tick(world)
    if speed is not None:  # 5 is past the held list's slack: too fast for any list
        for a in world.agents:
            a.speed = speed
    control = copy.deepcopy(world)
    tick(control)
    held = control.index.held
    assert {"cache": isinstance(held, engine.StaticCache),
            "list": isinstance(held, list), "grid": held is None}[source]
    return world


class TestSetup:
    def test_bit_identical_for_same_seed(self):
        w1 = setup(TABLE1, seed=7)
        w2 = setup(TABLE1, seed=7)
        assert w1.agents == w2.agents
        assert w1.rng.getstate() == w2.rng.getstate()

    def test_teams_and_headings(self):
        world = setup(TABLE1, seed=1)
        assert len(world.agents) == 80
        for a in world.agents:
            if a.team is Team.RED:
                assert a.heading == 90.0
            else:
                assert a.heading == 120.0
        assert sum(a.team is Team.RED for a in world.agents) == 40

    def test_all_speeds_start_at_min_velocity(self):
        world = setup(TABLE1, seed=2)
        assert all(a.speed == 0.3 for a in world.agents)
        assert all(a.collisions == 0 for a in world.agents)
        assert world.active_pairs == set()

    def test_positions_canonical(self):
        world = setup(SimParams(n_red=100, n_black=100), seed=3)
        for a in world.agents:
            assert 0 <= a.x < 100 and 0 <= a.y < 100

    def test_rejects_empty_world(self):
        with pytest.raises(ValueError, match="no agents"):
            setup(SimParams(n_red=0, n_black=0), seed=1)

    def test_rejects_negative_seed(self):
        # random.Random(-7) seeds like random.Random(7): run(p, -7) replayed
        # run(p, 7) tick for tick
        with pytest.raises(ValueError, match="seed must be >= 0, got -7"):
            setup(TABLE1, seed=-7)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            run(dataclasses.replace(TABLE1, ticks=1), -1)

    @pytest.mark.parametrize("seed", [True, 2.0, 1.5, -1])
    def test_seed_must_be_an_int_of_at_least_zero(self, seed):
        # True and 2.0 replayed seeds 1 and 2
        with pytest.raises(ValueError, match=r"seed must be (int|>= 0), got"):
            run(dataclasses.replace(TABLE1, ticks=1), seed)

    def test_run_requires_a_seed(self):
        with pytest.raises(TypeError):
            run(dataclasses.replace(TABLE1, ticks=1))

    def test_ids_are_list_indices(self):
        world = setup(TABLE1, seed=4)
        assert [a.id for a in world.agents] == list(range(80))


class TestDetectCollisions:
    def test_first_touch_is_one_pair_event(self):
        world = world_at([(10.0, 10.0), (10.0, 10.0)])
        assert detect_collisions(world, 1.0) == 1
        assert world.total_collisions == 1
        assert [a.collisions for a in world.agents] == [1, 1]
        assert world.active_pairs == {(0, 1)}

    def test_sustained_overlap_not_recounted(self):
        world = world_at([(10.0, 10.0), (10.0, 10.0)])
        detect_collisions(world, 1.0)
        assert detect_collisions(world, 1.0) == 0
        assert world.total_collisions == 1

    def test_reentry_counts_again(self):
        world = world_at([(10.0, 10.0), (10.0, 10.0)])
        detect_collisions(world, 1.0)
        world.agents[1].x = 20.0  # separate
        assert detect_collisions(world, 1.0) == 0
        assert world.active_pairs == set()
        world.agents[1].x = 10.0  # rejoin
        assert detect_collisions(world, 1.0) == 1
        assert world.total_collisions == 2

    def test_three_mutual_overlaps_make_three_pair_events(self):
        world = world_at([(10.0, 10.0), (10.2, 10.0), (10.0, 10.2)])
        assert detect_collisions(world, 1.0) == 3
        assert [a.collisions for a in world.agents] == [2, 2, 2]

    def test_boundary_is_strict(self):
        world = world_at([(10.0, 10.0), (11.0, 10.0)])
        assert detect_collisions(world, 1.0) == 0

    def test_agent_entry_rule_doubles_pair_count(self):
        params = dataclasses.replace(TABLE1, collision_rule=CollisionRule.AGENT_ENTRY)
        world = world_at([(10.0, 10.0), (10.0, 10.0)], params=params)
        assert detect_collisions(world, 1.0) == 2
        assert detect_collisions(world, 1.0) == 0

    def test_overlap_rule_counts_every_tick(self):
        params = dataclasses.replace(TABLE1, collision_rule=CollisionRule.OVERLAP)
        world = world_at([(10.0, 10.0), (10.0, 10.0)], params=params)
        assert detect_collisions(world, 1.0) == 1
        assert detect_collisions(world, 1.0) == 1
        assert world.total_collisions == 2

    def test_zero_radius_rejected(self):
        world = world_at([(0.0, 0.0)])
        with pytest.raises(ValueError):
            detect_collisions(world, 0.0)


class TestTick:
    def test_single_agent_moves_and_keeps(self):
        world = world_at([(10.0, 10.0)])
        tick(world)
        a = world.agents[0]
        assert a.x == pytest.approx(10.3, abs=1e-12)  # heading 90 = +x
        assert a.y == pytest.approx(10.0, abs=1e-12)
        assert world.last_actions == [ActionKind.KEEP]
        assert world.total_collisions == 0
        assert world.tick == 1

    def test_close_parallel_pair_mirrors(self):
        world = world_at([(10.0, 10.0), (10.5, 10.0)], speeds=[0.3, 0.3])
        tick(world)
        assert world.last_actions == [ActionKind.MIRROR, ActionKind.MIRROR]
        a, b = world.agents
        assert a.heading == b.heading == 90.0
        assert a.speed == b.speed == pytest.approx(0.2)
        assert world.total_collisions == 1  # 0.5 m < collision radius 1

    def test_mutual_mirror_swaps_headings_from_snapshot(self):
        world = world_at([(10.0, 10.0), (10.5, 10.0)], headings=[90.0, 120.0],
                         speeds=[0.3, 0.3])
        tick(world)
        a, b = world.agents
        assert a.heading == 120.0 and b.heading == 90.0

    def test_recovery_accelerates_back_to_cruise(self):
        world = world_at([(10.0, 10.0)], speeds=[0.1])
        world.agents[0].recovering = True
        tick(world)
        a = world.agents[0]
        assert world.last_actions == [ActionKind.ACCELERATE]
        assert a.speed == pytest.approx(0.2) and a.recovering
        tick(world)
        assert a.speed == pytest.approx(0.3) and not a.recovering
        tick(world)
        assert world.last_actions == [ActionKind.KEEP]

    def test_mutual_threat_grinds_to_a_halt(self):
        # head-on pair: mirroring swaps headings and ratchets speed to zero
        # while the threat persists, leaving a frozen pair (counted once)
        world = world_at([(10.0, 10.0), (10.0, 10.95)], headings=[0.0, 180.0],
                         speeds=[0.3, 0.3])
        tick(world)
        a, b = world.agents
        assert a.recovering and b.recovering
        assert a.speed == pytest.approx(0.2)
        for _ in range(6):
            tick(world)
        assert a.speed == 0.0 and b.speed == 0.0
        assert world.total_collisions == 1
        pos = (a.x, a.y, b.x, b.y)
        tick(world)
        assert (a.x, a.y, b.x, b.y) == pos

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 39])
    def test_non_finite_speed_names_the_agent(self, scenario, value, at):
        # whichever pair source the tick would take and wherever the agent
        # sits: max() skips a nan after the first element, but not at it
        world = setup(SimParams(n_red=20, n_black=20, scenario=scenario), 1)
        tick(world)
        world.agents[at].speed = value
        before = copy.deepcopy(world.agents)
        with pytest.raises(ValueError, match=f"^agent {at} has a non-finite speed"):
            tick(world)
        assert world.agents == before and world.tick == 1

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("at", [0, 39])
    @pytest.mark.parametrize("speed, source", [(None, "list"), (5.0, "grid")])
    def test_non_finite_heading_names_the_agent(self, scenario, value, at, speed,
                                                source):
        # before any agent moves, on a tick the list or the grid pass would
        # serve: a list measures only its listed pairs, and would run on
        world = _ticked_once(scenario, speed, source)
        world.agents[at].heading = value
        before = copy.deepcopy(world.agents)
        with pytest.raises(ValueError, match=f"^agent {at} has a non-finite heading"):
            tick(world)
        assert world.agents == before and world.tick == 1

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("value", ["side", "below_zero", "nan", "inf",
                                       "side_plus_100"])
    @pytest.mark.parametrize("at", [0, 39])
    @pytest.mark.parametrize("speed, source", [(0.0, "cache"), (None, "list"),
                                               (5.0, "grid")])
    def test_position_off_the_torus_names_the_agent(self, scenario, field, value,
                                                    at, speed, source):
        # a caller's edit, checked before any agent moves, whichever source
        # the tick would take and whether or not the agent moves: the cache
        # and the list measure only some pairs, and a key off the grid wraps
        world = _ticked_once(scenario, speed, source)
        side = 100.0
        assert world.params.world_width == world.params.world_height == side
        setattr(world.agents[at], field, {
            "side": side, "below_zero": -1e-9, "nan": math.nan, "inf": math.inf,
            "side_plus_100": side + 100.0}[value])
        before = copy.deepcopy(world.agents)
        for _ in range(2):  # the bad positions are not taken as the last tick's
            with pytest.raises(ValueError,
                               match=fr"^agent {at} has {field} .* outside \[0, 100\.0\)$"):
                tick(world)
            assert world.agents == before and world.tick == 1

    @pytest.mark.parametrize("scenario", list(Scenario))
    @pytest.mark.parametrize("field", ["x", "y"])
    @pytest.mark.parametrize("value", [0.0, -0.0, math.nextafter(100.0, 0.0)])
    @pytest.mark.parametrize("at", [0, 39])
    def test_position_on_the_torus_edge_still_ticks(self, scenario, field, value, at):
        world = _ticked_once(scenario, None, "list")
        setattr(world.agents[at], field, value)
        tick(world)
        tick(world)
        assert world.tick == 3

    def test_empty_world_ticks(self):
        world = WorldState(agents=[], params=TABLE1, rng=random.Random(0))
        tick(world)
        assert world.tick == 1 and world.collisions_per_tick == [0]

    def test_finite_headings_whose_sum_overflows_still_tick(self):
        world = world_at([(10.0, 10.0), (60.0, 60.0)], headings=[1.7e308, 1.7e308])
        tick(world)
        assert world.tick == 1
        assert all(math.isfinite(a.x) and math.isfinite(a.y) for a in world.agents)

    def test_finite_speeds_whose_sum_overflows_still_tick(self):
        world = world_at([(10.0, 10.0), (60.0, 60.0)], speeds=[1.7e308, 1.7e308])
        tick(world)
        assert world.tick == 1
        assert all(math.isfinite(a.x) and math.isfinite(a.y) for a in world.agents)

    def test_deterministic_successor(self):
        for scenario in Scenario:
            params = dataclasses.replace(TABLE1, scenario=scenario)
            w1 = setup(params, seed=5)
            w2 = setup(params, seed=5)
            for _ in range(30):
                tick(w1)
                tick(w2)
            assert w1.agents == w2.agents
            assert w1.total_collisions == w2.total_collisions
            assert w1.rng.getstate() == w2.rng.getstate()

    def test_random_walk_consumes_two_draws_per_agent(self):
        params = dataclasses.replace(RANDOM1, n_red=3, n_black=2)
        world = setup(params, seed=11)
        shadow = random.Random(11)
        for _ in range(5):  # replay setup position draws (x then y per agent)
            shadow.uniform(0.0, 100.0)
            shadow.uniform(0.0, 100.0)
        expected = [(shadow.randrange(89), shadow.randrange(200)) for _ in range(5)]
        tick(world)
        for a, (_, h2) in zip(world.agents, expected):
            assert a.heading == float(h2)

    def test_conservation_and_monotone_tallies(self):
        world = setup(TABLE1, seed=6)
        reds = sum(a.team is Team.RED for a in world.agents)
        prev = [0] * 80
        for _ in range(50):
            tick(world)
            assert len(world.agents) == 80
            assert sum(a.team is Team.RED for a in world.agents) == reds
            assert [a.id for a in world.agents] == list(range(80))
            now = [a.collisions for a in world.agents]
            assert all(b >= a for a, b in zip(prev, now))
            prev = now


class TestRun:
    def test_same_seed_identical_result(self):
        r1 = run(TABLE1, seed=3)
        r2 = run(TABLE1, seed=3)
        assert r1 == r2

    def test_per_tick_series_sums_to_total(self):
        r = run(dataclasses.replace(TABLE1, ticks=200), seed=4)
        assert len(r.collisions_per_tick) == 200
        assert sum(r.collisions_per_tick) == r.total_collisions
        assert all(c >= 0 for c in r.collisions_per_tick)

    def test_seed_echo_and_params_echo(self):
        params = dataclasses.replace(TABLE1, ticks=5)
        r = run(params, seed=42)
        assert r.seed == 42 and r.params == params
        # the seed argument is the run's only seed: SimParams.seed is not read
        r2 = run(dataclasses.replace(params, seed=9), seed=42)
        assert dataclasses.replace(r2, params=params) == r

    def test_random_walk_exceeds_social_at_benchmark_scale(self):
        # direction of the headline comparison at 80+80, identical seed
        social = dataclasses.replace(TABLE1, n_red=80, n_black=80)
        rnd = dataclasses.replace(RANDOM1, n_red=80, n_black=80)
        assert run(rnd, seed=1).total_collisions > run(social, seed=1).total_collisions

    def test_zero_sonar_degenerates_to_straight_lines(self):
        params = dataclasses.replace(TABLE1, sonar_range=0.0, ticks=100,
                                     n_red=10, n_black=10)
        world = setup(params, seed=8)
        for _ in range(100):
            tick(world)
            assert all(k is ActionKind.KEEP for k in world.last_actions)
        for a in world.agents:
            assert a.heading in (90.0, 120.0)
            assert a.speed == params.min_velocity

    def test_speed_bounds_hold_every_tick(self):
        fast = SimParams(n_red=20, n_black=20, min_velocity=0.5,
                         max_velocity=0.9, deceleration=0.3, ticks=300)
        for scenario in Scenario:
            params = dataclasses.replace(fast, scenario=scenario)
            world = setup(params, seed=13)
            lo = 0.0 if scenario is Scenario.ALL_SOCIAL_AVS else params.min_velocity
            for _ in range(300):
                tick(world)
                for a in world.agents:
                    assert lo <= a.speed <= params.max_velocity

    def test_trace_stream_format_and_determinism(self):
        params = dataclasses.replace(TABLE1, n_red=2, n_black=1, ticks=3)
        buf1, buf2 = io.StringIO(), io.StringIO()
        run(params, seed=2, trace=buf1)
        run(params, seed=2, trace=buf2)
        assert buf1.getvalue() == buf2.getvalue()
        lines = buf1.getvalue().splitlines()
        assert lines[0] == "tick,agent,x,y,heading,speed,action"
        assert len(lines) == 1 + 3 * 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0" and first[6] in (
            "Keep", "Mirror", "Accelerate", "RandomWalk")


    def test_trace_memo_keeps_values_that_print_differently(self, monkeypatch):
        # caller-set values that compare equal to others but print
        # differently: -0.0 and 0.0, ints and floats, a bool
        values = [(90.0, 1.0), (90, 1.0), (90.0, 1), (90, 1), (-0.0, 0.0),
                  (0.0, 0.0), (0.0, -0.0), (-0.0, -0.0), (0, 0), (0.0, 0),
                  (120.0, True), (120.0, 1.0), (-0.0, 1.0), (0.0, 1.0)]
        values += values[::-1]
        params = dataclasses.replace(TABLE1, sonar_range=0.0, ticks=4)
        world = world_at([(3.0 * i, 1.5 * i) for i in range(len(values))],
                         params, headings=[h for h, _ in values],
                         speeds=[s for _, s in values])
        ref = copy.deepcopy(world)
        monkeypatch.setattr(engine, "setup", lambda params, seed: world)
        buf = io.StringIO()
        run(params, 0, trace=buf)

        rows = ["tick,agent,x,y,heading,speed,action\n"]
        for _ in range(params.ticks):
            tick(ref)
            t = ref.tick
            for a, kind in zip(ref.agents, ref.last_actions):
                # the per-row format the trace writer memoises
                rows.append(f"{t},{a.id},{a.x!r},{a.y!r},{a.heading!r},"
                            f"{a.speed!r},{kind.value}\n")
        assert buf.getvalue() == "".join(rows)
        assert all(k is ActionKind.KEEP for k in ref.last_actions)
        assert {(type(a.heading), type(a.speed)) for a in ref.agents} >= {
            (int, int), (float, bool)}
        assert ",-0.0,-0.0,Keep" in buf.getvalue()


def brute_neighbors(agents, i, r, w, h):
    a = agents[i]
    return {j for j, b in enumerate(agents)
            if j != i and torus_distance_xy(a.x, a.y, b.x, b.y, w, h) <= r}


def brute_pairs(agents, r, w, h):
    out = set()
    for i, a in enumerate(agents):
        for j in range(i + 1, len(agents)):
            b = agents[j]
            if torus_distance_xy(a.x, a.y, b.x, b.y, w, h) < r:
                out.add((i, j))
    return out


class TestSpatialGrid:
    def test_every_agent_in_exactly_one_bucket(self):
        world = setup(TABLE1, seed=9)
        grid = SpatialGrid(100.0, 100.0, 2.5)
        grid.rebuild([a.x for a in world.agents], [a.y for a in world.agents])
        ids = [i for bucket in grid.buckets.values() for i in bucket]
        assert sorted(ids) == list(range(80))

    def test_matches_brute_force_on_random_worlds(self):
        rng = random.Random(123)
        for _ in range(200):
            w = rng.uniform(8.0, 60.0)
            h = rng.uniform(8.0, 60.0)
            sonar = rng.uniform(0.0, min(w, h) / 2.01)
            radius = rng.uniform(0.05, max(sonar, 0.5))
            n = rng.randrange(2, 40)
            agents = [AgentState(id=i, team=Team.RED, x=rng.uniform(0, w),
                                 y=rng.uniform(0, h), heading=0.0, speed=0.0)
                      for i in range(n)]
            grid = SpatialGrid(w, h, max(sonar, radius))
            grid.rebuild([a.x for a in agents], [a.y for a in agents])
            grid_pairs = set()
            for i, a in enumerate(agents):
                cands = grid.candidates(a.x, a.y)
                near = {j for j in cands if j != i
                        and torus_distance_xy(a.x, a.y, agents[j].x, agents[j].y,
                                              w, h) <= sonar}
                assert near == brute_neighbors(agents, i, sonar, w, h)
                for j in cands:
                    if j > i and torus_distance_xy(a.x, a.y, agents[j].x,
                                                   agents[j].y, w, h) < radius:
                        grid_pairs.add((i, j))
            assert grid_pairs == brute_pairs(agents, radius, w, h)

    @pytest.mark.parametrize("nx, ny", [*itertools.product(range(1, 5), repeat=2),
                                        (7, 5)])
    def test_around_lists_each_wrapped_block_once(self, nx, ny):
        # 0-2 agents per cell; every key, in one call as the engine makes it
        rng = random.Random(10 * nx + ny)
        cell_of = [c for c in itertools.product(range(nx), range(ny))
                   for _ in range(rng.randrange(3))]
        agents = [AgentState(id=i, team=Team.RED, x=cx + rng.uniform(0.05, 0.95),
                             y=cy + rng.uniform(0.05, 0.95), heading=0.0, speed=0.0)
                  for i, (cx, cy) in enumerate(cell_of)]
        # a cell a hair under 1 m: cells are a rounding allowance wider
        grid = SpatialGrid(float(nx), float(ny), 0.999)
        assert (grid.nx, grid.ny) == (nx, ny)
        grid.rebuild([a.x for a in agents], [a.y for a in agents])
        keys = range(nx * ny)
        for key, got in zip(keys, grid.around(keys), strict=True):
            cx, cy = divmod(key, ny)
            block = {((cx + dx) % nx, (cy + dy) % ny)
                     for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
            # equal to an ascending list of distinct ids: no id twice
            assert sorted(got) == [i for i, c in enumerate(cell_of) if c in block]

    @pytest.mark.parametrize("nx, ny", itertools.product(range(1, 6), repeat=2))
    def test_partners_list_each_adjacent_pair_once(self, nx, ny):
        # 1-2 agents in every cell: interior cells, the cx == 0 column, all
        # four edges, the corners, and grids whose 3x3 block wraps onto itself.
        # Measuring a pair twice gives the same result, so the brute-force
        # comparisons cannot see a pair listed twice; this can.
        rng = random.Random(10 * nx + ny)
        cell_of = [c for c in itertools.product(range(nx), range(ny))
                   for _ in range(1 + rng.randrange(2))]
        agents = [AgentState(id=i, team=Team.RED, x=cx + rng.uniform(0.05, 0.95),
                             y=cy + rng.uniform(0.05, 0.95), heading=0.0, speed=0.0)
                  for i, (cx, cy) in enumerate(cell_of)]
        # a cell a hair under 1 m: cells are a rounding allowance wider
        grid = SpatialGrid(float(nx), float(ny), 0.999)
        assert (grid.nx, grid.ny) == (nx, ny)
        grid.rebuild([a.x for a in agents], [a.y for a in agents])
        listed = sorted((min(i, j), max(i, j))
                        for i, partners in grid._partners() for j in partners)

        def adjacent(a, b):
            return all(min(abs(p - q), n - abs(p - q)) <= 1
                       for p, q, n in zip(a, b, (nx, ny)))

        assert listed == [(i, j) for i, j in itertools.combinations(range(len(agents)), 2)
                          if adjacent(cell_of[i], cell_of[j])]

    @pytest.mark.parametrize("w, h, cell", LOWERED)
    def test_last_position_keys_to_the_last_cell(self, w, h, cell):
        grid = SpatialGrid(w, h, cell)
        nx, ny = grid.nx, grid.ny
        top_x, top_y = math.nextafter(w, 0.0), math.nextafter(h, 0.0)
        # n / side keys the last position on each axis past the grid
        assert (int(top_x * (nx / w)), int(top_y * (ny / h))) == (nx, ny)
        xs, ys = [top_x, top_x, 0.0, 0.0], [top_y, 0.0, top_y, 0.0]
        keys = [(nx - 1) * ny + ny - 1, (nx - 1) * ny, ny - 1, 0]
        assert [grid.key(x, y) for x, y in zip(xs, ys)] == keys
        grid.rebuild(xs, ys)
        assert grid.buckets == {key: [i] for i, key in enumerate(keys)}
        grid.rebuild([0.0] * 4, [0.0] * 4)
        cells = [0] * 4
        grid.move(range(4), cells, xs, ys)
        assert cells == keys
        assert grid.buckets == {key: [i] for i, key in enumerate(keys)}

    def test_every_cell_is_wider_than_the_cell_and_two_ulp(self):
        # the class's bound, the last cell included, on worlds a whole
        # number of allowance-widened cells wide and on others
        rng = random.Random(31)
        worlds = [(w, cell) for w, _, cell in LOWERED]
        for _ in range(300):
            cell = rng.uniform(0.01, 30.0)
            n = rng.randrange(2, 60)
            side = n * (cell + 4.0 * math.ulp(n * cell)) if rng.random() < 0.5 else (
                rng.uniform(cell, 60.0 * cell))
            worlds.append((side, cell))

        def first(grid, c):  # the least x of column c
            x = c / grid._sx
            while x > 0.0 and grid.key(x, 0.0) >= c * grid.ny:
                x = math.nextafter(x, 0.0)
            while grid.key(x, 0.0) < c * grid.ny:
                x = math.nextafter(x, math.inf)
            return x

        for side, cell in worlds:
            grid = SpatialGrid(side, side, cell)
            if grid.nx == 1:  # the one cell is the whole axis
                continue
            edges = [first(grid, c) for c in range(grid.nx)] + [side]
            assert min(b - a for a, b in zip(edges, edges[1:])) > (
                cell + 2.0 * math.ulp(side)), (side, cell)

    def test_tiny_grid_neighborhoods_deduplicate(self):
        # 2x2 cells: the wrapped 3x3 stencil collapses without double counting
        grid = SpatialGrid(5.2, 5.2, 2.5)
        assert grid.nx == 2 and grid.ny == 2
        agents = [AgentState(id=i, team=Team.RED, x=x, y=y, heading=0.0, speed=0.0)
                  for i, (x, y) in enumerate([(0.5, 0.5), (3.0, 3.0), (4.9, 0.1)])]
        grid.rebuild([a.x for a in agents], [a.y for a in agents])
        cands = grid.candidates(0.5, 0.5)
        assert sorted(cands) == [0, 1, 2]
        assert len(cands) == len(set(cands))


def test_readme_engine_names_resolve():
    # README names engine code in backticks, `_name`, `SpatialGrid.x`,
    # `StaticCache.x` or `_Index.x`, some with an `engine.` prefix. A renamed
    # phase or method must not leave a stale name there.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = set(re.findall(
        r"`(?:engine\.)?(_\w+|(?:SpatialGrid|StaticCache|_Index)\.\w+)`", readme))
    assert {"_partners", "_Index.pairs", "SpatialGrid.move"} <= names
    classes = [c for _, c in inspect.getmembers(engine, inspect.isclass)
               if c.__module__ == engine.__name__]
    for name in sorted(names):
        owner, _, attr = name.rpartition(".")
        owners = [getattr(engine, owner)] if owner else [engine, *classes]
        assert any(hasattr(o, attr) for o in owners), name
