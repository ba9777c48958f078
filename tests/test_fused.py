"""The fused tick against its per-agent oracle.

`tick` makes one grid pass over unordered pairs per tick. The oracle tick
below is the per-agent definition of the same update: social_step (brute
force find_nearmates) or random_walk_step, displace, and an O(n^2)
detect_collisions. The fused engine must leave the world in exactly the
same state after every tick, on random worlds that include the corner
cases of the pass: grids with fewer than 3 cells per axis, a safety
distance beyond the sonar range, sonar 0, agents at identical positions and
exact equal-distance ties.
"""

import dataclasses
import itertools
import math
import random

import pytest

from avflock.agents import ActionKind, random_walk_step, social_step
from avflock.core import (AgentState, CollisionRule, Scenario, SimParams,
                          Team, WorldState, displace, torus_distance_xy)
from avflock.engine import SpatialGrid, detect_collisions, tick


def oracle_tick(world: WorldState) -> None:
    """One tick from the per-agent reference functions."""
    p = world.params
    agents = world.agents
    w, h = p.world_width, p.world_height
    if p.scenario is Scenario.ALL_SOCIAL_AVS:
        for a in agents:
            a.x, a.y = displace(a.x, a.y, a.heading, a.speed, w, h)
        actions = [social_step(a, world, p) for a in agents]
        for a, act in zip(agents, actions):
            if act.kind is ActionKind.MIRROR:
                a.heading = act.new_heading
                a.speed = act.new_speed
                if not p.literal_rules:
                    a.recovering = True
            elif act.kind is ActionKind.ACCELERATE:
                a.speed = act.new_speed
                if act.new_speed >= p.max_velocity:
                    a.recovering = False
    else:
        actions = []
        for a in agents:
            act = random_walk_step(a, p, world.rng)
            a.x, a.y = displace(a.x, a.y, a.heading, a.speed, w, h)
            a.heading = act.mid_heading
            a.x, a.y = displace(a.x, a.y, a.heading, a.speed, w, h)
            a.heading = act.new_heading
            a.speed = act.new_speed
            a.random_behaviour = not a.random_behaviour
            actions.append(act)
    world.last_actions = [act.kind for act in actions]
    world.collisions_per_tick.append(detect_collisions(world, p.collision_radius))
    world.tick += 1


CASES = ("plain", "tiny_grid", "safety_beyond_sonar", "sonar_zero",
         "identical_positions", "equal_distance_ties")


def _geometry(rng: random.Random, case: str) -> dict:
    if case == "tiny_grid":
        # cells at least the collision radius wide: 1 or 2 along x
        radius = rng.uniform(1.0, 2.0)
        sonar = rng.uniform(0.0, 0.45)
        return dict(world_width=rng.uniform(1.0, 2.9 * radius),
                    world_height=rng.uniform(1.0, 12.0), sonar_range=sonar,
                    min_safety_distance=rng.uniform(0.0, 2.0),
                    collision_radius=radius)
    if case == "equal_distance_ties":
        # a 0.5 m lattice: many pairs at exactly the same distance, and
        # thresholds that fall exactly on lattice distances
        return dict(world_width=20.0, world_height=10.0,
                    sonar_range=rng.choice((0.5, 1.0, 2.5)),
                    min_safety_distance=rng.choice((0.5, 1.0, 1.5)),
                    collision_radius=rng.choice((0.5, 1.0)))
    w, h = rng.uniform(8.0, 40.0), rng.uniform(8.0, 40.0)
    sonar = rng.uniform(0.5, min(4.0, min(w, h) / 2.01))
    safety = rng.uniform(0.3, sonar)
    if case == "safety_beyond_sonar":
        safety = sonar + rng.uniform(0.1, 2.0)
    elif case == "sonar_zero":
        sonar = 0.0
    return dict(world_width=w, world_height=h, sonar_range=sonar,
                min_safety_distance=safety,
                collision_radius=rng.uniform(0.2, 2.0))


def _agents(rng: random.Random, case: str, params: SimParams) -> list[AgentState]:
    w, h = params.world_width, params.world_height
    n = rng.randrange(2, 31)
    agents = []
    for i in range(n):
        if case == "equal_distance_ties":
            x, y = rng.randrange(40) * 0.5, rng.randrange(20) * 0.5
            speed = 0.0 if rng.random() < 0.7 else rng.choice((0.5, 1.0))
            heading = rng.choice((0.0, 90.0, 180.0, 270.0))
        else:
            x, y = rng.uniform(0.0, w), rng.uniform(0.0, h)
            speed = rng.choice((0.0, rng.uniform(0.0, 1.0)))
            heading = rng.choice((float(rng.randrange(360)), rng.uniform(-720, 720)))
        if case == "identical_positions" and i and rng.random() < 0.5:
            src = agents[rng.randrange(i)]
            x, y = src.x, src.y
            if rng.random() < 0.5:
                heading, speed = src.heading, src.speed
        agents.append(AgentState(
            id=i, team=Team.RED if i % 2 else Team.BLACK, x=x % w, y=y % h,
            heading=heading, speed=speed,
            random_behaviour=rng.random() < 0.5,
            recovering=rng.random() < 0.3))
    return agents


def _world_pair(seed: int, case: str, scenario: Scenario, rule: CollisionRule,
                literal: bool) -> tuple[WorldState, WorldState]:
    rng = random.Random(seed)
    params = SimParams(
        scenario=scenario, collision_rule=rule, literal_rules=literal,
        min_velocity=rng.uniform(0.0, 0.5), max_velocity=rng.uniform(0.5, 1.0),
        max_acceleration=rng.uniform(0.0, 0.3), deceleration=rng.uniform(0.0, 0.5),
        **_geometry(rng, case))
    agents = _agents(rng, case, params)
    return tuple(WorldState(agents=[dataclasses.replace(a) for a in agents],
                            params=params, rng=random.Random(seed))
                 for _ in range(2))


def _state(world: WorldState):
    return (world.agents, world.last_actions, world.collisions_per_tick,
            world.total_collisions, world.active_pairs, world.tick,
            world.rng.getstate())


@pytest.mark.parametrize("case", CASES)
def test_fused_tick_equals_oracle_after_every_tick(case):
    combos = itertools.product(Scenario, CollisionRule, (False, True))
    for k, (scenario, rule, literal) in enumerate(combos):
        fused, ref = _world_pair(1000 * CASES.index(case) + k, case, scenario,
                                 rule, literal)
        for t in range(40):
            tick(fused)
            oracle_tick(ref)
            assert _state(fused) == _state(ref), (case, scenario, rule, literal, t)


def test_tiny_grid_case_has_fewer_than_three_cells_on_an_axis():
    # the case above must reach the deduplicated-neighborhood path
    for k in range(12):
        fused, _ = _world_pair(1000 * CASES.index("tiny_grid") + k, "tiny_grid",
                               Scenario.ALL_SOCIAL_AVS, CollisionRule.PAIR_ENTRY, False)
        tick(fused)
        grid = fused.index[0]
        assert grid.nx < 3 or grid.ny < 3


def test_fused_pass_equals_brute_force():
    """Criterion 7 for the fused pass: colliding pairs and nearest neighbor
    within the cut equal the O(n^2) reference (exact set equality)."""
    rng = random.Random(7077)
    for world in range(1000):
        lattice = world % 4 == 0
        w = 20.0 if lattice else rng.uniform(1.0, 60.0)
        h = 10.0 if lattice else rng.uniform(1.0, 60.0)
        radius = rng.choice((0.5, 1.0)) if lattice else rng.uniform(0.05, 8.0)
        cut = rng.choice((-1.0, 0.0, 0.5, 1.0, 2.5) if lattice
                         else (-1.0, 0.0, rng.uniform(0.0, 8.0)))
        n = rng.randrange(1, 51)
        xs, ys = [], []
        for i in range(n):
            if i and rng.random() < 0.1:  # identical positions
                k = rng.randrange(i)
                xs.append(xs[k])
                ys.append(ys[k])
            elif lattice:
                xs.append(rng.randrange(40) * 0.5)
                ys.append(rng.randrange(20) * 0.5)
            else:
                xs.append(rng.uniform(0.0, w))
                ys.append(rng.uniform(0.0, h))
        agents = [AgentState(id=i, team=Team.RED, x=x, y=y, heading=0.0, speed=0.0)
                  for i, (x, y) in enumerate(zip(xs, ys))]
        grid = SpatialGrid(w, h, max(cut, radius))
        grid.rebuild(agents)
        pairs, near = grid.scan(xs, ys, radius, cut)

        dist = [[torus_distance_xy(xs[i], ys[i], xs[j], ys[j], w, h)
                 for j in range(n)] for i in range(n)]
        assert pairs == {(i, j) for i in range(n) for j in range(i + 1, n)
                         if dist[i][j] < radius}
        for i in range(n):
            inside = [(dist[i][j], j) for j in range(n) if j != i and dist[i][j] <= cut]
            assert near[i] == (min(inside)[1] if inside else -1)


def test_scan_rejects_reach_beyond_cell():
    grid = SpatialGrid(10.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="cell size"):
        grid.scan([], [], 1.5, -1.0)
    assert grid.scan([], [], 1.0, math.nextafter(1.0, 0.0)) == (set(), [])
