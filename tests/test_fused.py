"""The fused tick against its per-agent oracle.

`tick` makes one grid pass over unordered pairs per tick. The oracle tick
below is the per-agent definition of the same update: social_step (brute
force find_nearmates) or random_walk_step, displace, and an O(n^2)
detect_collisions. The fused engine must leave the world in exactly the
same state after every tick, on random worlds that include the corner
cases of the pass: grids with fewer than 3 cells per axis, a safety
distance beyond the sonar range, sonar 0, agents at identical positions and
exact equal-distance ties.

On social ticks that start with at least half the flock stopped, the tick
takes the stopped agents' pairs from StaticCache and measures only the
movers'. The tests at the end audit that pass against a full rebuild + scan
after every tick, on dense worlds that freeze and thaw for 1000 ticks, and
check that edits a caller makes between ticks reach the result.
"""

import collections
import dataclasses
import itertools
import math
import random

import pytest

from avflock.agents import ActionKind, random_walk_step, social_step
from avflock.core import (AgentState, CollisionRule, Scenario, SimParams,
                          Team, WorldState, displace, torus_distance_xy)
from avflock.engine import (SpatialGrid, StaticCache, detect_collisions, setup,
                            tick)


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


# The stopped-agent cache. On social ticks where at least half the flock is
# stopped, `tick` scans only the pairs with a mover in them and takes the
# rest from StaticCache. The audit below checks every such pass against a
# full rebuild + scan of the same positions and counts the corner cases
# the pass met, so each test can show that it reached them.

class _Audit:
    def __init__(self, monkeypatch):
        self.seen = collections.Counter()
        original = StaticCache.scan

        def scan(cache, speeds, moved, xs, ys, radius, cut):
            self._before(cache, moved, xs, ys)
            got = original(cache, speeds, moved, xs, ys, radius, cut)
            g = cache.grid
            ref = SpatialGrid(g.width, g.height, g.cell_size)
            ref.rebuild([AgentState(id=i, team=Team.RED, x=x, y=y, heading=0.0,
                                    speed=0.0) for i, (x, y) in enumerate(zip(xs, ys))])
            assert got == ref.scan(xs, ys, radius, cut)
            self._after(cache, moved, xs, ys, cut)
            return got

        monkeypatch.setattr(StaticCache, "scan", scan)

    def _before(self, cache, moved, xs, ys):
        self.seen["passes"] += 1
        self.seen["static_on_static"] += sum(
            xs[i] == xs[j] and ys[i] == ys[j] for i, j in cache.pairs)
        static, near = cache.static, cache.near
        for i in moved:
            if static[i]:
                self.seen["thaw"] += 1
                if (any(static[j] and near[j] == i for j in range(len(near)))
                        and cache.grid.key(xs[i], ys[i]) != cache.cells[i]):
                    # (a) a cached nearest thaws and leaves its cell
                    self.seen["nearest_thaws_across_cells"] += 1
        self.seen["freeze"] += (len(xs) - len(moved)) - (
            cache.n_static - sum(static[i] for i in moved))

    def _after(self, cache, moved, xs, ys, cut):
        g = cache.grid
        for i, stopped in enumerate(cache.static):
            if not stopped:
                continue
            for j in moved:
                d = torus_distance_xy(xs[i], ys[i], xs[j], ys[j], g.width, g.height)
                if d == cache.best[i]:
                    # (c) a mover exactly as far as a static nearest
                    self.seen["tie_lower_id" if j < cache.near[i]
                              else "tie_higher_id"] += 1
                if d == cut:
                    self.seen["mover_at_cut"] += 1
                if d == 0.0:
                    self.seen["mover_on_static"] += 1
        for i, j in itertools.combinations(moved, 2):
            if xs[i] == xs[j] and ys[i] == ys[j]:
                self.seen["mover_on_mover"] += 1


def _flock(seed: int, **changes) -> WorldState:
    # a dense 20 m torus whose agents slow and speed up fast enough that
    # the stopped share keeps crossing one half
    params = dict(n_red=20, n_black=20, world_width=20.0, world_height=20.0,
                  min_velocity=0.3, max_velocity=0.9, deceleration=0.1,
                  max_acceleration=0.3)
    params.update(changes)
    return setup(SimParams(**params), seed)


def _lattice_world(seed: int, stacked: bool = False) -> WorldState:
    # a 0.5 m lattice, axis headings and speeds that stay on it: pair
    # distances repeat exactly, and the cut lies on one of them
    rng = random.Random(seed)
    params = SimParams(n_red=30, n_black=30, world_width=12.0, world_height=8.0,
                       min_velocity=0.0, max_velocity=1.0, max_acceleration=0.5,
                       deceleration=0.5, sonar_range=1.0, min_safety_distance=1.5,
                       collision_radius=0.5)
    agents = [AgentState(id=i, team=Team.RED if i < 30 else Team.BLACK,
                         x=rng.randrange(24) * 0.5, y=rng.randrange(16) * 0.5,
                         heading=rng.choice((0.0, 90.0, 180.0, 270.0)),
                         speed=rng.choice((0.0, 0.0, 0.5, 1.0)))
              for i in range(60)]
    if stacked:
        for a in agents[1::2]:
            a.x, a.y = agents[a.id - 1].x, agents[a.id - 1].y
    return WorldState(agents=agents, params=params, rng=random.Random(seed))


def _audit_runs(monkeypatch, worlds, ticks: int = 1000):
    """Tick each world, auditing every cached pass; returns the corner-case
    counts and how often the cache went into (False, True) and out of use
    (True, False) from one tick to the next."""
    audit = _Audit(monkeypatch)
    flips = collections.Counter()
    for world in worlds:
        cached = []
        for _ in range(ticks):
            tick(world)
            cached.append(world.index[3] is not None)
        flips.update(zip(cached, cached[1:]))
    return audit.seen, flips


def test_static_cache_flock_crosses_half_both_ways(monkeypatch):
    seen, flips = _audit_runs(monkeypatch, [_flock(seed) for seed in range(2)])
    assert flips[False, True] >= 2 and flips[True, False] >= 2  # (d)
    assert seen["nearest_thaws_across_cells"] > 0  # (a)
    assert seen["thaw"] > 0 and seen["freeze"] > 0


def test_static_cache_from_an_all_stopped_start(monkeypatch):
    worlds = []
    for seed in range(2):
        world = _flock(seed, min_velocity=0.0)  # (b)
        assert all(a.speed == 0.0 for a in world.agents)
        for a in world.agents[::3]:  # these accelerate away from the start
            a.recovering = True
        worlds.append(world)
    seen, flips = _audit_runs(monkeypatch, worlds)
    assert seen["passes"] > 1000 and seen["thaw"] > 0
    assert seen["nearest_thaws_across_cells"] > 0


def test_static_cache_exact_ties_and_cut(monkeypatch):
    seen, _ = _audit_runs(monkeypatch, [_lattice_world(seed) for seed in range(4)])
    assert seen["tie_lower_id"] > 0 and seen["tie_higher_id"] > 0  # (c)
    assert seen["mover_at_cut"] > 0


def test_static_cache_identical_positions(monkeypatch):
    seen, _ = _audit_runs(monkeypatch, [_lattice_world(seed, stacked=True)
                                        for seed in range(4)])
    assert seen["mover_on_mover"] > 0 and seen["mover_on_static"] > 0  # (e)
    assert seen["static_on_static"] > 0


def test_static_cache_tiny_grid(monkeypatch):
    worlds = [_flock(seed, n_red=10, n_black=10, world_width=2.5,
                     world_height=30.0, sonar_range=1.2) for seed in (3, 4)]
    seen, _ = _audit_runs(monkeypatch, worlds)
    assert all(w.index[0].nx < 3 for w in worlds)  # (e)
    assert seen["thaw"] > 0 and seen["nearest_thaws_across_cells"] > 0


def _edit(world: WorldState, edit: str) -> None:
    agents = world.agents
    stopped = [a for a in agents if a.speed == 0.0]
    far = max(agents, key=lambda a: torus_distance_xy(
        a.x, a.y, stopped[0].x, stopped[0].y, 20.0, 20.0))
    if edit == "move_stopped":
        # onto an agent across the world, away from its cached pairs
        stopped[0].x, stopped[0].y = far.x, far.y
    elif edit == "speed":
        stopped[0].speed = 0.7
        next(a for a in agents if a.speed != 0.0).speed = 0.0
    else:
        i, j = stopped[0].id, far.id
        copies = [dataclasses.replace(a) for a in agents]
        copies[i].x, copies[i].y, copies[j].x, copies[j].y = (
            agents[j].x, agents[j].y, agents[i].x, agents[i].y)
        world.agents = copies


@pytest.mark.parametrize("edit", ["move_stopped", "speed", "replace_agents"])
def test_static_cache_follows_caller_edits(edit):
    # tick() is public and WorldState mutable: an edit between ticks must
    # give what a full scan gives
    fused, ref = _flock(0), _flock(0)
    for t in range(150):
        tick(fused)
        oracle_tick(ref)
    assert fused.index[3] is not None
    _edit(fused, edit)
    _edit(ref, edit)
    for t in range(20):
        tick(fused)
        oracle_tick(ref)
        assert _state(fused) == _state(ref), (edit, t)
