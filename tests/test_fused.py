"""The fused tick against its per-agent oracle.

`tick` makes one grid pass over unordered pairs per tick. The oracle tick
below is the per-agent definition of the same update: social_step (brute
force find_nearmates) or random_walk_step, displace, and an O(n^2)
detect_collisions. The fused engine must leave the world in exactly the
same state after every tick, on random worlds that include the corner
cases of the pass: grids with fewer than 3 cells per axis, a safety
distance beyond the sonar range, sonar 0, agents at identical positions,
exact equal-distance ties, and a slow, sparse flock.

A tick of either scenario takes its pairs from one of three sources, all
picked in _Index.pairs: StaticCache (at least half the flock stopped),
else the neighbor list while it covers the step it is charged, or the grid
pass. _Index.held keeps the cache or the list across ticks, and
_Index.admit drops it after a caller's edit. One audit wraps
_Index.pairs, the one pair step: after every tick it checks the pairs and
nearest ids against a fresh scan of the agents and an O(n^2) reference,
whatever served them, and records the source, which it reads off the kind
of `held`; on a list tick it checks
that no two agents moved relative to each other by more than the list was
charged, and that the charge is the one formula's value. The bounds are
tested on _Index.admit and _Index.pairs themselves. The tests after
them run the audit on worlds that reach each corner of the cache (dense
worlds that freeze and thaw for 1000 ticks) and of the list (slack
rebuilds, a fast flock crossing the step bound both ways, hand-overs,
exact ties, head-on lanes, each corner of the charge), and on caller
edits between ticks.
A world.params replaced between ticks must take effect on the next tick.
"""

import collections
import dataclasses
import itertools
import math
import random

import pytest

from avflock import builtin_set, engine
from avflock.agents import ActionKind, random_walk_step, social_step
from avflock.core import (AgentState, CollisionRule, Scenario, SimParams,
                          Team, WorldState, displace, heading_unit,
                          torus_distance_xy)
from avflock.engine import SpatialGrid, detect_collisions, setup, tick


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
         "identical_positions", "equal_distance_ties", "slow_flock")


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
    if case == "slow_flock":
        # within the social list's density bound: reach at most 1 and at
        # most 30 agents in at least 22 x 22 m; the random walk's wider span
        # admits the smaller flocks or radii
        sonar = rng.uniform(0.5, 1.0)
        return dict(world_width=rng.uniform(22.0, 40.0),
                    world_height=rng.uniform(22.0, 40.0), sonar_range=sonar,
                    min_safety_distance=rng.uniform(0.3, sonar),
                    collision_radius=rng.uniform(0.4, 1.0))
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
            top = params.max_velocity if case == "slow_flock" else 1.0
            speed = rng.choice((0.0, rng.uniform(0.0, top)))
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
    if case == "slow_flock":
        # a new list lasts two ticks at any headings: the step is at most
        # 2 * moves * top plus the rounding allowances, and top <= 0.2 is
        # within reach / 2 (reach >= 0.4)
        top = rng.uniform(0.05, 0.2)
        speeds = dict(min_velocity=rng.uniform(0.0, top), max_velocity=top)
    else:
        speeds = dict(min_velocity=rng.uniform(0.0, 0.5),
                      max_velocity=rng.uniform(0.5, 1.0))
    params = SimParams(
        scenario=scenario, collision_rule=rule, literal_rules=literal, **speeds,
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
def test_fused_tick_equals_oracle_after_every_tick(monkeypatch, case):
    audit = _Audit(monkeypatch)
    combos = itertools.product(Scenario, CollisionRule, (False, True))
    listed = collections.Counter()
    for k, (scenario, rule, literal) in enumerate(combos):
        fused, ref = _world_pair(1000 * CASES.index(case) + k, case, scenario,
                                 rule, literal)
        before = audit.seen["list"]
        for t in range(40):
            audit.tick(fused)
            oracle_tick(ref)
            assert _state(fused) == _state(ref), (case, scenario, rule, literal, t)
        listed[scenario] += audit.seen["list"] > before
    if case == "slow_flock":
        # the worlds of both scenarios tick on the neighbor list; one social
        # world starts with more than half its agents stopped, on the cache
        assert listed[Scenario.ALL_SOCIAL_AVS] >= 5, listed
        assert listed[Scenario.RANDOM_WALK] == 6, listed


def test_tiny_grid_case_has_fewer_than_three_cells_on_an_axis():
    # the case above must reach the deduplicated-neighborhood path
    for k in range(12):
        fused, _ = _world_pair(1000 * CASES.index("tiny_grid") + k, "tiny_grid",
                               Scenario.ALL_SOCIAL_AVS, CollisionRule.PAIR_ENTRY, False)
        tick(fused)
        grid = fused.index.grid
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
        grid = SpatialGrid(w, h, max(cut, radius))
        assert grid.scan(xs, ys, radius, cut) == _brute_force(xs, ys, w, h, radius, cut)
    # on a world a whole number of cells wide, a distance that rounds down
    # onto the cut between agents whose keys are two cells apart
    xs, ys = [1.25, 1.25], [2.0, 0.9999999999999999]
    assert (SpatialGrid(16.0, 12.0, 1.0).scan(xs, ys, 0.5, 1.0)
            == _brute_force(xs, ys, 16.0, 12.0, 0.5, 1.0) == (set(), [1, 0]))
    # agents a few ulps from the edges of the first two and the last two
    # cells, on grids whose scale is lowered so that the last position
    # keys to the last cell
    def near_an_edge(side, n):
        x = rng.choice((1, 2, n - 2, n - 1, n)) * side / n
        steps = rng.randrange(-8, 9)
        for _ in range(abs(steps)):
            x = math.nextafter(x, math.copysign(math.inf, steps))
        x %= side
        return 0.0 if x >= side else x

    for w, h, cell in ((100.0, 100.0, 3.0), (6.8353003564519375, 7.8830994013644915, 1.0),
                       (436.0, 436.0, 22.94736842105263)):
        grid = SpatialGrid(w, h, cell)
        for _ in range(200):
            n = rng.randrange(2, 5)
            xs = [near_an_edge(w, grid.nx) for _ in range(n)]
            ys = [near_an_edge(h, grid.ny) for _ in range(n)]
            radius = rng.choice((cell, rng.uniform(0.0, cell)))
            cut = rng.choice((-1.0, cell, rng.uniform(0.0, cell)))
            assert grid.scan(xs, ys, radius, cut) == _brute_force(xs, ys, w, h, radius, cut)


def _brute_force(xs, ys, w, h, radius, cut):
    """The O(n^2) reference of a pair pass: the pairs (i < j) strictly inside
    `radius`, and per agent its nearest other agent within `cut` as the
    least (distance, id), or -1."""
    pairs = set()
    nearest = [(math.inf, -1)] * len(xs)
    reach = max(radius, cut)
    for i, j in itertools.combinations(range(len(xs)), 2):
        dx = abs(xs[i] - xs[j])
        if dx > reach and w - dx > reach:
            continue  # the distance is at least the wrapped x distance
        d = torus_distance_xy(xs[i], ys[i], xs[j], ys[j], w, h)
        if d < radius:
            pairs.add((i, j))
        if d <= cut:
            nearest[i] = min(nearest[i], (d, j))
            nearest[j] = min(nearest[j], (d, i))
    return pairs, [j for _, j in nearest]


def test_scan_buckets_the_positions_it_is_given():
    # a grid last bucketed elsewhere, or never, answers for these positions
    grid = SpatialGrid(10.0, 10.0, 1.0)
    assert grid.scan([1.0, 1.2], [1.0, 1.0], 1.0, 1.0) == ({(0, 1)}, [1, 0])
    grid.rebuild([1.0, 5.0], [1.0, 5.0])
    assert grid.scan([1.0, 1.2], [1.0, 1.0], 1.0, 1.0) == ({(0, 1)}, [1, 0])
    rng = random.Random(11)
    for _ in range(200):
        w, h = rng.uniform(1.0, 30.0), rng.uniform(1.0, 30.0)
        radius, cut = rng.uniform(0.05, 3.0), rng.choice((-1.0, rng.uniform(0.0, 3.0)))
        grid = SpatialGrid(w, h, max(radius, cut))
        for _ in range(3):  # more, fewer or as many agents as the last scan
            n = rng.randrange(1, 40)
            xs = [rng.uniform(0.0, w) for _ in range(n)]
            ys = [rng.uniform(0.0, h) for _ in range(n)]
            assert (grid.scan(xs, ys, radius, cut)
                    == _brute_force(xs, ys, w, h, radius, cut))


def test_static_cache_buckets_its_own_grid():
    # a cache made on a grid bucketed at other positions, or never, serves
    # what a fresh scan serves, tick after tick
    rng = random.Random(12)
    for world in range(100):
        w, h = rng.uniform(2.0, 20.0), rng.uniform(2.0, 20.0)
        radius, cut = rng.uniform(0.2, 2.0), rng.uniform(0.0, 2.0)
        n = rng.randrange(2, 40)
        xs = [rng.uniform(0.0, w) for _ in range(n)]
        ys = [rng.uniform(0.0, h) for _ in range(n)]
        grid = SpatialGrid(w, h, max(radius, cut))
        if world % 2:
            grid.rebuild([rng.uniform(0.0, w) for _ in range(n + 5)],
                         [rng.uniform(0.0, h) for _ in range(n + 5)])
        cache = engine.StaticCache(grid, xs, ys)
        speeds = [rng.choice((0.0, 0.0, 0.5)) for _ in range(n)]
        for _ in range(5):
            moved = [i for i, sp in enumerate(speeds) if sp]
            got = cache.scan(speeds, moved, xs, ys, radius, cut)
            fresh = SpatialGrid(w, h, grid.cell_size).scan(xs, ys, radius, cut)
            assert got == fresh == _brute_force(xs, ys, w, h, radius, cut)
            for i in moved:
                xs[i] = (xs[i] + rng.uniform(-0.5, 0.5)) % w
                ys[i] = (ys[i] + rng.uniform(-0.5, 0.5)) % h


def test_scan_rejects_reach_beyond_cell():
    grid = SpatialGrid(10.0, 10.0, 1.0)
    with pytest.raises(ValueError, match="cell size"):
        grid.scan([], [], 1.5, -1.0)
    assert grid.scan([], [], 1.0, math.nextafter(1.0, 0.0)) == (set(), [])


# One audit for every pair source of both scenarios. Its `tick` records the
# world, where its agents start and the trig memo's headings, and ticks it;
# it wraps _Index.pairs, checks that the tick's position snapshot is where
# the move kernel left the agents, checks each tick against a fresh
# fine-grid scan of the agents' own positions and _brute_force, checks a
# held list's charge against the agents' largest relative move, records the
# source served (the kind of `held` after the pair step, which must match
# the tick's stopped share), and counts the corner cases the ticks met, so
# each test can show that it reached them. A later source is audited by the
# same code.

class _Audit:
    def __init__(self, monkeypatch, ties: bool = False):
        # per source, the ticks it served; per corner, the times it was met
        self.seen = collections.Counter()
        self.sources: list[str] = []  # per tick, "end" between worlds
        self.ties = ties
        self.world: WorldState | None = None  # the world `tick` is ticking
        # where its agents started the tick, and the memo's headings then
        self.start: list[tuple[float, float]] = []
        self.memo: set = set()
        pair_step = engine._Index.pairs
        # a second audit would wrap the first and audit each tick twice
        assert pair_step.__qualname__ == "_Index.pairs", "already audited"

        def audited(index, xs, ys, speeds, moved):
            held, slack = index.held, index.slack
            listed = held if isinstance(held, list) else None
            # StaticCache.scan edits the cache in place
            before = isinstance(held, engine.StaticCache) and (
                held.static[:], held.near[:], set(held.pairs), held.cells[:])
            got = pair_step(index, xs, ys, speeds, moved)
            source = _served(index)
            assert (source == "cache") == (2 * len(moved) <= len(xs))
            self.sources.append(source)
            self.seen[source] += 1
            agents = self.world.agents  # None: ticked without the audit's tick
            # a kernel that moves an agent must move the snapshot too
            assert xs == [a.x for a in agents]
            assert ys == [a.y for a in agents]
            xs = [a.x for a in agents]
            ys = [a.y for a in agents]
            p = index.params
            w, h = p.world_width, p.world_height
            ref = SpatialGrid(w, h, index.grid.cell_size)
            assert got == ref.scan(xs, ys, p.collision_radius, index.cut)
            # every source and the reference scan share _measure: check it
            # against its own oracle too
            assert got == _brute_force(xs, ys, w, h, p.collision_radius, index.cut)
            if source == "list":
                self._list(index, listed, slack, speeds, xs, ys, p)
                return got
            # the grid's one bucket map follows the movers: each cell holds
            # the ids a fresh rebuild puts there, in any order
            assert ({k: sorted(b) for k, b in index.grid.buckets.items()}
                    == {k: sorted(b) for k, b in ref.buckets.items()})
            if source == "cache":
                if index.held is not held:  # a new cache: none static yet
                    before = ([False] * len(xs), [-1] * len(xs), set(), None)
                self._cache(index.held, before, speeds, xs, ys, index.cut)
            return got

        monkeypatch.setattr(engine._Index, "pairs", audited)

    def tick(self, world: WorldState) -> None:
        """Tick `world`, every pair step of it audited."""
        self.world = world
        self.start = [(a.x, a.y) for a in world.agents]
        index = world.index
        fresh = index is None or index.params is not world.params
        self.memo = set() if fresh else set(index.trig)
        try:
            tick(world)
        finally:
            self.world = None

    def _cache(self, cache, before, speeds, xs, ys, cut):
        seen = self.seen
        static, near, pairs, cells = before
        moved = [i for i, sp in enumerate(speeds) if sp != 0.0]
        seen["static_on_static"] += sum(xs[i] == xs[j] and ys[i] == ys[j]
                                        for i, j in pairs)
        for i in moved:
            if static[i]:
                seen["thaw"] += 1
                # (a) a cached nearest thaws and leaves its cell
                seen["nearest_thaws_across_cells"] += (
                    any(static[j] and near[j] == i for j in range(len(near)))
                    and cache.grid.key(xs[i], ys[i]) != cells[i])
        seen["freeze"] += (len(xs) - len(moved)) - (
            sum(static) - sum(static[i] for i in moved))
        g = cache.grid
        for i, stopped in enumerate(cache.static):
            if not stopped:
                continue
            for j in moved:
                d = torus_distance_xy(xs[i], ys[i], xs[j], ys[j], g.width, g.height)
                if d == cache.best[i]:
                    # (c) a mover exactly as far as a static nearest
                    seen["tie_lower_id" if j < cache.near[i]
                         else "tie_higher_id"] += 1
                seen["mover_at_cut"] += d == cut
                seen["mover_on_static"] += d == 0.0
        seen["mover_on_mover"] += sum(xs[i] == xs[j] and ys[i] == ys[j]
                                      for i, j in itertools.combinations(moved, 2))

    def _list(self, index, listed, slack, speeds, xs, ys, p):
        seen = self.seen
        built = index.held is not listed
        seen["built" if built else "served"] += 1
        step = index.step
        # the one charge, from the speeds and the memo after the move
        assert step == _step(index, speeds)
        if listed is not None:
            # the charge covers the tick: no two agents moved farther
            # relative to each other, measured on the torus, than it
            assert _largest_relative_move(self.start, xs, ys, p) <= step
            self._charge(speeds, p)
        if not built:
            assert slack >= step  # a list serves while its slack covers a tick
            # (a) a list serving a tick it was already charged for
            seen["served_again"] += slack < index.skin * (1.0 - 1e-9)
        else:
            assert 2.0 * step <= index.skin  # a new list lasts two ticks
            if listed is not None:  # _Index.admit drops a list the caller moved
                # (b) a list rebuilt only because its slack ran out
                assert slack < step
                seen["slack_rebuild"] += 1
        if self.ties:
            for i, j in itertools.combinations(range(len(xs)), 2):
                d = torus_distance_xy(xs[i], ys[i], xs[j], ys[j], p.world_width,
                                      p.world_height)
                seen["at_radius"] += d == p.collision_radius
                seen["at_cut"] += d == index.cut
                seen["at_span"] += built and d == index.wide.cell_size

    def _charge(self, speeds, p):
        """Count which corner of the charge a list tick met: the random
        walk's two moves, a negative speed, a stopped agent, head-on movers
        or a heading the memo lacked before the move."""
        seen = self.seen
        seen["charge_random_walk"] += p.scenario is Scenario.RANDOM_WALK
        seen["charge_negative_speed"] += min(speeds) < 0.0
        movers = [a.heading for a, sp in zip(self.world.agents, speeds) if sp]
        seen["charge_stopped"] += 0.0 in speeds
        seen["charge_head_on"] += any(
            (a - b) % 360.0 == 180.0
            for a, b in itertools.permutations({hd % 360.0 for hd in movers}, 2))
        seen["charge_new_heading"] += any(hd not in self.memo for hd in movers)


def _served(index) -> str:
    """The source that served the pair step `index` just took, by the kind
    of what it holds after it."""
    if isinstance(index.held, engine.StaticCache):
        return "cache"
    return "grid" if index.held is None else "list"


def _step(index, speeds) -> float:
    """The list's charge for a tick that started with `speeds`: `moves`
    times the largest closing of two agents at speeds in [lo, top] on
    headings at most the memo's covering arc apart (a negative speed: any
    headings, from lo 0), plus the rounding allowances."""
    lo, top = min(speeds), max(map(abs, speeds))
    if lo < 0.0:
        chord, lo = 2.0, 0.0
    else:
        angles = sorted(hd % 360.0 for hd in index.trig)
        gap = max(b - a for a, b in zip(angles, angles[1:] + [angles[0] + 360.0]))
        chord = 2.0 * math.sin(math.radians(min(360.0 - gap, 180.0)) / 2.0)
    bound = max(chord * top, math.hypot(top - lo, chord * math.sqrt(lo * top)))
    return index.moves * (bound + 1e-9 * top + 2.0 * index.grid.ulp)


def _largest_relative_move(start, xs, ys, p):
    """The largest distance by which two agents moved relative to each
    other from `start` to (xs, ys), on the torus: each agent's move is
    known only up to whole turns, and so is their difference."""
    w, h = p.world_width, p.world_height
    moves = [(x - x0, y - y0) for (x0, y0), x, y in zip(start, xs, ys)]
    largest = 0.0
    for (dxi, dyi), (dxj, dyj) in itertools.combinations(moves, 2):
        rx = (dxi - dxj) % w
        ry = (dyi - dyj) % h
        largest = max(largest, math.hypot(min(rx, w - rx), min(ry, h - ry)))
    return largest


def _audited(monkeypatch, worlds, ticks: int = 1000, ties: bool = False):
    """Tick each world with every tick audited; returns the audit's
    counts and the count of each (source, next source) pair of ticks."""
    audit = _Audit(monkeypatch, ties)
    for world in worlds:
        for _ in range(ticks):
            audit.tick(world)
        audit.sources.append("end")
    return audit.seen, collections.Counter(zip(audit.sources, audit.sources[1:]))


# The bounds. _Index.pairs serves the cache from exactly half stopped; past
# that, it serves a held list while its slack covers the tick's
# step, builds a new one up to exactly 2 * step == skin (it lasts two ticks)
# and up to `cap` agents of the world it serves, and takes the grid pass past
# either bound, in both scenarios.

def _fastest_listed(index) -> float:
    """The largest speed q at which a new list still serves a flock at
    speeds 0 and q, or q alone, on head-on headings, which it adds to the
    memo of `index`: the largest with 2 * step <= skin."""
    for hd in (90.0, 270.0):  # the memo's arc is then 180 degrees
        index.trig[hd] = heading_unit(hd)
    # about where 2 * step == skin: step = moves * (2 q + 1e-9 q + 2 ulp)
    q = (index.skin / (2.0 * index.moves) - 2.0 * index.grid.ulp) / (2.0 + 1e-9)
    while 2.0 * _step(index, [0.0, q]) <= index.skin:
        q = math.nextafter(q, math.inf)
    while 2.0 * _step(index, [0.0, q]) > index.skin:
        q = math.nextafter(q, 0.0)
    return q


def test_source_takes_each_bound_inclusively():
    # reach 1. Social: skin 2, span 3, and a 9 pi x 32 m world caps the list
    # at 64 agents; a random walker moves twice a tick: skin 4, span 5
    for scenario, width, skin in ((Scenario.ALL_SOCIAL_AVS, 9 * math.pi, 2.0),
                                  (Scenario.RANDOM_WALK, 25 * math.pi, 4.0)):
        index = engine._Index(SimParams(scenario=scenario, world_width=width,
                                        world_height=32.0))
        assert (index.skin, index.wide.cell_size, index.cap) == (skin, skin + 1, 64.0)
        q = _fastest_listed(index)
        assert 2.0 * _step(index, [0.0, q]) == skin  # the bound is met exactly
        above = math.nextafter(q, math.inf)

        def source(speeds, held=None):
            """The source of a tick from `speeds` whose agents sit at the
            origin, where the last tick left them, with list `held` and its
            slack, if given, held."""
            index.held, index.slack = held or (None, 0.0)
            zeros = index.xs = index.ys = [0.0] * len(speeds)
            kept = index.held
            speeds, _, xs, ys = index.admit(_lane(speeds, zeros, zeros))
            assert index.held is kept  # where the last tick left them
            moved = [i for i, sp in enumerate(speeds) if sp]
            index.pairs(xs, ys, speeds, moved)
            return _served(index)

        assert source([0.0, 0.0, q, q]) == "cache"  # exactly half stopped
        assert source([0.0, q, q, q]) == "list"
        assert source([above, q, q, q]) == "grid"
        # a negative speed moves an agent back: it counts by its size
        assert source([-above, q, q, q]) == "grid"
        assert source([-q, q, q, q]) == "list"
        assert source([q] * 64) == "list"
        assert source([q] * 65) == "grid"
        # a held list serves while its slack covers the step, here past the
        # bound a new list needs
        held = [(0, [1])]
        step = _step(index, [0.0, above])
        assert source([0.0, above, q, q], (held, step)) == "list"
        assert index.held is held and index.slack == 0.0
        assert source([0.0, above, q, q],
                      (held, math.nextafter(step, 0.0))) == "grid"
        step = _step(index, [0.0, q])
        assert source([0.0, q, q, q], (held, math.nextafter(step, 0.0))) == "list"
        assert index.held is not held  # a new list
        assert index.slack == skin * (1.0 - 1e-9)


def _lane(speeds, xs, ys):
    """Agents at (xs[i], ys[i]) on heading 90 at speeds[i]."""
    return [AgentState(i, Team.RED, x, y, 90.0, sp)
            for i, (sp, x, y) in enumerate(zip(speeds, xs, ys))]


class _Compared(list):
    """A recorded position list that keeps the result of each comparison
    made with it."""

    def __init__(self, items):
        super().__init__(items)
        self.results = []

    def __ne__(self, other):
        self.results.append(list.__ne__(self, other))
        return self.results[-1]

    __eq__ = None  # an admission that compared with == would fail here


def test_source_drops_the_state_of_the_others():
    # `held` is one slot: the pair step replaces a held list with a cache
    # and a held cache with a list, and a grid tick drops either
    index = engine._Index(SimParams())
    xs, ys = [1.0, 2.0], [3.0, 4.0]
    index.trig[90.0] = heading_unit(90.0)  # the movers' heading
    index.held = [(0, [1])]
    # agent 1 moves: half stopped
    index.pairs(xs, ys, [0.0, 0.3], [1])
    held = index.held
    assert isinstance(held, engine.StaticCache)
    index.pairs(xs, ys, [0.0, 0.3], [1])
    assert index.held is held
    index.pairs(xs, ys, [0.3, 0.3], [0, 1])
    held = index.held
    assert isinstance(held, list)
    index.pairs(xs, ys, [0.3, 0.3], [0, 1])
    assert index.held is held
    # a grid tick drops the list, so that no state outlives it, and the
    # next tick, holding none, still compares the positions, each axis once
    index.pairs(xs, ys, [9.0, 0.3], [0, 1])
    assert index.held is None
    last = index.xs, index.ys = _Compared(xs), _Compared(ys)  # as recorded
    assert index.admit(_lane([9.0, 0.3], xs, ys))[2:] == (xs, ys)
    assert index.held is None
    # each axis compared once, and found where the last tick left it
    assert [v.results for v in last] == [[False], [False]]


@pytest.mark.parametrize("speeds, source, state", [
    ([0.0, 0.0, 0.3], "cache", "frozen"), ([0.3, 0.3, 0.3], "list", "listed")])
@pytest.mark.parametrize("edit", [None, "x", "y"])
def test_source_holds_state_only_where_the_last_tick_left_the_agents(
        speeds, source, state, edit):
    # `state` names what the tick at `speeds` leaves held: the cache of the
    # frozen agents or the listed pairs
    index = engine._Index(SimParams())
    moved = [i for i, sp in enumerate(speeds) if sp]
    agents = _lane(speeds, [1.0, 2.0, 5.0], [3.0, 4.0, 5.0])
    index.held = [(0, [1])]
    _, _, xs, ys = index.admit(agents)
    assert index.held is None  # nothing recorded: a first tick
    assert index.xs is xs and index.ys is ys  # recorded once checked
    index.trig[90.0] = heading_unit(90.0)  # the movers' heading
    index.pairs(xs, ys, speeds, moved)
    assert _served(index) == source
    held = index.held
    assert {"frozen": engine.StaticCache, "listed": list}[state] is type(held)
    # the move kernel moves the snapshot the tick took, in place, with the agent
    agents[2].x = xs[2] = xs[2] + 0.3
    agents[2].y = ys[2] = ys[2] - 0.3
    if edit == "x":  # a caller moved one agent along x
        agents[0].x = math.nextafter(xs[0], 0.0)
    elif edit == "y":  # or another along y alone
        agents[1].y = math.nextafter(ys[1], math.inf)
    last = index.xs, index.ys = _Compared(xs), _Compared(ys)
    index.admit(agents)
    assert (True in last[0].results + last[1].results) is (edit is not None)
    assert index.held is (held if edit is None else None)
    assert max(len(v.results) for v in last) <= 1  # each axis compared at most once


@pytest.mark.parametrize("agents, per_team, source", [(20, 40, "list"),
                                                      (400, 10, "grid")])
def test_list_density_bound_counts_the_world(monkeypatch, agents, per_team,
                                             source):
    # the list caps 30 x 30 m at 63 agents: the world's count decides, not
    # the params' team sizes, which a caller-built world need not match
    params = SimParams(n_red=per_team, n_black=per_team, world_width=30.0,
                       world_height=30.0)
    world = setup(dataclasses.replace(params, n_red=agents // 2,
                                      n_black=agents // 2), 0)
    world.params = params
    seen, _ = _audited(monkeypatch, [world], ticks=3)
    assert seen[source] == 3


# The stopped-agent cache. On ticks where at least half the flock is
# stopped, `tick` measures only the pairs with a mover in them and takes
# the rest from StaticCache.

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


def test_static_cache_flock_crosses_half_both_ways(monkeypatch):
    # past the list's density bound: every other tick is a grid pass
    seen, flips = _audited(monkeypatch, [_flock(seed) for seed in range(2)])
    assert flips["grid", "cache"] >= 2 and flips["cache", "grid"] >= 2  # (d)
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
    seen, _ = _audited(monkeypatch, worlds)
    assert seen["cache"] > 1000 and seen["thaw"] > 0
    assert seen["nearest_thaws_across_cells"] > 0


def test_static_cache_exact_ties_and_cut(monkeypatch):
    seen, _ = _audited(monkeypatch, [_lattice_world(seed) for seed in range(4)])
    assert seen["tie_lower_id"] > 0 and seen["tie_higher_id"] > 0  # (c)
    assert seen["mover_at_cut"] > 0


def test_static_cache_identical_positions(monkeypatch):
    seen, _ = _audited(monkeypatch, [_lattice_world(seed, stacked=True)
                                     for seed in range(4)])
    assert seen["mover_on_mover"] > 0 and seen["mover_on_static"] > 0  # (e)
    assert seen["static_on_static"] > 0


def test_static_cache_tiny_grid(monkeypatch):
    worlds = [_flock(seed, n_red=10, n_black=10, world_width=2.5,
                     world_height=30.0, sonar_range=1.2) for seed in (3, 4)]
    seen, _ = _audited(monkeypatch, worlds)
    assert all(w.index.grid.nx < 3 for w in worlds)  # (e)
    assert seen["thaw"] > 0 and seen["nearest_thaws_across_cells"] > 0


# The neighbor list. On ticks below half stopped, while the flock is
# slow and sparse, `tick` measures a list of the pairs that were closer than
# reach + skin when it was built, and rebuilds the list only when the flock
# could have closed the skin.

def _slow_flock(seed: int, **changes) -> WorldState:
    # sparse enough for the social list's density bound (0.63) and, at
    # 0.5 m a tick on two headings 30 degrees apart, charged at most 0.5 m
    # a tick: a new list lasts at least two ticks of its 2 m skin
    params = dict(n_red=20, n_black=20, world_width=30.0, world_height=30.0,
                  min_velocity=0.3, max_velocity=0.5, deceleration=0.1,
                  max_acceleration=0.3)
    params.update(changes)
    return setup(SimParams(**params), seed)


def _slow_walk(seed: int) -> WorldState:
    # 10 + 10 random walkers lie within their list's density bound (22.9).
    # A walker moves twice a tick and its turns soon cover 180 degrees, so a
    # tick is charged 4 * max |speed|: at 0.4 m a move a new list lasts two
    # ticks of the 4 m skin, where 0.5 m would use it up in one
    return _slow_flock(seed, scenario=Scenario.RANDOM_WALK, n_red=10, n_black=10,
                       max_velocity=0.4)


def test_list_serves_several_ticks_and_rebuilds_on_slack(monkeypatch):
    seen, _ = _audited(monkeypatch, [_slow_flock(seed) for seed in range(2)])
    assert seen["served_again"] > 0  # (a) one list, three ticks
    assert seen["slack_rebuild"] > 0  # (b)


def test_list_speed_gate_turns_off_and_on(monkeypatch):
    # recovery takes agents to the reach, 1 m a tick, where a new list
    # charged at least max |speed| a tick, as it is beside a stopped agent,
    # would not last two ticks; mirroring a neighbor slows them again. The
    # density stays within the list's bound
    world = _slow_flock(0, n_red=12, n_black=12, world_width=24.0,
                        world_height=24.0, max_velocity=1.0, max_acceleration=0.1)
    _, flips = _audited(monkeypatch, [world])
    assert flips["list", "grid"] >= 2 and flips["grid", "list"] >= 2  # (c)


def test_list_hands_over_to_the_cache_and_back(monkeypatch):
    _, flips = _audited(monkeypatch, [_slow_flock(1)])
    assert flips["list", "cache"] > 0 and flips["cache", "list"] > 0  # (d)


def _list_lattice_world(seed: int) -> WorldState:
    # a 0.25 m lattice, axis headings and speeds 0 or 0.25, the fastest on
    # the lattice that a list serves head-on: pair distances fall exactly
    # on the radius (0.5), the cut (1) and reach + skin (3). A mirror keeps
    # its neighbor's speed, and a stopped agent starts again, so the flock
    # stays off the cache
    rng = random.Random(seed)
    params = SimParams(n_red=6, n_black=6, world_width=16.0, world_height=12.0,
                       min_velocity=0.0, max_velocity=0.25, max_acceleration=0.25,
                       deceleration=0.0, sonar_range=1.0, min_safety_distance=1.5,
                       collision_radius=0.5)
    agents = [AgentState(id=i, team=Team.RED if i < 6 else Team.BLACK,
                         x=rng.randrange(64) * 0.25, y=rng.randrange(48) * 0.25,
                         heading=rng.choice((0.0, 90.0, 180.0, 270.0)),
                         speed=rng.choice((0.0, 0.25, 0.25)))
              for i in range(12)]
    return WorldState(agents=agents, params=params, rng=random.Random(seed))


def test_list_exact_ties(monkeypatch):
    worlds = [_list_lattice_world(seed) for seed in range(4)]
    seen, _ = _audited(monkeypatch, worlds, ties=True)
    assert seen["at_radius"] > 0 and seen["at_cut"] > 0 and seen["at_span"] > 0  # (e)


def _lanes_world(x0: float, speed: float | None, radius: float,
                 width: float) -> WorldState:
    """Ten lanes, each with a pair that closes head-on at 2 * speed a tick
    and, after the first tick's move, starts at reach + skin = 3 * radius
    plus k / 10 radii: the first list leaves every pair out. Sonar 0 keeps
    each agent on its heading. Speed None is the fastest a list serves."""
    params = SimParams(n_red=10, n_black=10, world_width=width,
                       world_height=width, max_acceleration=0.0, deceleration=0.0,
                       sonar_range=0.0, collision_radius=radius)
    if speed is None:
        speed = _fastest_listed(engine._Index(params))
    params = dataclasses.replace(params, min_velocity=speed, max_velocity=speed)
    agents = []
    for k in range(10):
        y = x0 + 4 * k * radius
        gap = 3 * radius + 2 * speed + k * radius / 10
        agents.append(AgentState(id=2 * k, team=Team.RED, x=x0, y=y,
                                 heading=90.0, speed=speed))
        agents.append(AgentState(id=2 * k + 1, team=Team.BLACK, x=x0 + gap, y=y,
                                 heading=270.0, speed=speed))
    return WorldState(agents=agents, params=params, rng=random.Random(0))


@pytest.mark.parametrize("x0, speed, radius, width, ticks", [
    # at the bound, a pair closes the whole skin, less the rounding
    # allowances, in two ticks
    (10.0, None, 1.0, 50.0, 20),
    # a crawling flock: near 1.2e7 a coordinate's ulp is 1.86e-9, so each
    # 1e-9 m move rounds to a 1.86e-9 m one, and only the rounding
    # allowance keeps the list exact over the 5400 to 7800 ticks the
    # pairs take to meet
    (1.2e7, 1e-9, 1e-5, 2.0 ** 24, 8000),
], ids=["speed_bound", "crawl"])
def test_list_head_on_lanes(monkeypatch, x0, speed, radius, width, ticks):
    world = _lanes_world(x0, speed, radius, width)
    seen, _ = _audited(monkeypatch, [world], ticks)
    assert seen["list"] == ticks
    assert seen["slack_rebuild"] > 0  # (f)
    assert world.total_collisions == 10  # every lane's pair met once


# The list's charge: on a social tick with no negative speed, the largest
# closing speed of two agents over the tick's heading arc and speed range;
# else 2 * moves * max |speed|. The audit checks every charged tick against
# the agents' largest relative move; each world below reaches one branch.

def _stopped_flock() -> WorldState:
    # two headings, 90 and 120; a stopped agent closes on a mover at the
    # mover's full speed, the (top, lo) corner of the bound
    world = _slow_flock(0)
    for a in world.agents[::4]:
        a.speed = 0.0
    return world


def _parade() -> WorldState:
    # one heading and one speed: nothing closes, and the charge is the
    # rounding allowance alone until a caller turns an agent. Sonar 0 keeps
    # each agent on its heading
    world = _slow_flock(0, min_velocity=0.3, max_velocity=0.3, sonar_range=0.0)
    for a in world.agents:
        a.heading = 90.0
    return world


def _turn_about(world: WorldState, t: int) -> None:
    # onto a heading the trig memo lacks, after the list was built
    if t == 10:
        world.agents[0].heading = 270.0


def _reverse(world: WorldState, t: int) -> None:
    if t == 1:  # after the first list is built
        world.agents[0].speed = -0.45


CHARGES = {
    "stopped": (_stopped_flock, None),
    "new_heading": (_parade, _turn_about),
    "negative_speed": (lambda: _hand_made(_HEAD_ON_AFTER_REVERSING)[0], _reverse),
    "head_on": (lambda: _lanes_world(10.0, None, 1.0, 50.0), None),
    "random_walk": (lambda: _slow_walk(0), None),
}


@pytest.mark.parametrize("branch", CHARGES)
def test_list_charge_covers_each_branch(monkeypatch, branch):
    make, edit = CHARGES[branch]
    audit = _Audit(monkeypatch)
    world = make()
    for t in range(60):
        if edit is not None:
            edit(world, t)
        audit.tick(world)
    assert audit.seen["charge_" + branch] > 0, audit.seen


def test_list_builds_at_the_social_scale_density(monkeypatch):
    # social_scale's set1 flock at a tenth of its size, on the same
    # density: charging the list by relative motion builds it 15 times in
    # 100 ticks, where 2 * max |speed| a tick built it 25 times
    grids = []
    scan = SpatialGrid.scan

    def counted(grid, *args):
        grids.append(grid)
        return scan(grid, *args)

    monkeypatch.setattr(SpatialGrid, "scan", counted)
    params = dataclasses.replace(builtin_set("set1").configurations[0],
                                 n_red=200, n_black=200, world_width=111.8,
                                 world_height=111.8, ticks=100)
    world = setup(params, 0)
    for _ in range(params.ticks):
        tick(world)
    assert sum(g is world.index.wide for g in grids) == 15


def test_list_serves_the_fast_social_flock(monkeypatch):
    # set2's fast flock (0.9 m a tick at most) at a tenth of social_scale's
    # size, on the same density: a new list lasts two ticks at the step it
    # is charged, so the grid pass serves no tick, where a gate on
    # 2 * max |speed| a tick left it 69
    served = collections.Counter()
    pair_step = engine._Index.pairs

    def counted(index, *args):
        held = index.held
        got = pair_step(index, *args)
        source = _served(index)
        served[source] += 1
        served["built"] += source == "list" and index.held is not held
        return got

    monkeypatch.setattr(engine._Index, "pairs", counted)
    params = dataclasses.replace(builtin_set("set2").configurations[0],
                                 n_red=200, n_black=200, world_width=111.8,
                                 world_height=111.8, ticks=300)
    assert params.scenario is Scenario.ALL_SOCIAL_AVS
    world = setup(params, 0)
    for _ in range(params.ticks):
        tick(world)
    assert [served[k] for k in ("cache", "list", "grid", "built")] == [224, 76, 0, 25]


# tick() is public and WorldState mutable: an edit a caller makes between
# ticks must reach the next tick's result, whichever source served the last.

def _edit(world: WorldState, edit: str) -> None:
    agents = world.agents
    w, h = world.params.world_width, world.params.world_height
    # a stopped agent if there is one, which leaves the cache when it moves,
    # and the agent farthest from it, away from its cached or listed pairs
    a = next((a for a in agents if a.speed == 0.0), agents[0])
    far = max(agents, key=lambda b: torus_distance_xy(a.x, a.y, b.x, b.y, w, h))
    if edit == "move":
        a.x, a.y = far.x, far.y  # onto that agent: the pair collides
    elif edit == "speed":
        # too fast for any list, and a mover that stops
        a.speed = 1.5
        next(b for b in agents if b.speed != 0.0 and b is not a).speed = 0.0
    elif edit == "stop_at_edge":
        a.speed, a.x = 0.0, math.nextafter(w, 0.0)
    elif edit == "stop_at_top":  # y alone changes
        a.speed, a.y = 0.0, math.nextafter(h, 0.0)
    else:
        copies = [dataclasses.replace(b) for b in agents]
        copies[a.id].x, copies[a.id].y, copies[far.id].x, copies[far.id].y = (
            far.x, far.y, a.x, a.y)
        world.agents = copies


def _follows_caller_edits(audit, source, make, ticks: int, edit: str):
    """Tick a world from `make` through `audit` and its oracle copy for
    `ticks`, editing both, at least 5 ticks apart, right after a tick
    `source` served (a list: built), which would otherwise serve the next
    tick too."""
    fused, ref = make(), make()
    edits = []
    for t in range(ticks):
        built = audit.seen["built"]
        audit.tick(fused)
        oracle_tick(ref)
        assert _state(fused) == _state(ref), (source, edit, t)
        served = {"cache": audit.sources[-1:] == ["cache"],
                  "list": audit.seen["built"] > built, "random": True}[source]
        if served and t < ticks - 5 and (not edits or t >= edits[-1] + 5):
            _edit(fused, edit)
            _edit(ref, edit)
            edits.append(t)
    assert edits, audit.seen
    return fused


EDITS = ("move", "speed", "stop_at_edge", "stop_at_top", "replace_agents")


@pytest.mark.parametrize("edit", [pytest.param("move", id="move_stopped"),
                                  *EDITS[1:]])
def test_static_cache_follows_caller_edits(monkeypatch, edit):
    _follows_caller_edits(_Audit(monkeypatch), "cache", lambda: _flock(0), 160,
                          edit)


@pytest.mark.parametrize("edit", EDITS)
def test_list_follows_caller_edits(monkeypatch, edit):
    audit = _Audit(monkeypatch)
    for make in (lambda: _slow_flock(0), lambda: _slow_walk(0)):
        _follows_caller_edits(audit, "list", make, 60, edit)


@pytest.mark.parametrize("edit", EDITS)
@pytest.mark.parametrize("width", [15.96, 1.95])
def test_random_walk_buckets_follow_caller_edits(monkeypatch, width, edit):
    # a 1.95 m wide world has 1 cell along x
    fused = _follows_caller_edits(_Audit(monkeypatch), "random", lambda: _flock(
        0, scenario=Scenario.RANDOM_WALK, n_red=10, n_black=10,
        world_width=width, sonar_range=0.5), 40, edit)
    # x * (nx / width) rounds up to nx here: the key must clamp it
    nx = fused.index.grid.nx
    assert int(math.nextafter(width, 0.0) * (nx / width)) == nx
    assert (nx < 3) == (width < 3.0)


# A caller may replace world.params between ticks; the next tick must use
# the new grid size, cut and scenario.

@pytest.mark.parametrize("field, before, after", [
    ("collision_radius", 1.0, 3.0),
    ("sonar_range", 2.5, 0.3),
    ("scenario", Scenario.ALL_SOCIAL_AVS, Scenario.RANDOM_WALK),
    ("scenario", Scenario.RANDOM_WALK, Scenario.ALL_SOCIAL_AVS),
])
def test_replaced_params_take_effect(field, before, after):
    fused, ref = _flock(0, **{field: before}), _flock(0, **{field: before})
    for t in range(30):
        if t == 5:
            for world in (fused, ref):
                world.params = dataclasses.replace(world.params, **{field: after})
        tick(fused)
        oracle_tick(ref)
        assert _state(fused) == _state(ref), (field, t)
    p = fused.params
    cut = (min(p.sonar_range, p.min_safety_distance)
           if p.scenario is Scenario.ALL_SOCIAL_AVS else -1.0)
    assert fused.index.cut == cut
    assert fused.index.grid.cell_size == max(cut, p.collision_radius)


def _hand_made(spots) -> tuple[WorldState, WorldState]:
    """Two copies of a 30 x 30 m world of 2 + 2 agents at (x, y, heading,
    speed) in `spots`, for the oracle and the fused tick."""
    params = SimParams(n_red=2, n_black=2, world_width=30.0, world_height=30.0,
                       min_velocity=0.25, max_velocity=0.25, deceleration=0.1,
                       max_acceleration=0.1)
    return tuple(WorldState(agents=[
        AgentState(id=i, team=Team.RED if i < 2 else Team.BLACK, x=x, y=y,
                   heading=hd, speed=sp) for i, (x, y, hd, sp) in enumerate(spots)],
        params=params, rng=random.Random(0)) for _ in range(2))


# agent 0 meets agent 1 head-on once it is given a negative speed; every
# heading is the same, so only the negative speed's own rule charges that
_HEAD_ON_AFTER_REVERSING = [(10.0, 10.0, 270.0, 0.25), (13.05, 10.0, 270.0, 0.25),
                            (25.0, 25.0, 270.0, 0.25), (5.0, 25.0, 270.0, 0.25)]


def test_list_bounds_a_negative_speed_by_its_size():
    # a negative speed moves an agent back. Here the others move 0.25 m a
    # tick, so a step bound on max(speeds) would let the list serve three
    # ticks in which the -0.45 m agent and the one it meets head-on close
    # 2.1 m, more than the 2 m skin
    fused, ref = _hand_made(_HEAD_ON_AFTER_REVERSING)
    for t in range(8):
        if t == 1:  # after the first list is built, 3.05 m apart
            assert fused.index.held == []
            fused.agents[0].speed = ref.agents[0].speed = -0.45
        tick(fused)
        oracle_tick(ref)
        assert _state(fused) == _state(ref), t
    assert fused.total_collisions == 1


def test_list_returning_from_the_cache_is_rebuilt(monkeypatch):
    # a list is not charged for the ticks the cache serves. Here a pair
    # 3.1 m apart, beyond reach + skin when the first list is built, closes
    # 2 m while agent 2's stop puts half the flock on the cache, and must
    # be measured when agent 2 starts again and the list returns
    fused, ref = _hand_made([(10.0, 10.0, 90.0, 0.25), (13.6, 10.0, 270.0, 0.25),
                             (25.0, 25.0, 0.0, 0.25), (5.0, 25.0, 0.0, 0.0)])
    audit = _Audit(monkeypatch)
    for t in range(8):
        if t in (1, 5):
            fused.agents[2].speed = ref.agents[2].speed = 0.25 if t == 5 else 0.0
        audit.tick(fused)
        oracle_tick(ref)
        assert _state(fused) == _state(ref), t
    assert audit.sources == ["list"] + ["cache"] * 4 + ["list"] * 3
    assert fused.total_collisions == 1


# -1e-18 % 30.0 rounds to 30.0, off the torus: each move kernel puts such a
# coordinate at 0.0, as displace's _wrap1 does. At the origin, heading 270 at
# 1e-18 m/s sends both axes of the first move there; heading 0 at -1e-18
# sends y, and then, on any random turn but 0, both axes of the second move.
# Agent 0 draws first: its first turn on seed 0 is 49 degrees.
@pytest.mark.parametrize("scenario", Scenario)
@pytest.mark.parametrize("heading, speed", [(270.0, 1e-18), (0.0, -1e-18)])
def test_moves_wrap_a_rounding_to_the_far_edge(scenario, heading, speed):
    fused, ref = _hand_made([(0.0, 0.0, heading, speed), (10.0, 10.0, 90.0, 0.25),
                             (20.0, 20.0, 180.0, 0.25), (15.0, 5.0, 0.0, 0.25)])
    for world in (fused, ref):
        world.params = dataclasses.replace(world.params, scenario=scenario)
    for t in range(3):
        tick(fused)
        oracle_tick(ref)
        assert _state(fused) == _state(ref), t
