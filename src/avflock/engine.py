"""Deterministic tick loop: setup, movement, behavior, collision counting.

Update order per tick (social scenario): every agent moves forward, the
world is frozen, every agent's behavior is evaluated against that snapshot
in id order, actions are applied in id order, then collisions are detected
on the post-move positions. The random-walk scenario interleaves its two
moves per agent as the baseline procedure dictates; its behavior reads no
neighbor state, so per-agent application is snapshot-equivalent.

Behavior and collision detection read the same post-move positions, so a
tick makes one half-shell pass over unordered agent pairs
(SpatialGrid.scan). It yields the colliding pairs and each agent's nearest
neighbor within min(sonar_range, min_safety_distance), which is all a social
decision reads: the nearest agent within sonar range is a threat exactly
when it lies within that cut.

Mirroring a threatening neighbor at reduced speed stops social agents, and
stopped agents pile into clusters. An agent with speed 0 does not move, so
its distances to other stopped agents repeat bit for bit. On social ticks
where at least half the agents are stopped before the move, StaticCache
keeps the stopped agents' colliding pairs and nearest stopped neighbors
across ticks and measures only the pairs with a mover in them; it yields
exactly what SpatialGrid.scan yields. Below half, the cache would cost more
than it saves: the tick rebuilds and scans, and the cache is dropped. The
random walk always rebuilds and scans; its speed floor is min_velocity, so
with a positive floor nothing in it stops.

The per-agent functions (social_step, random_walk_step, displace,
detect_collisions, SpatialGrid.candidates) are the reference the tick
reproduces bit for bit; the tests replay them as its oracle.

All randomness flows through one seeded generator consumed in agent-id
order, which makes run(params, seed) referentially transparent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# social_step, random_walk_step and displace are the per-agent reference
# that `tick` reproduces; they are not called here, but the benchmark's
# traced run (perfbench/tracer.py) looks them up on this module
from .agents import ActionKind, random_walk_step, social_step  # noqa: F401
from .core import (AgentState, CollisionRule, Scenario, SimParams, Team,  # noqa: F401
                   WorldState, _wrap1, displace, torus_distance_xy)


class SpatialGrid:
    """Uniform bucket grid over the torus for broad-phase neighbor queries.

    Cells are at least `cell_size` wide, so any query with radius at most
    cell_size is answered from the 3x3 wrapped cell neighborhood. The grid
    is a pure accelerator: results must match a full O(n^2) scan exactly.
    """

    def __init__(self, width: float, height: float, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.width = width
        self.height = height
        self.cell_size = cell_size
        self.nx = max(1, int(width / cell_size))
        self.ny = max(1, int(height / cell_size))
        self._sx = self.nx / width
        self._sy = self.ny / height
        self.buckets: dict[int, list[int]] = {}
        self._hoods: dict[int, tuple[int, ...]] = {}
        self._cands: dict[int, list[int]] = {}
        # half-shell neighbors of the cells whose stencil wraps; interior
        # cells compute theirs, so this grows with the perimeter, not the area
        self._edges: dict[int, tuple[int, ...]] = {}

    def rebuild(self, agents: list[AgentState]) -> None:
        """Re-bucket every agent by its wrapped position."""
        buckets = self.buckets
        buckets.clear()
        self._cands.clear()
        nx, ny = self.nx, self.ny
        sx, sy = self._sx, self._sy
        for a in agents:
            cx = int(a.x * sx)
            cy = int(a.y * sy)
            if cx >= nx:  # canonical x < width, but the product can round up
                cx = nx - 1
            if cy >= ny:
                cy = ny - 1
            key = cx * ny + cy
            b = buckets.get(key)
            if b is None:
                buckets[key] = [a.id]
            else:
                b.append(a.id)

    def key(self, x: float, y: float) -> int:
        """The bucket key of the cell holding the wrapped position (x, y)."""
        cx = int(x * self._sx)
        cy = int(y * self._sy)
        if cx >= self.nx:  # canonical x < width, but the product can round up
            cx = self.nx - 1
        if cy >= self.ny:
            cy = self.ny - 1
        return cx * self.ny + cy

    def ring(self, key: int) -> tuple[int, ...]:
        """The distinct keys of the 3x3 wrapped neighborhood of cell `key`.

        Interior cells compute theirs; only the cells whose stencil wraps
        are memoized, so the memo grows with the perimeter, not the area.
        """
        ny = self.ny
        cx, cy = divmod(key, ny)
        if 0 < cx < self.nx - 1 and 0 < cy < ny - 1:
            w = key - ny
            e = key + ny
            return (w - 1, w, w + 1, key - 1, key, key + 1, e - 1, e, e + 1)
        return self._hood(cx, cy)

    def _hood(self, cx: int, cy: int) -> tuple[int, ...]:
        key = cx * self.ny + cy
        hood = self._hoods.get(key)
        if hood is None:
            nx, ny = self.nx, self.ny
            cells = {((cx + dx) % nx) * ny + ((cy + dy) % ny)
                     for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
            hood = self._hoods[key] = tuple(sorted(cells))
        return hood

    def candidates(self, x: float, y: float) -> list[int]:
        """Ids of all agents bucketed in the 3x3 neighborhood of (x, y).

        A superset of any radius query up to cell_size; includes the caller.
        Lists are shared per cell per rebuild: do not mutate.
        """
        cx = int(x * self._sx)
        cy = int(y * self._sy)
        if cx >= self.nx:
            cx = self.nx - 1
        if cy >= self.ny:
            cy = self.ny - 1
        key = cx * self.ny + cy
        out = self._cands.get(key)
        if out is None:
            buckets = self.buckets
            out = []
            for c in self._hood(cx, cy):
                b = buckets.get(c)
                if b:
                    out.extend(b)
            self._cands[key] = out
        return out

    def _half_shell(self, key: int) -> tuple[int, ...]:
        """The neighbor cells of `key` whose pairs with it `scan` visits.

        With at least 3 cells per axis the 8 neighbors are distinct and the
        shell is 4 of them, one of each opposite pair. On a smaller grid the
        stencil wraps onto itself, so the shell is the deduplicated
        neighborhood's cells with a larger key.
        """
        ny = self.ny
        cx, cy = divmod(key, ny)
        if self.nx < 3 or ny < 3:
            return tuple(c for c in self._hood(cx, cy) if c > key)
        east = (cx + 1) % self.nx * ny
        return (cx * ny + (cy + 1) % ny, east + (cy - 1) % ny, east + cy,
                east + (cy + 1) % ny)

    def scan(self, xs: list[float], ys: list[float], radius: float,
             cut: float) -> tuple[set[tuple[int, int]], list[int]]:
        """One pass over the unordered pairs of the current buckets.

        `xs`/`ys` are the positions the grid was rebuilt from, by agent id.
        Returns the id pairs (i < j) at torus distance strictly below
        `radius`, and per agent the id of its nearest other agent at
        distance at most `cut` (ties to the lowest id), or -1. A negative
        cut skips the nearest-neighbor search.
        """
        reach = max(radius, cut)
        if reach > self.cell_size:
            raise ValueError(f"query reach {reach} exceeds cell size {self.cell_size}")
        # d >= max(dx, dy), and hypot errs by under an ulp, so a pair with
        # dx or dy beyond this bound is outside both radius and cut
        far = reach * (1.0 + 1e-9)
        w, h = self.width, self.height
        hypot = math.hypot
        n = len(xs)
        near = [-1] * n
        best = [math.inf] * n
        pairs: set[tuple[int, int]] = set()
        buckets = self.buckets
        get = buckets.get
        edges = self._edges
        ny = self.ny
        inner = self.nx >= 3 and ny >= 3
        last_x, last_y = (self.nx - 1) * ny, ny - 1
        for key, cell in buckets.items():
            if inner and key < last_x and 0 < key % ny < last_y:
                e = key + ny
                others = [*get(key + 1, ()), *get(e - 1, ()), *get(e, ()),
                          *get(e + 1, ())]
            else:
                shell = edges.get(key)
                if shell is None:
                    shell = edges[key] = self._half_shell(key)
                others = [j for k in shell for j in get(k, ())]
            if len(cell) == 1:
                if not others:
                    continue
                todo = ((cell[0], others),)
            else:
                # each same-cell pair once: an agent with those after it
                todo = [(i, cell[a + 1:] + others) for a, i in enumerate(cell)]
            for i, partners in todo:
                xi = xs[i]
                yi = ys[i]
                for j in partners:
                    dx = xi - xs[j]
                    if dx < 0.0:
                        dx = -dx
                    if dx > w - dx:
                        dx = w - dx
                    if dx > far:
                        continue
                    dy = yi - ys[j]
                    if dy < 0.0:
                        dy = -dy
                    if dy > h - dy:
                        dy = h - dy
                    if dy > far:
                        continue
                    d = hypot(dx, dy)
                    if d < radius:
                        pairs.add((i, j) if i < j else (j, i))
                    if d <= cut:
                        if d < best[i] or (d == best[i] and j < near[i]):
                            best[i] = d
                            near[i] = j
                        if d < best[j] or (d == best[j] and i < near[j]):
                            best[j] = d
                            near[j] = i
        return pairs, near


class StaticCache:
    """The pairs of the stopped agents, kept across social ticks.

    An agent with speed 0 does not move, so the distance between two
    stopped agents is bit-unchanged from tick to tick. The cache holds
    buckets of all agents on the grid's cells, the colliding pairs among
    the static agents (those stopped since they were linked) and each
    static agent's nearest static neighbor within the cut as (d, id). A
    tick then measures only the pairs with a mover in them, and `scan`
    returns what SpatialGrid.scan returns over every pair.
    """

    __slots__ = ("grid", "buckets", "cells", "static", "n_static", "pairs",
                 "best", "near", "xs", "ys")

    def __init__(self, grid: SpatialGrid, xs: list[float], ys: list[float]):
        """Bucket every agent at (xs, ys), by id; none is static yet."""
        self.grid = grid
        self.buckets: dict[int, list[int]] = {}
        self.cells = [grid.key(x, y) for x, y in zip(xs, ys)]
        for i, key in enumerate(self.cells):
            self.buckets.setdefault(key, []).append(i)
        n = len(xs)
        self.static = [False] * n
        self.n_static = 0
        self.pairs: set[tuple[int, int]] = set()
        self.best = [math.inf] * n
        self.near = [-1] * n
        # the positions of the last scan, which the next tick must start from
        self.xs = xs
        self.ys = ys

    def _unlink(self, i: int, dirty: list[int]) -> None:
        """Drop thawing agent i and its static pairs; `dirty` receives the
        static agents whose cached nearest it was. Both lie around the cell
        i was static in, which `cells` holds until the movers are
        re-bucketed."""
        static, near, pairs = self.static, self.near, self.pairs
        static[i] = False
        self.n_static -= 1
        self.best[i] = math.inf
        near[i] = -1
        get = self.buckets.get
        for c in self.grid.ring(self.cells[i]):
            for k in get(c, ()):
                pairs.discard((i, k) if i < k else (k, i))
                if near[k] == i and static[k]:
                    dirty.append(k)

    def _renear(self, j: int, xs, ys, cut: float) -> None:
        """Recompute static agent j's nearest static neighbor within cut."""
        g = self.grid
        w, h = g.width, g.height
        static = self.static
        get = self.buckets.get
        xj, yj = xs[j], ys[j]
        best, near = math.inf, -1
        for c in g.ring(self.cells[j]):
            for k in get(c, ()):
                if k != j and static[k]:
                    d = torus_distance_xy(xj, yj, xs[k], ys[k], w, h)
                    if d <= cut and (d < best or (d == best and k < near)):
                        best, near = d, k
        self.best[j] = best
        self.near[j] = near

    def _link(self, i: int, xs, ys, radius: float, cut: float) -> None:
        """Make freezing agent i static: add its pairs with the static agents
        and merge it into their nearest and theirs into its."""
        g = self.grid
        w, h = g.width, g.height
        static, best, near = self.static, self.best, self.near
        get = self.buckets.get
        xi, yi = xs[i], ys[i]
        for c in g.ring(self.cells[i]):
            for k in get(c, ()):
                if static[k]:
                    d = torus_distance_xy(xi, yi, xs[k], ys[k], w, h)
                    if d < radius:
                        self.pairs.add((i, k) if i < k else (k, i))
                    if d <= cut:
                        if d < best[i] or (d == best[i] and k < near[i]):
                            best[i] = d
                            near[i] = k
                        if d < best[k] or (d == best[k] and i < near[k]):
                            best[k] = d
                            near[k] = i
        static[i] = True
        self.n_static += 1

    def scan(self, speeds: list[float], moved: list[int], xs: list[float],
             ys: list[float], radius: float,
             cut: float) -> tuple[set[tuple[int, int]], list[int]]:
        """SpatialGrid.scan's pairs and nearest ids after this tick's move.

        `moved` lists the agents with a nonzero speed, which moved from the
        positions of the last scan to `xs`/`ys`; every other agent has speed
        0 and kept its position.
        """
        # the agents that thaw leave the cache from the cell they were
        # static in, before the movers are re-bucketed; then the static
        # agents whose nearest thawed look again, and the agents that
        # freeze join
        static = self.static
        dirty: list[int] = []
        for i in moved:
            if static[i]:
                self._unlink(i, dirty)
        for j in dirty:
            if static[j]:
                self._renear(j, xs, ys, cut)
        if self.n_static + len(moved) < len(speeds):
            for i, sp in enumerate(speeds):
                if sp == 0.0 and not static[i]:
                    self._link(i, xs, ys, radius, cut)

        # re-bucket the movers whose cell changed
        g = self.grid
        key_of = g.key
        buckets, cells = self.buckets, self.cells
        for i in moved:
            key = key_of(xs[i], ys[i])
            old = cells[i]
            if key != old:
                b = buckets[old]
                if len(b) == 1:
                    del buckets[old]
                else:
                    b.remove(i)
                b = buckets.get(key)
                if b is None:
                    buckets[key] = [i]
                else:
                    b.append(i)
                cells[i] = key

        # one 3x3 pass per mover: its pairs with every static agent, and
        # with each other mover once (from the lower id)
        w, h = g.width, g.height
        far = max(radius, cut) * (1.0 + 1e-9)
        hypot = math.hypot
        hood = g._hood
        get = buckets.get
        ny = g.ny
        inner = g.nx >= 3 and ny >= 3
        last_x, last_y = (g.nx - 1) * ny, ny - 1
        best = self.best[:]
        near = self.near[:]
        pairs: set[tuple[int, int]] = set()
        for i in moved:
            key = cells[i]
            if inner and ny <= key < last_x and 0 < key % ny < last_y:
                west = key - ny
                east = key + ny
                others = [*get(west - 1, ()), *get(west, ()), *get(west + 1, ()),
                          *get(key - 1, ()), *get(key, ()), *get(key + 1, ()),
                          *get(east - 1, ()), *get(east, ()), *get(east + 1, ())]
            else:
                others = [j for c in hood(*divmod(key, ny)) for j in get(c, ())]
            xi = xs[i]
            yi = ys[i]
            for j in others:
                if j <= i and not static[j]:
                    continue
                dx = xi - xs[j]
                if dx < 0.0:
                    dx = -dx
                if dx > w - dx:
                    dx = w - dx
                if dx > far:
                    continue
                dy = yi - ys[j]
                if dy < 0.0:
                    dy = -dy
                if dy > h - dy:
                    dy = h - dy
                if dy > far:
                    continue
                d = hypot(dx, dy)
                if d < radius:
                    pairs.add((i, j) if i < j else (j, i))
                if d <= cut:
                    if d < best[i] or (d == best[i] and j < near[i]):
                        best[i] = d
                        near[i] = j
                    if d < best[j] or (d == best[j] and i < near[j]):
                        best[j] = d
                        near[j] = i
        self.xs = xs
        self.ys = ys
        return self.pairs | pairs, near


@dataclass(frozen=True)
class RunResult:
    """Collision statistics of one run plus the configuration that made it."""

    total_collisions: int
    collisions_per_tick: tuple[int, ...]
    per_team_collisions: tuple[int, int]  # (red, black) agent tallies
    params: SimParams
    seed: int


def setup(params: SimParams, seed: int | None = None) -> WorldState:
    """Create the initial world: red agents head 90, black head 120, all at
    min velocity, positions independently uniform (x then y per agent)."""
    n = params.n_red + params.n_black
    if n == 0:
        raise ValueError("no agents: n_red + n_black must be at least 1")
    rng = random.Random(params.seed if seed is None else seed)
    w, h = params.world_width, params.world_height
    agents = []
    for i in range(n):
        red = i < params.n_red
        x = _wrap1(rng.uniform(0.0, w), w)
        y = _wrap1(rng.uniform(0.0, h), h)
        agents.append(AgentState(
            id=i,
            team=Team.RED if red else Team.BLACK,
            x=x, y=y,
            heading=90.0 if red else 120.0,
            speed=params.min_velocity,
            random_behaviour=red,
        ))
    return WorldState(agents=agents, params=params, rng=rng)


def _tally(world: WorldState, now: set[tuple[int, int]]) -> int:
    """Feed this tick's colliding pairs into the totals, tallies and flags.

    An event fires when a pair enters the colliding state (debounced via
    the previous tick's pair set); the collision rule decides how events
    feed the totals. Returns the amount added to the world total.
    """
    agents = world.agents
    events = now - world.active_pairs
    rule = world.params.collision_rule
    if rule is CollisionRule.OVERLAP:
        counted, count = now, len(now)
    elif rule is CollisionRule.AGENT_ENTRY:
        counted, count = events, 2 * len(events)
    else:
        counted, count = events, len(events)
    for i, j in counted:
        agents[i].collisions += 1
        agents[j].collisions += 1
    touching = set().union(*now)
    for a in agents:
        a.collision_done = a.id in touching
    world.active_pairs = now
    world.total_collisions += count
    return count


def detect_collisions(world: WorldState, collision_radius: float) -> int:
    """Count this tick's collision events by an O(n^2) scan (the reference
    for the tick's grid pass) and update tallies and flags.

    A pair is colliding while its torus distance is strictly below the
    radius. Returns the amount added to the world total.
    """
    if collision_radius <= 0:
        raise ValueError("collision_radius must be positive")
    agents = world.agents
    p = world.params
    w, h = p.world_width, p.world_height
    now: set[tuple[int, int]] = set()
    for i, a in enumerate(agents):
        ax, ay = a.x, a.y
        for j in range(i + 1, len(agents)):
            b = agents[j]
            if torus_distance_xy(ax, ay, b.x, b.y, w, h) < collision_radius:
                now.add((i, j))
    return _tally(world, now)


def _index_for(world: WorldState) -> list:
    """The engine's per-run state, created on the first tick: the grid, the
    nearest-neighbor cut, the (sin, cos) memo per heading value and the
    social tick's StaticCache (None while fewer than half are stopped)."""
    index = world.index
    if index is None:
        p = world.params
        cut = (min(p.sonar_range, p.min_safety_distance)
               if p.scenario is Scenario.ALL_SOCIAL_AVS else -1.0)
        grid = SpatialGrid(p.world_width, p.world_height,
                           max(cut, p.collision_radius))
        index = world.index = [grid, cut, {}, None]
    return index


def _sincos(heading: float) -> tuple[float, float]:
    # the same floats as displace computes for this heading
    rad = math.radians(heading % 360.0)
    return math.sin(rad), math.cos(rad)


def tick(world: WorldState) -> WorldState:
    """Advance the world by one tick in place (also returns it)."""
    p = world.params
    agents = world.agents
    w, h = p.world_width, p.world_height
    index = _index_for(world)
    grid, cut, trig = index[0], index[1], index[2]
    maxv = p.max_velocity
    acc = p.max_acceleration
    decel = p.deceleration
    literal = p.literal_rules

    if p.scenario is Scenario.ALL_SOCIAL_AVS:
        speeds = [a.speed for a in agents]
        if 2 * speeds.count(0.0) < len(agents):
            index[3] = None
            # move; equal to displace(x, y, heading, speed, w, h)
            for a in agents:
                sp = a.speed
                if sp != 0.0:
                    sc = trig.get(a.heading)
                    if sc is None:
                        sc = trig[a.heading] = _sincos(a.heading)
                    x = (a.x + sp * sc[0]) % w
                    y = (a.y + sp * sc[1]) % h
                    a.x = 0.0 if x >= w else x
                    a.y = 0.0 if y >= h else y
            grid.rebuild(agents)
            now, near = grid.scan([a.x for a in agents], [a.y for a in agents],
                                  p.collision_radius, cut)
        else:
            # at least half the flock is stopped, so most pairs join two
            # agents that do not move: the cache keeps those, and the pass
            # measures only the movers' pairs. A caller may edit the world
            # between ticks, so the cache holds only while every agent is
            # where its last pass left it.
            xs = [a.x for a in agents]
            ys = [a.y for a in agents]
            frozen = index[3]
            if frozen is None or frozen.xs != xs or frozen.ys != ys:
                frozen = index[3] = StaticCache(grid, xs, ys)
            # the same move, over the movers only
            moved = [i for i, sp in enumerate(speeds) if sp != 0.0]
            for i in moved:
                a = agents[i]
                sc = trig.get(a.heading)
                if sc is None:
                    sc = trig[a.heading] = _sincos(a.heading)
                sp = speeds[i]
                x = (xs[i] + sp * sc[0]) % w
                y = (ys[i] + sp * sc[1]) % h
                a.x = xs[i] = 0.0 if x >= w else x
                a.y = ys[i] = 0.0 if y >= h else y
            now, near = frozen.scan(speeds, moved, xs, ys, p.collision_radius, cut)
        # decide on the snapshot, apply in id order; equal to social_step
        headings = [a.heading for a in agents]
        kinds = [ActionKind.KEEP] * len(agents)
        for i, j in enumerate(near):
            a = agents[i]
            if j >= 0:
                sp = speeds[j] - decel
                sp = sp if sp > 0.0 else 0.0
                if literal:
                    sp = min(sp + acc, maxv)
                else:
                    a.recovering = True
                a.heading = headings[j]
                a.speed = sp
                kinds[i] = ActionKind.MIRROR
            elif not literal and a.recovering and a.speed < maxv:
                sp = min(a.speed + acc, maxv)
                a.speed = sp
                if sp >= maxv:
                    a.recovering = False
                kinds[i] = ActionKind.ACCELERATE
        world.last_actions = kinds
    else:
        # equal to random_walk_step plus its two displace calls: randrange(n)
        # draws getrandbits(n.bit_length()) until the value is below n
        getrandbits = world.rng.getrandbits
        minv = p.min_velocity
        for a in agents:
            h1 = getrandbits(7)
            while h1 >= 89:
                h1 = getrandbits(7)
            h2 = getrandbits(8)
            while h2 >= 200:
                h2 = getrandbits(8)
            sp = a.speed
            if a.random_behaviour:
                speed = min(sp + acc, maxv)
            elif literal:
                speed = sp + decel
                if speed < minv:
                    speed = minv
            else:
                speed = max(sp - decel, minv)
            if sp != 0.0:
                x, y = a.x, a.y
                for heading in (a.heading, h1):
                    sc = trig.get(heading)
                    if sc is None:
                        sc = trig[heading] = _sincos(heading)
                    x = (x + sp * sc[0]) % w
                    y = (y + sp * sc[1]) % h
                    if x >= w:
                        x = 0.0
                    if y >= h:
                        y = 0.0
                a.x = x
                a.y = y
            a.heading = float(h2)
            a.speed = speed
            a.random_behaviour = not a.random_behaviour
        grid.rebuild(agents)
        now, _ = grid.scan([a.x for a in agents], [a.y for a in agents],
                           p.collision_radius, cut)
        world.last_actions = [ActionKind.RANDOM_WALK] * len(agents)

    world.collisions_per_tick.append(_tally(world, now))
    world.tick += 1
    return world


def run(params: SimParams, seed: int | None = None, trace=None) -> RunResult:
    """Set up and execute a full run; deterministic in (params, seed).

    `trace`, when given, is a writable text stream receiving one line per
    agent per tick: tick,agent,x,y,heading,speed,action.
    """
    world = setup(params, seed)
    use_seed = params.seed if seed is None else seed
    if trace is not None:
        trace.write("tick,agent,x,y,heading,speed,action\n")
    for _ in range(params.ticks):
        tick(world)
        if trace is not None:
            t = world.tick
            for a, kind in zip(world.agents, world.last_actions):
                trace.write(f"{t},{a.id},{a.x!r},{a.y!r},{a.heading!r},"
                            f"{a.speed!r},{kind.value}\n")
    red = sum(a.collisions for a in world.agents if a.team is Team.RED)
    black = sum(a.collisions for a in world.agents if a.team is Team.BLACK)
    return RunResult(
        total_collisions=world.total_collisions,
        collisions_per_tick=tuple(world.collisions_per_tick),
        per_team_collisions=(red, black),
        params=params,
        seed=use_seed,
    )
