"""Deterministic tick loop: setup, movement, behavior, collision counting.

Update order per tick (social scenario): every agent moves forward, the
world is frozen, every agent's behavior is evaluated against that snapshot
in id order, actions are applied in id order, then collisions are detected
on the post-move positions. The random-walk scenario interleaves its two
moves per agent as the baseline procedure dictates; its behavior reads no
neighbor state, so per-agent application is snapshot-equivalent.
Tick phases: snapshot, _Index.source, _social_move or _random_move,
_Index.pairs, _decide (social only), _tally.

Behavior and collision detection read the same post-move positions, so a
tick makes one pass over unordered agent pairs (SpatialGrid.scan), each
cell paired with its neighbor cells of larger key. It yields the colliding
pairs and each agent's nearest neighbor within min(sonar_range,
min_safety_distance), which is all a social decision reads: the nearest
agent within sonar range is a threat exactly when it lies within that cut.
That pair rule lives in `_measure` alone; every pass only builds its
partner lists.

`tick` takes one snapshot of the agents' speeds, headings and positions;
the move kernel writes the new positions into it as well as into the
agents, and the grid, the cache, the list and `_measure` all read that one
snapshot. Both scenarios take the tick's pairs from one pair step,
_Index.pairs, the only code that picks one of three sources:
- at least half stopped, StaticCache. An agent with speed 0 does not
  move, so its distances to other stopped agents repeat bit for bit, and
  stopped social agents pile into clusters. The cache keeps the stopped
  agents' colliding pairs and nearest stopped neighbors across ticks and
  measures only the pairs with a mover in them.
- else a Verlet list of the pairs that were within reach + skin when it
  was built, charged each tick the most two agents can have closed in its
  move, while its slack covers that step. A new list is built only while
  it lasts two ticks at this step and the flock is sparse. A random walker
  moves twice a tick, so its skin is twice the social one.
- else the grid pass.
_Index.held keeps the cache or the list across ticks, never both, and
_Index.source drops it unless every agent is where the last tick left it.
Each source yields exactly what SpatialGrid.scan yields.

`run` writes the trace once per tick. A row's heading, speed and action
text repeats across agents and ticks, so it is memoised per value; only
x and y are formatted for every row.

A collision event is a pair entering the collision radius, debounced by
the previous tick's pairs (world.active_pairs); agents keep only tallies.

The per-agent functions (social_step, random_walk_step, displace,
detect_collisions, SpatialGrid.candidates) are the reference the tick
reproduces bit for bit; the tests replay them as its oracle. Its grid
query shares SpatialGrid.key and SpatialGrid.around with the fast passes.

All randomness flows through one seeded generator consumed in agent-id
order, which makes run(params, seed) referentially transparent.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import compress

# social_step, random_walk_step and displace are the per-agent reference
# that `tick` reproduces; they are not called here, but the benchmark's
# traced run (perfbench/tracer.py) looks them up on this module
from .agents import ActionKind, random_walk_step, social_step  # noqa: F401
from .core import (AgentState, CollisionRule, Scenario, SimParams, Team,  # noqa: F401
                   WorldState, _check_seed, _wrap1, displace, torus_distance_xy)


_MAX_CELLS = 1 << 30  # of a SpatialGrid, per axis and per metre


def _scale(n: int, side: float) -> float:
    """The factor keying a coordinate in [0, side) to one of `n` cells:
    n / side, lowered by an ulp while nextafter(side, 0) would key to n.
    Rounded multiplication is monotone, so then no coordinate does. A single
    cell takes 0: n / side is inf on a world narrower than about 5.6e-309 m,
    and 0.0 * inf is nan."""
    if n == 1:
        return 0.0
    scale = n / side
    while math.nextafter(side, 0.0) * scale >= n:
        scale = math.nextafter(scale, 0.0)
    return scale


class SpatialGrid:
    """Uniform bucket grid over the torus for broad-phase neighbor queries.

    Each axis has as many cells as fit `cell_size` + `ulp` wide, `ulp` being
    the world's rounding allowance, 4 ulp(max(width, height)), and one
    `_scale` keys every position on the torus to one of them. Rounding the
    scale and the keys takes under half of `ulp`: every cell, the last one
    included, is wider than cell_size + 2 ulp(side). A computed wrapped dx
    is at most about 1 ulp(side) below the true one and hypot is never below
    max(dx, dy), so two agents whose cells are two apart are beyond any
    reach up to cell_size: the 3x3 wrapped neighborhood answers the query.
    The grid is a pure accelerator: results must match an O(n^2) scan.
    """

    def __init__(self, width: float, height: float, cell_size: float):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.width = width
        self.height = height
        self.cell_size = cell_size
        self.ulp = 4.0 * math.ulp(max(width, height))
        wide = cell_size + self.ulp
        # capped, so that a tiny cell_size or world keeps the count and the
        # scales below finite; fewer, wider cells answer the same queries
        self.nx = max(1, int(min(width / wide, _MAX_CELLS, width * _MAX_CELLS)))
        self.ny = max(1, int(min(height / wide, _MAX_CELLS, height * _MAX_CELLS)))
        self._sx = _scale(self.nx, width)
        self._sy = _scale(self.ny, height)
        self.buckets: dict[int, list[int]] = {}
        self._rings: dict[int, tuple[int, ...]] = {}
        # the larger keys of each wrapping ring `_partners` has read:
        # slicing them out of the ring on every tick costs more
        self._edges: dict[int, tuple[int, ...]] = {}

    def rebuild(self, xs: list[float], ys: list[float]) -> None:
        """Re-bucket every agent by its wrapped position (xs[i], ys[i])."""
        buckets = self.buckets
        buckets.clear()
        ny = self.ny
        sx, sy = self._sx, self._sy
        for i in range(len(xs)):
            key = int(xs[i] * sx) * ny + int(ys[i] * sy)
            b = buckets.get(key)
            if b is None:
                buckets[key] = [i]
            else:
                b.append(i)

    def key(self, x: float, y: float) -> int:
        """The bucket key of the cell holding the wrapped position (x, y)."""
        return int(x * self._sx) * self.ny + int(y * self._sy)

    def move(self, ids: list[int], cells: list[int], xs: list[float],
             ys: list[float]) -> None:
        """Re-bucket agents `ids` at their new positions in `xs`/`ys`.
        `cells` holds every agent's current key and is updated in place."""
        buckets = self.buckets
        ny = self.ny
        sx, sy = self._sx, self._sy
        for i in ids:
            # SpatialGrid.key, inline: a call per mover costs more than the
            # arithmetic
            key = int(xs[i] * sx) * ny + int(ys[i] * sy)
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

    def ring(self, key: int) -> tuple[int, ...]:
        """The distinct keys of the 3x3 wrapped neighborhood of cell `key`,
        in key order, memoized; the only code that wraps a cell coordinate.
        `around` and `_partners` compute the interior cells' own: the memo
        holds cells whose stencil wraps, and grows with the perimeter, not
        the area."""
        hood = self._rings.get(key)
        if hood is None:
            nx, ny = self.nx, self.ny
            cx, cy = divmod(key, ny)
            cells = {((cx + dx) % nx) * ny + ((cy + dy) % ny)
                     for dx in (-1, 0, 1) for dy in (-1, 0, 1)}
            hood = self._rings[key] = tuple(sorted(cells))
        return hood

    def around(self, keys):
        """Yield, for each key in `keys`, the ids bucketed in the cell's
        wrapped 3x3 neighborhood, each once, cell by cell in key order."""
        get = self.buckets.get
        ny = self.ny
        last_x, last_y = (self.nx - 1) * ny, ny - 1
        for key in keys:
            # no key passes on a grid with fewer than 3 cells on an axis
            if ny <= key < last_x and 0 < key % ny < last_y:
                w = key - ny
                e = key + ny
                yield [*get(w - 1, ()), *get(w, ()), *get(w + 1, ()),
                       *get(key - 1, ()), *get(key, ()), *get(key + 1, ()),
                       *get(e - 1, ()), *get(e, ()), *get(e + 1, ())]
            else:
                yield [j for c in self.ring(key) for j in get(c, ())]

    def candidates(self, x: float, y: float) -> list[int]:
        """Ids of all agents bucketed in the 3x3 neighborhood of (x, y).

        A superset of any radius query up to cell_size; includes the caller.
        """
        return next(self.around((self.key(x, y),)))

    def scan(self, xs: list[float], ys: list[float], radius: float,
             cut: float) -> tuple[set[tuple[int, int]], list[int]]:
        """Bucket the agents at `xs`/`ys`, by id, and make one pass over
        their unordered pairs. Returns the id pairs (i < j) at torus
        distance strictly below `radius`, and per agent the id of its
        nearest other agent at distance at most `cut` (ties to the lowest
        id), or -1. A negative cut skips the nearest-neighbor search.
        """
        reach = max(radius, cut)
        if reach > self.cell_size:
            raise ValueError(f"query reach {reach} exceeds cell size {self.cell_size}")
        self.rebuild(xs, ys)
        n = len(xs)
        pairs: set[tuple[int, int]] = set()
        near = [-1] * n
        _measure(self._partners(), xs, ys, self.width, self.height, radius,
                 cut, pairs, [math.inf] * n, near)
        return pairs, near

    def _partners(self):
        """Yield each agent with its partners: the agents after it in its
        cell and those in its cell's neighbors with a larger key, so that
        every unordered pair of the buckets is listed once. Each list is
        freed once it is measured, so the cyclic collector never walks a
        tick's worth."""
        buckets = self.buckets
        get = buckets.get
        edges = self._edges
        ny = self.ny
        last_x, last_y = (self.nx - 1) * ny, ny - 1
        for key, cell in buckets.items():
            # around's interior test; such a cell's larger-key neighbors
            # are these 4
            if ny <= key < last_x and 0 < key % ny < last_y:
                e = key + ny
                # most cells of a sparse grid have no occupied larger-key
                # neighbor: probe before building the partner list
                if (key + 1 in buckets or e - 1 in buckets or e in buckets
                        or e + 1 in buckets):
                    others = [*get(key + 1, ()), *get(e - 1, ()), *get(e, ()),
                              *get(e + 1, ())]
                else:
                    others = []
            else:
                after = edges.get(key)
                if after is None:
                    hood = self.ring(key)
                    after = edges[key] = hood[hood.index(key) + 1:]
                others = [j for k in after for j in get(k, ())]
            if len(cell) == 1:
                if others:
                    yield cell[0], others
            else:
                # each same-cell pair once: an agent with those after it
                for a, i in enumerate(cell):
                    yield i, cell[a + 1:] + others


def _measure(todo, xs: list[float], ys: list[float], w: float, h: float,
             radius: float, cut: float, pairs: set[tuple[int, int]],
             best: list[float], near: list[int]) -> None:
    """Measure agent i against each of its partners, for every (i, partners)
    in `todo`, on the w x h torus.

    A pair strictly inside `radius` is added to `pairs` as (lower id, higher
    id). A pair at most `cut` apart is merged into both agents' nearest,
    `best` the distance and `near` the id, ties to the lowest id.
    """
    # hypot is never below max(dx, dy), so a pair with dx or dy beyond
    # this bound is outside both radius and cut
    far = max(radius, cut)
    hypot = math.hypot
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


class StaticCache:
    """The pairs of the stopped agents, which keep their positions, across
    ticks: each agent's cell key (the grid's buckets, which the cache fills
    and `scan` keeps current, hold the agents), the colliding pairs among
    the static agents (those stopped since they joined) and each static
    agent's nearest static neighbor within the cut as (d, id). A tick then measures only the pairs
    with a mover in them, and `scan` returns what SpatialGrid.scan returns."""

    __slots__ = ("grid", "cells", "static", "n_static", "pairs", "best",
                 "near")

    def __init__(self, grid: SpatialGrid, xs: list[float], ys: list[float]):
        """A cache of the agents at (xs, ys), by id, over `grid`, which it
        buckets there; none is static yet."""
        grid.rebuild(xs, ys)
        self.grid = grid
        self.cells = [grid.key(x, y) for x, y in zip(xs, ys)]
        n = len(xs)
        self.static = [False] * n
        self.n_static = 0
        self.pairs: set[tuple[int, int]] = set()
        self.best = [math.inf] * n
        self.near = [-1] * n

    def _unlink(self, i: int, block: list[int], dirty: list[int]) -> None:
        """Drop thawing agent i and its static pairs; `dirty` receives the
        static agents whose cached nearest it was. Both lie in `block`, the
        agents around the cell i was static in."""
        static, near, pairs = self.static, self.near, self.pairs
        static[i] = False
        self.n_static -= 1
        self.best[i] = math.inf
        near[i] = -1
        for k in block:
            pairs.discard((i, k) if i < k else (k, i))
            if near[k] == i and static[k]:
                dirty.append(k)

    def scan(self, speeds: list[float], moved: list[int], xs: list[float],
             ys: list[float], radius: float,
             cut: float) -> tuple[set[tuple[int, int]], list[int]]:
        """SpatialGrid.scan's pairs and nearest ids after this tick's move.
        `moved` lists the agents with a nonzero speed, which moved from the
        positions of the last scan to `xs`/`ys`; every other agent has speed
        0 and kept its position."""
        # the agents that thaw leave the cache from the cell they were
        # static in, before the movers are re-bucketed; the agents that
        # freeze join
        g = self.grid
        static, cells = self.static, self.cells
        dirty: list[int] = []
        thaw = [i for i in moved if static[i]]
        if thaw:  # on most ticks no agent thaws and none freezes
            for i, block in zip(thaw, g.around([cells[i] for i in thaw])):
                self._unlink(i, block, dirty)
        if self.n_static + len(moved) < len(speeds):
            for i, sp in enumerate(speeds):
                if sp == 0.0 and not static[i]:
                    static[i] = True
                    self.n_static += 1
                    dirty.append(i)
        # the joining agents and the static agents whose nearest thawed
        # measure against their static neighbors. Merging them into those
        # neighbors' nearest changes no other static agent: it already
        # holds its exact nearest.
        dirty = [j for j in dirty if static[j]]
        if dirty:
            for j in dirty:
                self.best[j] = math.inf
                self.near[j] = -1
            todo = [(j, [k for k in block if static[k] and k != j]) for j, block
                    in zip(dirty, g.around([cells[j] for j in dirty]))]
            _measure(todo, xs, ys, g.width, g.height, radius, cut, self.pairs,
                     self.best, self.near)

        # each mover with every other agent in its 3x3 neighborhood: a pair
        # of movers is measured from both ends, to the same result
        g.move(moved, cells, xs, ys)
        todo = []
        for i, others in zip(moved, g.around([cells[i] for i in moved])):
            if len(others) > 1:  # most movers are alone around their cell
                others.remove(i)
                todo.append((i, others))
        pairs: set[tuple[int, int]] = set()
        near = self.near[:]
        _measure(todo, xs, ys, g.width, g.height, radius, cut, pairs,
                 self.best[:], near)
        return self.pairs | pairs, near


@dataclass(frozen=True)
class RunResult:
    """Collision statistics of one run plus the configuration that made it."""

    total_collisions: int
    collisions_per_tick: tuple[int, ...]
    per_team_collisions: tuple[int, int]  # (red, black) agent tallies
    params: SimParams
    seed: int


def setup(params: SimParams, seed: int) -> WorldState:
    """Create the initial world: red agents head 90, black head 120, all at
    min velocity, positions independently uniform (x then y per agent)."""
    _check_seed(seed)
    n = params.n_red + params.n_black
    rng = random.Random(seed)
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
    """Feed this tick's colliding pairs into the totals and tallies.

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
    world.active_pairs = now
    world.total_collisions += count
    return count


def detect_collisions(world: WorldState, collision_radius: float) -> int:
    """Count this tick's collision events by an O(n^2) scan (the reference
    for the tick's grid pass) and update the tallies.

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


class _Index:
    """Per-run state, rebuilt when `world.params` is not `params`: the grid,
    the nearest-neighbor cut (-1 in the random walk), the (sin, cos) memo per
    heading, `held`, the pair source the last tick left (its StaticCache,
    its neighbor list, or None after a grid pass), and the snapshot of the
    last tick (`xs`, `ys`), which the move kernel moved with the agents.

    The list: with reach = max(cut, collision_radius) and `moves` per agent
    per tick (1 social, 2 random walk), skin = 2 * reach * moves and span =
    reach + skin. A held list is the (i, partners) lists of the pairs closer
    than `span` when it was built, from a second grid (`wide`) with cell
    `span`, and `slack` what it can still absorb. A pair missing from the
    list was at least `span` apart and has closed by less than `skin`: it
    is still beyond `reach`.

    `step` is the most two agents can have closed in this tick's move(s).
    Each move takes an agent its speed along a heading the trig memo then
    holds. With `lo` and `top` the tick's least speed and largest |speed|
    and `arc` the narrowest arc covering the memo's headings, capped at 180
    degrees, two displacements at speeds s, s' in [lo, top] differ by at
    most |s u - s' v| for unit u, v `arc` apart; that is convex in (s, s'),
    so a corner of the box bounds it: max(chord * top, hypot(top - lo,
    chord * sqrt(lo * top))), chord = 2 sin(arc / 2). A negative speed moves
    an agent back, so it takes chord 2 and lo 0. The step is `moves` times
    that, plus a 1e-9 share of top for the rounding of the directions and
    of the bound itself, plus twice the grid's rounding allowance
    (SpatialGrid's `ulp`) for the rounding of each move.

    A held list serves while its slack covers the step. A new one is built
    only while it lasts two ticks at this step (2 * step <= skin) and the
    world's n agents, spread evenly, would list at most about one pair each
    (n <= `cap` = 2wh / (pi span^2)); past either bound the grid pass costs
    less, and serves.
    """

    __slots__ = ("params", "grid", "cut", "trig", "held", "xs", "ys",
                 "wide", "cap", "moves", "skin", "arc", "known", "step",
                 "slack")

    def __init__(self, p: SimParams):
        self.params = p
        w, h = p.world_width, p.world_height
        social = p.scenario is Scenario.ALL_SOCIAL_AVS
        self.cut = min(p.sonar_range, p.min_safety_distance) if social else -1.0
        reach = max(self.cut, p.collision_radius)
        self.grid = SpatialGrid(w, h, reach)
        self.trig: dict[float, tuple[float, float]] = {}
        self.held: StaticCache | list[tuple[int, list[int]]] | None = None
        self.xs: list[float] | None = None
        self.ys: list[float] | None = None
        self.moves = 1.0 if social else 2.0
        self.skin = 2.0 * reach * self.moves
        self.wide = SpatialGrid(w, h, reach + self.skin)
        # span^2 would underflow to 0 for a tiny reach
        span = self.wide.cell_size
        self.cap = 2.0 * (w / span) * (h / span) / math.pi
        self.arc = 0.0
        self.known = 0  # the trig memo's size when `arc` was last taken
        self.slack = 0.0

    def source(self, xs: list[float], ys: list[float]) -> bool:
        """Whether the agents start this tick at (xs, ys) where the last
        tick left them, the recorded snapshot; drops the held source unless
        so: a caller may edit the world. The move kernels write the same
        float objects into the agents and the snapshot, so the compare runs
        by identity."""
        if xs != self.xs or ys != self.ys:
            self.held = None
            return False
        return True

    def pairs(self, xs: list[float], ys: list[float], speeds: list[float],
              moved: list[int]) -> tuple[set[tuple[int, int]], list[int]]:
        """SpatialGrid.scan's pairs and nearest ids at the agents' new
        positions `xs`/`ys`; `speeds` are those the tick started with and
        `moved` the agents with a nonzero one. The only code that picks the
        source: the cache with at least half stopped, else the list or the
        grid pass; `held` keeps what it picked."""
        radius, cut = self.params.collision_radius, self.cut
        held = self.held
        if 2 * len(moved) <= len(xs):
            if not isinstance(held, StaticCache):
                held = self.held = StaticCache(self.grid, xs, ys)
            return held.scan(speeds, moved, xs, ys, radius, cut)
        lo = min(speeds)
        top = max(max(speeds), -lo)
        if lo < 0.0:
            chord, lo = 2.0, 0.0
        else:
            # the memo holds the heading of every move this tick
            chord = 2.0 * math.sin(math.radians(self._arc()) / 2.0)
        # the (top, top) and (top, lo) corners; (lo, lo) is never larger
        # than (top, top). (s - s')^2 + chord^2 s s' is the law of cosines
        # without its cancellation
        step = max(chord * top, math.hypot(top - lo, chord * math.sqrt(lo * top)))
        step = self.step = self.moves * (step + 1e-9 * top + 2.0 * self.grid.ulp)
        if isinstance(held, list) and self.slack >= step:
            self.slack -= step
        elif 2.0 * step <= self.skin and len(xs) <= self.cap:
            # the pairs closer than reach + skin, listed by their lower id
            partners: dict[int, list[int]] = {}
            for i, j in self.wide.scan(xs, ys, self.wide.cell_size, -1.0)[0]:
                partners.setdefault(i, []).append(j)
            held = self.held = list(partners.items())
            # less a share for the rounding of the distances themselves
            self.slack = self.skin * (1.0 - 1e-9)
        else:
            self.held = None
            return self.grid.scan(xs, ys, radius, cut)
        n = len(xs)
        pairs: set[tuple[int, int]] = set()
        near = [-1] * n
        _measure(held, xs, ys, self.grid.width, self.grid.height, radius,
                 cut, pairs, [math.inf] * n, near)
        return pairs, near

    def _arc(self) -> float:
        """The narrowest arc, in degrees, that covers every heading of the
        trig memo, capped at 180: no two of its headings are farther apart.
        The memo only grows, and the covering arc of a growing set only
        widens, so it is taken again only when the memo has grown, and never
        once it reaches 180."""
        trig = self.trig
        if self.arc < 180.0 and len(trig) != self.known:
            self.known = len(trig)
            angles = sorted(hd % 360.0 for hd in trig)
            gap = max(b - a for a, b in zip(angles, angles[1:] + [angles[0] + 360.0]))
            self.arc = min(360.0 - gap, 180.0)
        return self.arc


def _sincos(trig: dict, heading: float) -> tuple[float, float]:
    """Memoise and return heading's (sin, cos), the floats displace uses. A
    pair is truthy, so `trig.get(h) or _sincos(trig, h)` computes on a miss."""
    rad = math.radians(heading % 360.0)
    sc = trig[heading] = (math.sin(rad), math.cos(rad))
    return sc


def tick(world: WorldState) -> WorldState:
    """Advance the world by one tick in place (also returns it)."""
    p = world.params
    index = world.index
    if index is None or index.params is not p:
        index = world.index = _Index(p)
    agents = world.agents
    speeds = [a.speed for a in agents]
    headings = [a.heading for a in agents]
    # one C-level pass each; a sum of finite values can still overflow
    if not math.isfinite(sum(speeds) + sum(headings)):
        for a in agents:
            for field in ("speed", "heading"):
                value = getattr(a, field)
                if not math.isfinite(value):
                    raise ValueError(f"agent {a.id} has a non-finite {field} {value!r}")
    xs = [a.x for a in agents]
    ys = [a.y for a in agents]
    if not index.source(xs, ys):
        # a first tick, new params or a caller's edit: the move kernels keep
        # every agent on the torus, but a caller need not. min and max skip
        # a nan after the first element; the sum does not
        w, h = p.world_width, p.world_height
        if xs and not (0.0 <= min(xs) and max(xs) < w
                       and 0.0 <= min(ys) and max(ys) < h
                       and math.isfinite(sum(xs) + sum(ys))):
            for a in agents:
                for field, top in (("x", w), ("y", h)):
                    value = getattr(a, field)
                    if not 0.0 <= value < top:
                        raise ValueError(f"agent {a.id} has {field} {value!r} "
                                         f"outside [0, {top!r})")
    # only once the positions passed: the move kernel moves these with the
    # agents, and the next tick compares with them
    index.xs = xs
    index.ys = ys
    # the agents with a nonzero speed: 0.0 and -0.0 are false
    moved = list(compress(range(len(agents)), speeds))
    social = p.scenario is Scenario.ALL_SOCIAL_AVS
    if social:
        _social_move(agents, speeds, moved, xs, ys, index.trig, p)
    else:
        _random_move(agents, speeds, xs, ys, index.trig, p, world.rng)
    now, near = index.pairs(xs, ys, speeds, moved)
    if social:
        world.last_actions = _decide(agents, speeds, headings, near, p)
    else:
        world.last_actions = [ActionKind.RANDOM_WALK] * len(agents)
    world.collisions_per_tick.append(_tally(world, now))
    world.tick += 1
    return world


def _social_move(agents: list[AgentState], speeds: list[float],
                 moved: list[int], xs: list[float], ys: list[float],
                 trig: dict, p: SimParams) -> None:
    """Move each agent in `moved` (those with a nonzero speed) to its new
    position, in the agents and in `xs`/`ys`; equal to displace(x, y,
    heading, speed, w, h)."""
    w, h = p.world_width, p.world_height
    for i in moved:
        a = agents[i]
        sc = trig.get(a.heading) or _sincos(trig, a.heading)
        sp = speeds[i]
        x = (xs[i] + sp * sc[0]) % w
        y = (ys[i] + sp * sc[1]) % h
        a.x = xs[i] = 0.0 if x >= w else x
        a.y = ys[i] = 0.0 if y >= h else y


def _decide(agents: list[AgentState], speeds: list[float],
            headings: list[float], near: list[int],
            p: SimParams) -> list[ActionKind]:
    """Decide on the snapshot, apply in id order; equal to social_step."""
    maxv, acc, decel = p.max_velocity, p.max_acceleration, p.deceleration
    literal = p.literal_rules
    # locals: loading an Enum member is many times slower than loading a local
    mirror_kind, accelerate_kind = ActionKind.MIRROR, ActionKind.ACCELERATE
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
            kinds[i] = mirror_kind
        elif not literal and a.recovering and a.speed < maxv:
            sp = min(a.speed + acc, maxv)
            a.speed = sp
            if sp >= maxv:
                a.recovering = False
            kinds[i] = accelerate_kind
    return kinds


def _random_move(agents: list[AgentState], speeds: list[float],
                 xs: list[float], ys: list[float], trig: dict, p: SimParams,
                 rng: random.Random) -> None:
    """Draw, turn and move every agent, equal to random_walk_step plus its two
    displace calls; the new positions go into the agents and `xs`/`ys`."""
    getrandbits = rng.getrandbits
    w, h = p.world_width, p.world_height
    maxv, minv = p.max_velocity, p.min_velocity
    acc, decel = p.max_acceleration, p.deceleration
    literal = p.literal_rules
    for i, a in enumerate(agents):
        # randrange(n) draws getrandbits(n.bit_length()) until it is below n
        h1 = getrandbits(7)
        while h1 >= 89:
            h1 = getrandbits(7)
        h2 = getrandbits(8)
        while h2 >= 200:
            h2 = getrandbits(8)
        sp = speeds[i]
        if a.random_behaviour:
            speed = sp + acc
            if maxv < speed:  # min(sp + acc, maxv)
                speed = maxv
        else:
            speed = sp + decel if literal else sp - decel
            if speed < minv:
                speed = minv
        if sp != 0.0:
            sc = trig.get(a.heading) or _sincos(trig, a.heading)
            x = (xs[i] + sp * sc[0]) % w
            y = (ys[i] + sp * sc[1]) % h
            if x >= w:
                x = 0.0
            if y >= h:
                y = 0.0
            # an int turn shares the memo entry of the equal float
            sc = trig.get(h1) or _sincos(trig, h1)
            x = (x + sp * sc[0]) % w
            y = (y + sp * sc[1]) % h
            if x >= w:
                x = 0.0
            if y >= h:
                y = 0.0
            a.x = xs[i] = x
            a.y = ys[i] = y
        a.heading = float(h2)
        a.speed = speed
        a.random_behaviour = not a.random_behaviour


def _trace_rows(world: WorldState, tails: dict) -> str:
    """This tick's trace rows, tick,agent,x,y,heading,speed,action, one per
    agent.

    `tails` memoises the ",heading,speed,action" text per value. Values that
    compare equal can print differently (-0.0 and 0.0, 90 and 90.0), so only
    floats other than -0.0 share it; any other row is formatted whole.
    """
    t = world.tick
    copysign = math.copysign
    rows = []
    for a, kind in zip(world.agents, world.last_actions):
        hd = a.heading
        sp = a.speed
        if (type(hd) is type(sp) is float
                and (hd or copysign(1.0, hd) > 0.0)
                and (sp or copysign(1.0, sp) > 0.0)):
            # an Enum member hashes in Python code, its str value in C
            key = (hd, sp, kind._value_)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = f",{hd!r},{sp!r},{kind.value}\n"
        else:
            tail = f",{hd!r},{sp!r},{kind.value}\n"
        rows.append(f"{t},{a.id},{a.x!r},{a.y!r}{tail}")
    return "".join(rows)


def run(params: SimParams, seed: int, trace=None) -> RunResult:
    """Set up and execute a full run; deterministic in (params, seed).

    `trace`, when given, is a writable text stream receiving one line per
    agent per tick: tick,agent,x,y,heading,speed,action.
    """
    world = setup(params, seed)
    if trace is not None:
        trace.write("tick,agent,x,y,heading,speed,action\n")
        tails: dict = {}
    for _ in range(params.ticks):
        tick(world)
        if trace is not None:
            trace.write(_trace_rows(world, tails))
    red = sum(a.collisions for a in world.agents if a.team is Team.RED)
    black = sum(a.collisions for a in world.agents if a.team is Team.BLACK)
    return RunResult(
        total_collisions=world.total_collisions,
        collisions_per_tick=tuple(world.collisions_per_tick),
        per_team_collisions=(red, black),
        params=params,
        seed=seed,
    )
