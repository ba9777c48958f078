"""Per-agent behavior: the social pipeline and the random-walk baseline.

A social agent senses neighbors within sonar range (find_nearmates), flags a
threat when the nearest one is inside the safety distance (danger), and
reacts by adopting that neighbor's heading with a decelerated copy of its
speed (mirror), recovering speed on later threat-free ticks (accelerate).
The random-walk baseline alternates two random heading draws with an
accelerate/decelerate toggle.

Behavior functions are pure: they read a frozen world snapshot and return an
Action; the engine applies actions afterwards, in agent-id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .core import AgentState, SimParams, WorldState, torus_distance_xy


class ActionKind(Enum):
    MIRROR = "Mirror"
    ACCELERATE = "Accelerate"
    KEEP = "Keep"
    RANDOM_WALK = "RandomWalk"


@dataclass(frozen=True)
class Action:
    """Reified outcome of one behavior evaluation."""

    kind: ActionKind
    new_heading: float
    new_speed: float
    # random walk only: the heading in force between the tick's two moves
    mid_heading: float | None = None


@dataclass(frozen=True)
class NeighborView:
    """Sonar picture for one agent: (id, distance) pairs, id-sorted."""

    nearmates: tuple[tuple[int, float], ...]
    nearest: Optional[tuple[int, float]]


def find_nearmates(agent: AgentState, world: WorldState, sonar_range: float,
                   candidates: Iterable[int] | None = None) -> NeighborView:
    """Enumerate other agents within sonar range (inclusive).

    `candidates` may pre-restrict the ids examined, for instance to
    `SpatialGrid.candidates(agent.x, agent.y)`; the result must not depend
    on it. Nearest is the minimum distance, ties broken by lowest agent id.
    The engine's tick does not call this: it reproduces it bit for bit.
    """
    agents = world.agents
    w = world.params.world_width
    h = world.params.world_height
    ax, ay = agent.x, agent.y
    found: list[tuple[int, float]] = []
    ids = range(len(agents)) if candidates is None else candidates
    for j in ids:
        if j == agent.id:
            continue
        other = agents[j]
        d = torus_distance_xy(ax, ay, other.x, other.y, w, h)
        if d <= sonar_range:
            found.append((j, d))
    found.sort()
    nearest = min(found, key=lambda t: (t[1], t[0])) if found else None
    return NeighborView(tuple(found), nearest)


def danger(agent: AgentState, view: NeighborView, min_safety_distance: float) -> bool:
    """Threat flag: the nearest neighbor is at or inside the safety distance."""
    return view.nearest is not None and view.nearest[1] <= min_safety_distance


def mirror(agent: AgentState, neighbor: AgentState, deceleration: float) -> Action:
    """Adopt the neighbor's heading exactly and its speed minus deceleration.

    Speed clamps at 0 rather than min_velocity: vehicles do not reverse, and
    the min-velocity floor is a random-walk-mode bound.
    """
    return Action(ActionKind.MIRROR, neighbor.heading,
                  max(0.0, neighbor.speed - deceleration))


def accelerate(agent: AgentState, max_acceleration: float, max_velocity: float) -> Action:
    """Speed up by the acceleration rate, capped at max velocity."""
    return Action(ActionKind.ACCELERATE, agent.heading,
                  min(agent.speed + max_acceleration, max_velocity))


def social_step(agent: AgentState, world: WorldState, params: SimParams,
                candidates: Iterable[int] | None = None) -> Action:
    """One social-agent decision over the frozen post-move snapshot.

    Under threat: mirror the nearest neighbor (with literal_rules, the
    re-acceleration lands in the same tick and cancels the slowdown).
    Otherwise: keep heading and speed, except that an agent still recovering
    from an earlier mirror accelerates back toward max velocity.
    """
    view = find_nearmates(agent, world, params.sonar_range, candidates)
    if danger(agent, view, params.min_safety_distance):
        act = mirror(agent, world.agents[view.nearest[0]], params.deceleration)
        if params.literal_rules:
            act = Action(ActionKind.MIRROR, act.new_heading,
                         min(act.new_speed + params.max_acceleration,
                             params.max_velocity))
        return act
    if (not params.literal_rules and agent.recovering
            and agent.speed < params.max_velocity):
        return accelerate(agent, params.max_acceleration, params.max_velocity)
    return Action(ActionKind.KEEP, agent.heading, agent.speed)


def random_walk_step(agent: AgentState, params: SimParams, rng) -> Action:
    """One random-walk decision; draws exactly two headings from `rng`.

    The tick pattern is move, turn to a draw from [0, 89), move, turn to a
    draw from [0, 200), then toggle between speeding up (capped at max
    velocity) and slowing down (floored at min velocity). The slowdown
    subtracts the deceleration rate; with literal_rules it adds it instead,
    reproducing the original procedure verbatim (see README).
    """
    h1 = float(rng.randrange(89))
    h2 = float(rng.randrange(200))
    if agent.random_behaviour:
        speed = min(agent.speed + params.max_acceleration, params.max_velocity)
    elif params.literal_rules:
        speed = agent.speed + params.deceleration
        if speed < params.min_velocity:
            speed = params.min_velocity
    else:
        speed = max(agent.speed - params.deceleration, params.min_velocity)
    return Action(ActionKind.RANDOM_WALK, h2, speed, mid_heading=h1)
