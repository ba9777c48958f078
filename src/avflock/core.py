"""Domain types and world geometry shared by every other module.

The world is a continuous torus (positions wrap on both axes) calibrated so
one world unit is one meter and one tick is one second, which lets the
slider-style parameters keep their m/s and m/s^2 units. Headings follow the
clockwise-from-north convention: 0 points along +y, 90 along +x.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import NamedTuple


class Team(Enum):
    RED = "Red"
    BLACK = "Black"


class Scenario(Enum):
    ALL_SOCIAL_AVS = "AllSocialAVs"
    RANDOM_WALK = "RandomWalk"


class CollisionRule(Enum):
    """How a proximity event feeds the collision totals.

    PAIR_ENTRY   one count per unordered pair entering the collision radius
                 (debounced: a sustained overlap counts once)
    AGENT_ENTRY  like PAIR_ENTRY but one count per involved agent (2x pairs)
    OVERLAP      one count per overlapping pair per tick, no debouncing
    """

    PAIR_ENTRY = "pair"
    AGENT_ENTRY = "agent"
    OVERLAP = "tick"


class ParamRangeWarning(UserWarning):
    """A parameter is outside its documented slider range (non-fatal)."""


class Position(NamedTuple):
    x: float
    y: float


def _wrap1(v: float, size: float) -> float:
    # float % can round up to exactly `size` for tiny negative v
    v %= size
    return 0.0 if v >= size else v


def wrap(p: Position, width: float, height: float) -> Position:
    """Canonicalize a position onto [0, width) x [0, height)."""
    return Position(_wrap1(p.x, width), _wrap1(p.y, height))


def torus_distance_xy(ax: float, ay: float, bx: float, by: float,
                      width: float, height: float) -> float:
    """Euclidean distance under the shortest wrapped displacement."""
    dx = abs(ax - bx)
    if dx > width - dx:
        dx = width - dx
    dy = abs(ay - by)
    if dy > height - dy:
        dy = height - dy
    return math.hypot(dx, dy)


def torus_distance(a: Position, b: Position, width: float, height: float) -> float:
    """Euclidean distance under the shortest wrapped displacement."""
    return torus_distance_xy(a.x, a.y, b.x, b.y, width, height)


def displace(x: float, y: float, heading: float, dist: float,
             width: float, height: float) -> tuple[float, float]:
    """Move (x, y) by `dist` along `heading` and wrap.

    Single source of the heading convention: dx = dist*sin(h), dy = dist*cos(h).
    """
    if dist == 0.0:
        return x, y
    rad = math.radians(heading % 360.0)
    return (_wrap1(x + dist * math.sin(rad), width),
            _wrap1(y + dist * math.cos(rad), height))


def normalize_heading(degrees: float) -> float:
    """Map any angle to the canonical [0, 360) range."""
    h = degrees % 360.0
    return 0.0 if h >= 360.0 else h


@dataclass(slots=True)
class AgentState:
    """One vehicle. `collisions` is a monotone per-agent tally."""

    id: int
    team: Team
    x: float
    y: float
    heading: float
    speed: float
    random_behaviour: bool = False
    collision_done: bool = False
    collisions: int = 0
    # set when a mirror maneuver lowered the speed; drives the post-threat
    # recovery back toward max velocity on danger-free ticks
    recovering: bool = False

    @property
    def position(self) -> Position:
        return Position(self.x, self.y)


def forward(agent: AgentState, width: float, height: float) -> AgentState:
    """Advance the agent by its speed along its heading (wrapped); pure."""
    nx, ny = displace(agent.x, agent.y, agent.heading, agent.speed, width, height)
    return replace(agent, x=nx, y=ny)


# slider ranges from the simulator this model was calibrated against;
# violations warn rather than fail because the benchmark configurations
# themselves sit outside some of them
_SLIDER_RANGES = {
    "n_red": (0, 100),
    "n_black": (0, 100),
    "min_velocity": (0.0, 0.5),
    "max_velocity": (0.6, 1.0),
    "max_acceleration": (0.0, 0.1),
    "deceleration": (0.1, 0.5),
    "min_safety_distance": (1.5, 5.0),
    "sonar_range": (0.0, 10.0),
}


@dataclass(frozen=True)
class SimParams:
    """Full configuration of one run: the nine behavior sliders plus the
    engine-level settings (world size, tick budget, collision radius, seed)."""

    n_red: int = 40
    n_black: int = 40
    min_velocity: float = 0.3
    max_velocity: float = 0.3
    max_acceleration: float = 0.1
    deceleration: float = 0.1
    min_safety_distance: float = 1.0
    sonar_range: float = 2.5
    scenario: Scenario = Scenario.ALL_SOCIAL_AVS
    world_width: float = 100.0
    world_height: float = 100.0
    collision_radius: float = 1.0
    ticks: int = 1000
    seed: int = 0
    collision_rule: CollisionRule = CollisionRule.PAIR_ENTRY
    # verbatim-transcription mode: re-accelerate in the same tick as a mirror
    # and make the random-walk slowdown additive (see README)
    literal_rules: bool = False

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise on malformed settings, warn on out-of-slider-range values."""
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, float) and not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")
        if self.ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {self.ticks}")
        if self.world_width <= 0 or self.world_height <= 0:
            raise ValueError("world dimensions must be positive")
        if self.collision_radius <= 0:
            raise ValueError("collision_radius must be positive")
        if self.n_red < 0 or self.n_black < 0:
            raise ValueError("agent counts must be non-negative")
        if self.sonar_range < 0:
            raise ValueError(f"sonar_range must be non-negative, got {self.sonar_range}")
        if min(self.world_width, self.world_height) <= 2 * self.sonar_range:
            raise ValueError(
                "world dimensions must exceed twice the sonar range "
                f"({self.world_width}x{self.world_height} vs sonar {self.sonar_range})")
        if self.min_velocity < 0 or self.max_velocity < 0:
            raise ValueError("velocities must be non-negative")
        if self.max_acceleration < 0 or self.deceleration < 0:
            raise ValueError("acceleration rates must be non-negative")
        if self.min_safety_distance < 0:
            raise ValueError("min_safety_distance must be non-negative")
        for name, (lo, hi) in _SLIDER_RANGES.items():
            v = getattr(self, name)
            if not lo <= v <= hi:
                warnings.warn(
                    f"{name}={v} outside the slider range [{lo}, {hi}]",
                    ParamRangeWarning, stacklevel=2)


@dataclass
class WorldState:
    """Mutable run state owned by the engine's tick loop."""

    agents: list[AgentState]
    params: SimParams
    rng: object  # seeded random.Random; opaque here
    tick: int = 0
    total_collisions: int = 0
    collisions_per_tick: list[int] = field(default_factory=list)
    # unordered id pairs currently inside the collision radius (debouncing)
    active_pairs: set[tuple[int, int]] = field(default_factory=set)
    # action kind per agent from the latest tick, for trace output
    last_actions: list = field(default_factory=list)
    # engine-owned per-run state (spatial grid, heading trig memo), created
    # lazily (geometry is fixed per run)
    index: object = None
