"""Domain types and world geometry shared by every other module.

The world is a continuous torus (positions wrap on both axes) calibrated so
one world unit is one meter and one tick is one second, which lets the
slider-style parameters keep their m/s and m/s^2 units. Headings follow the
clockwise-from-north convention: 0 points along +y, 90 along +x.
"""

from __future__ import annotations

import functools
import math
import sys
import warnings
from collections.abc import Mapping
from dataclasses import Field, dataclass, field, fields
from enum import Enum
from typing import get_origin, get_type_hints


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


def _wrap1(v: float, size: float) -> float:
    # float % can round up to exactly `size` for tiny negative v
    v %= size
    return 0.0 if v >= size else v


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


def displace(x: float, y: float, heading: float, dist: float,
             width: float, height: float) -> tuple[float, float]:
    """Move (x, y) by `dist` along `heading` and wrap."""
    if dist == 0.0:
        return x, y
    sin, cos = heading_unit(heading)
    return _wrap1(x + dist * sin, width), _wrap1(y + dist * cos, height)


def heading_unit(heading: float) -> tuple[float, float]:
    """The (dx, dy) of 1 m along `heading`, (sin, cos): the heading convention."""
    rad = math.radians(heading % 360.0)
    return math.sin(rad), math.cos(rad)


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
    collisions: int = 0
    # set when a mirror maneuver lowered the speed; drives the post-threat
    # recovery back toward max velocity on danger-free ticks
    recovering: bool = False


_BOOL_WORDS = {"1": True, "yes": True, "true": True, "on": True,
               "0": False, "no": False, "false": False, "off": False}


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a bool is only a bool and an int is also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_seed(seed, name: str = "seed") -> None:
    """The rule of seed `name`: an int that is not a bool, and at least 0.
    random.Random(-s) replays random.Random(s), and True or 2.0 replay 1 or 2."""
    if not _is_a(seed, int):
        raise ValueError(f"{name} must be int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {seed}")


@functools.cache
def typed_fields(cls: type) -> tuple[tuple[Field, type], ...]:
    """The fields of dataclass `cls`, each with its resolved annotation."""
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def check_fields(obj) -> None:
    """Hold each field of dataclass `obj` typed by a plain class to it, and floats finite."""
    for f, kind in typed_fields(type(obj)):
        v = getattr(obj, f.name)
        if get_origin(kind) is None and not _is_a(v, kind):  # skips tuple[SimParams, ...]
            raise ValueError(f"{f.name} must be {kind.__name__}, got {v!r}")
        if kind is float and not abs(v) <= sys.float_info.max:  # nan, inf, 10**400
            raise ValueError(f"{f.name} must be finite, got {v}")


def text_names(f: Field, kind: type[Enum]) -> dict[str, Enum]:
    """How an enum field's members are spelled in flags and spec files: the
    field's `names` metadata, else each member's value."""
    return f.metadata.get("names") or {m.value: m for m in kind}


def from_text(f: Field, kind: type, text: str):
    """Parse `text` as a value of field `f`, whose type is `kind`."""
    if kind is bool:
        if text.lower() in _BOOL_WORDS:
            return _BOOL_WORDS[text.lower()]
        raise ValueError(f"{f.name} must be true or false, got {text!r}")
    if issubclass(kind, Enum):
        names = text_names(f, kind)
        if text in names:
            return names[text]
        raise ValueError(f"{f.name} must be one of {', '.join(sorted(names))}, "
                         f"got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{f.name} must be {kind.__name__}, got {text!r}") from None


@dataclass(frozen=True)
class SimParams:
    """Full configuration of one run: the nine behavior sliders plus the
    engine-level settings (world size, tick budget, collision radius, seed).

    This class is the parameter schema: the CLI flags, the spec-file keys and
    the type checks are all derived from these fields. Metadata: `flag` is a
    CLI spelling other than `--field-name`, `help` the flag's help text,
    `slider` the range of the simulator this model was calibrated against
    (outside it a value given to `from_given` warns rather than fails,
    because the benchmark configurations themselves sit outside some of
    them), and `names` an enum field's spellings other than its members'
    values.
    """

    n_red: int = field(default=40, metadata={
        "flag": "--red", "help": "number of red vehicles", "slider": (0, 100)})
    n_black: int = field(default=40, metadata={
        "flag": "--black", "help": "number of black vehicles", "slider": (0, 100)})
    min_velocity: float = field(default=0.3, metadata={"slider": (0.0, 0.5)})
    max_velocity: float = field(default=0.3, metadata={"slider": (0.6, 1.0)})
    max_acceleration: float = field(default=0.1, metadata={"slider": (0.0, 0.1)})
    deceleration: float = field(default=0.1, metadata={"slider": (0.1, 0.5)})
    min_safety_distance: float = field(default=1.0, metadata={
        "flag": "--safety-distance",
        "help": "threat threshold on nearest-neighbor distance, m",
        "slider": (1.5, 5.0)})
    sonar_range: float = field(default=2.5, metadata={"slider": (0.0, 10.0)})
    scenario: Scenario = field(default=Scenario.ALL_SOCIAL_AVS, metadata={
        "help": "behavior mode",
        "names": {"social": Scenario.ALL_SOCIAL_AVS, "random": Scenario.RANDOM_WALK}})
    world_width: float = 100.0
    world_height: float = 100.0
    collision_radius: float = 1.0
    ticks: int = field(default=1000, metadata={"help": "ticks per run"})
    seed: int = 0  # only backs `avflock run --seed`: run() takes its own seed
    collision_rule: CollisionRule = field(default=CollisionRule.PAIR_ENTRY, metadata={
        "help": "how proximity events are counted"})
    literal_rules: bool = field(default=False, metadata={
        "flag": "--literal",
        "help": "verbatim update rules: same-tick re-acceleration after a "
                "mirror and additive random-walk slowdown (see README)"})

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise on malformed settings."""
        check_fields(self)
        if self.ticks < 1:
            raise ValueError(f"ticks must be >= 1, got {self.ticks}")
        _check_seed(self.seed)
        if self.world_width <= 0 or self.world_height <= 0:
            raise ValueError("world dimensions must be positive")
        if self.collision_radius <= 0:
            raise ValueError("collision_radius must be positive")
        if self.n_red < 0 or self.n_black < 0:
            raise ValueError("agent counts must be non-negative")
        if self.n_red + self.n_black == 0:
            raise ValueError("no agents: n_red + n_black must be at least 1")
        if self.sonar_range < 0:
            raise ValueError(f"sonar_range must be non-negative, got {self.sonar_range}")
        if min(self.world_width, self.world_height) <= 2 * self.sonar_range:
            raise ValueError(
                "world dimensions must exceed twice the sonar range "
                f"({self.world_width}x{self.world_height} vs sonar {self.sonar_range})")
        if self.min_velocity < 0 or self.max_velocity < 0:
            raise ValueError("velocities must be non-negative")
        if self.min_velocity > self.max_velocity:
            # random walkers are held to [min_velocity, max_velocity]
            raise ValueError(f"min_velocity ({self.min_velocity}) must not exceed "
                             f"max_velocity ({self.max_velocity})")
        if self.max_acceleration < 0 or self.deceleration < 0:
            raise ValueError("acceleration rates must be non-negative")
        if self.min_safety_distance < 0:
            raise ValueError("min_safety_distance must be non-negative")

    @classmethod
    def from_given(cls, given: Mapping[str, object]) -> SimParams:
        """Build from the values a user gave, and warn once for each of them
        that is outside its slider range."""
        params = cls(**given)
        for f in fields(cls):
            if f.name in given and "slider" in f.metadata:
                lo, hi = f.metadata["slider"]
                v = getattr(params, f.name)
                if not lo <= v <= hi:
                    warnings.warn(
                        f"{f.name}={v} outside the slider range [{lo}, {hi}]",
                        ParamRangeWarning, stacklevel=2)
        return params


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
    # engine-owned per-run state; engine._Index owns its layout
    index: object = None
