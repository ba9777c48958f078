"""avflock: agent-based simulation of social collision avoidance for
autonomous vehicles in congested, flock-like traffic, with a random-walk
baseline and a batch sweep harness for comparative collision statistics."""

__version__ = "0.1.0"

from .core import (AgentState, CollisionRule, ParamRangeWarning, Scenario,
                   SimParams, Team, WorldState)
from .agents import (Action, ActionKind, NeighborView, accelerate, danger,
                     find_nearmates, mirror, random_walk_step, social_step)
from .engine import RunResult, SpatialGrid, detect_collisions, run, setup, tick
from .experiments import (ExperimentSpec, SummaryRow, builtin_set, efficiency,
                          export_csv, load_spec, run_experiment)
from .richardson import (PairState, RichardsonParams, Stability,
                         StabilityReport, fixed_point, simulate,
                         spectral_radius, stability, stable_preset, step)

__all__ = [
    "AgentState", "CollisionRule", "ParamRangeWarning", "Scenario",
    "SimParams", "Team", "WorldState",
    "Action", "ActionKind", "NeighborView", "accelerate", "danger",
    "find_nearmates", "mirror", "random_walk_step", "social_step",
    "RunResult", "SpatialGrid", "detect_collisions", "run", "setup", "tick",
    "ExperimentSpec", "SummaryRow", "builtin_set", "efficiency", "export_csv",
    "load_spec", "run_experiment",
    "PairState", "RichardsonParams", "Stability", "StabilityReport",
    "fixed_point", "simulate", "spectral_radius", "stability", "stable_preset",
    "step",
]
