"""Two-vehicle relative-position dynamics (Richardson arms-race form).

The analytic counterpart of the mentalizing/mirroring behavior: a coupled
pair of linear difference equations over the relative positions v1, v2 of
two vehicles. In standard form the update is affine,

    v1(n) = b1*v1(n-1) + d1*v2(n-1) + g1*h1
    v2(n) = d2*v1(n-1) + b2*v2(n-1) + g2*h2

with b = 1 + a, where `a` is the road-capacity coefficient, `d` the
position (mirroring) coefficient, `g` the fear intensity and `h` the
safety goal. Coefficient signs are unconstrained. The agent simulation
implements mirroring algorithmically (direct heading/speed adoption, the
d = 1 limit); this module is the analytic model used for trajectory dumps
and stability checks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple


@dataclass(frozen=True)
class RichardsonParams:
    """Coefficients of the coupled update; all finite reals, any sign."""

    delta1: float
    delta2: float
    alpha1: float
    alpha2: float
    g1: float = 0.0
    g2: float = 0.0
    h1: float = 0.0
    h2: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"{f.name} must be finite, got {v}")

    @property
    def beta1(self) -> float:
        return 1.0 + self.alpha1

    @property
    def beta2(self) -> float:
        return 1.0 + self.alpha2


def stable_preset() -> RichardsonParams:
    """Default demo coefficients: symmetric, contractive, zero goal term."""
    return RichardsonParams(delta1=0.25, delta2=0.25, alpha1=-0.5, alpha2=-0.5)


class PairState(NamedTuple):
    """Relative position of each vehicle with respect to the other (m)."""

    v1: float
    v2: float


class Stability(Enum):
    STABLE = "Stable"
    MARGINAL = "Marginal"
    UNSTABLE = "Unstable"


class StabilityReport(NamedTuple):
    kind: Stability
    spectral_radius: float


_TOL = 1e-9
_SINGULAR_TOL = 1e-12


def step(state: PairState, params: RichardsonParams) -> PairState:
    """One update of the coupled pair in standard (beta) form."""
    p = params
    return PairState(
        p.beta1 * state.v1 + p.delta1 * state.v2 + p.g1 * p.h1,
        p.delta2 * state.v1 + p.beta2 * state.v2 + p.g2 * p.h2,
    )


def simulate(initial: PairState, params: RichardsonParams, n: int) -> list[PairState]:
    """Iterate `step` n times; element 0 is the initial state (length n+1)."""
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if not (math.isfinite(initial.v1) and math.isfinite(initial.v2)):
        raise ValueError(f"initial state must be finite, got {initial}")
    out = [initial]
    s = initial
    for _ in range(n):
        s = step(s, params)
        out.append(s)
    return out


def fixed_point(params: RichardsonParams) -> PairState | None:
    """Solve (I - M) v = c for the affine update; None if not unique.

    A None result signals marginal dynamics (singular I - M within 1e-12),
    not a failure. A returned point is re-checked to be step-invariant.
    """
    p = params
    # I - M for M = [[b1, d1], [d2, b2]]
    a11 = 1.0 - p.beta1
    a12 = -p.delta1
    a21 = -p.delta2
    a22 = 1.0 - p.beta2
    det = a11 * a22 - a12 * a21
    if abs(det) <= _SINGULAR_TOL:
        return None
    c1 = p.g1 * p.h1
    c2 = p.g2 * p.h2
    v = PairState((c1 * a22 - a12 * c2) / det, (a11 * c2 - c1 * a21) / det)
    nxt = step(v, params)
    scale = max(1.0, abs(v.v1), abs(v.v2))
    if abs(nxt.v1 - v.v1) > _TOL * scale or abs(nxt.v2 - v.v2) > _TOL * scale:
        raise ArithmeticError(f"fixed point failed its invariance check: {v} -> {nxt}")
    return v


def spectral_radius(params: RichardsonParams) -> float:
    """Largest eigenvalue magnitude of the update matrix [[b1,d1],[d2,b2]]."""
    p = params
    tr = p.beta1 + p.beta2
    det = p.beta1 * p.beta2 - p.delta1 * p.delta2
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return max(abs((tr + disc) / 2.0), abs((tr - disc) / 2.0))


def stability(params: RichardsonParams) -> StabilityReport:
    """Classify the dynamics by spectral radius against 1 (tolerance 1e-9)."""
    rho = spectral_radius(params)
    if rho < 1.0 - _TOL:
        kind = Stability.STABLE
    elif rho > 1.0 + _TOL:
        kind = Stability.UNSTABLE
    else:
        kind = Stability.MARGINAL
    return StabilityReport(kind, rho)
