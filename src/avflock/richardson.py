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
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .core import check_fields


@dataclass(frozen=True)
class RichardsonParams:
    """Coefficients of the coupled update: finite (`core.check_fields`), any sign."""

    delta1: float = field(default=0.25, metadata={"help": "position coefficient d1"})
    delta2: float = field(default=0.25, metadata={"help": "position coefficient d2"})
    alpha1: float = field(default=-0.5, metadata={"help": "road-capacity coefficient a1"})
    alpha2: float = field(default=-0.5, metadata={"help": "road-capacity coefficient a2"})
    g1: float = 0.0
    g2: float = 0.0
    h1: float = 0.0
    h2: float = 0.0

    __post_init__ = check_fields

    @property
    def beta1(self) -> float:
        return 1.0 + self.alpha1

    @property
    def beta2(self) -> float:
        return 1.0 + self.alpha2


def stable_preset() -> RichardsonParams:
    """The field defaults: symmetric, contractive, zero goal term."""
    return RichardsonParams()


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
    """Iterate `step` n times; element 0 is the initial state (length n+1).

    Raises ArithmeticError, naming the step, once a state overflows.
    """
    if n < 0:
        raise ValueError(f"step count must be >= 0, got {n}")
    if not (math.isfinite(initial.v1) and math.isfinite(initial.v2)):
        raise ValueError(f"initial state must be finite, got {initial}")
    out = [initial]
    s = initial
    for k in range(1, n + 1):
        s = step(s, params)
        if not (math.isfinite(s.v1) and math.isfinite(s.v2)):
            raise ArithmeticError(f"step {k} is not finite: {s}")
        out.append(s)
    return out


def _scale(p: RichardsonParams) -> float:
    """A power of two near the largest update-matrix entry; 1 if no product overflows."""
    largest = max(abs(p.beta1), abs(p.beta2), abs(p.delta1), abs(p.delta2))
    return 1.0 if largest < 2.0 ** 500 else math.ldexp(1.0, math.frexp(largest)[1] - 1)


def fixed_point(params: RichardsonParams) -> PairState | None:
    """Solve (I - M) v = c for the affine update; None if not unique.

    A None result signals marginal dynamics (singular I - M within 1e-12),
    not a failure. A returned point is re-checked to be step-invariant.
    """
    p = params
    s = _scale(p)
    # (I - M) / s for M = [[b1, d1], [d2, b2]]
    a11 = (1.0 - p.beta1) / s
    a12 = -p.delta1 / s
    a21 = -p.delta2 / s
    a22 = (1.0 - p.beta2) / s
    det = a11 * a22 - a12 * a21
    if abs(det) <= _SINGULAR_TOL / (s * s):
        return None
    c1 = p.g1 * p.h1
    c2 = p.g2 * p.h2
    v = PairState((c1 * a22 - a12 * c2) / det / s, (a11 * c2 - c1 * a21) / det / s)
    nxt = step(v, params)
    # step's rounding error grows with its largest term, not with |v|
    tol = _TOL * max(1.0, *map(abs, (v.v1, v.v2, c1, c2, p.beta1 * v.v1, p.delta1 * v.v2,
                                     p.delta2 * v.v1, p.beta2 * v.v2)))
    # written so that NaN and infinity fail it too
    if not (abs(nxt.v1 - v.v1) <= tol and abs(nxt.v2 - v.v2) <= tol < math.inf):
        raise ArithmeticError(f"fixed point failed its invariance check: {v} -> {nxt}")
    return v


def spectral_radius(params: RichardsonParams) -> float:
    """Largest eigenvalue magnitude of the update matrix [[b1,d1],[d2,b2]]."""
    p = params
    s = _scale(p)  # rho(M) = s * rho(M / s)
    b1, b2, d1, d2 = p.beta1 / s, p.beta2 / s, p.delta1 / s, p.delta2 / s
    tr = b1 + b2
    det = b1 * b2 - d1 * d2
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return s * max(abs((tr + disc) / 2.0), abs((tr - disc) / 2.0))


def stability(params: RichardsonParams) -> StabilityReport:
    """Classify the dynamics by spectral radius against 1 (tolerance 1e-9)."""
    rho = spectral_radius(params)
    if rho < 1.0 - _TOL:
        kind = Stability.STABLE
    elif rho <= 1.0 + _TOL:  # a NaN radius is not marginal: it falls through
        kind = Stability.MARGINAL
    else:
        kind = Stability.UNSTABLE
    return StabilityReport(kind, rho)
