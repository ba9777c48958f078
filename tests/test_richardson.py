"""Analytic pair-dynamics contracts, checked against independent oracles."""

import math
import random

import numpy as np
import pytest

from avflock import richardson
from avflock.agents import ActionKind
from avflock.cli import main
from avflock.core import (AgentState, SimParams, Team, WorldState,
                          heading_unit)
from avflock.engine import tick
from avflock.richardson import (PairState, RichardsonParams, Stability,
                                fixed_point, simulate, spectral_radius,
                                stability, stable_preset, step)

# symmetric contractive parameters used by several derived examples
SYM = RichardsonParams(delta1=0.25, delta2=0.25, alpha1=-0.5, alpha2=-0.5,
                       g1=1.0, h1=1.0, g2=1.0, h2=1.0)
IDENTITY = RichardsonParams(delta1=0.0, delta2=0.0, alpha1=0.0, alpha2=0.0)


def _matrix(p: RichardsonParams) -> list[list[float]]:
    return [[p.beta1, p.delta1], [p.delta2, p.beta2]]


def _mat_mul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def _mat_pow(m, n):
    # repeated squaring; independent of the simulate() iteration path
    result = [[1.0, 0.0], [0.0, 1.0]]
    base = m
    while n:
        if n & 1:
            result = _mat_mul(result, base)
        base = _mat_mul(base, base)
        n >>= 1
    return result


class TestStep:
    def test_identity_dynamics(self):
        assert step(PairState(3.0, 4.0), IDENTITY) == PairState(3.0, 4.0)

    def test_pure_mirroring_coefficient_isolation(self):
        # beta1 = 0 and delta1 = 1: v1 becomes the other's previous position
        p = RichardsonParams(delta1=1.0, delta2=0.0, alpha1=-1.0, alpha2=0.0)
        assert step(PairState(3.0, 4.0), p).v1 == 4.0

    def test_three_step_hand_iteration(self):
        # symmetric params, start (0,0): dyadic values are float-exact
        traj = simulate(PairState(0.0, 0.0), SYM, 3)
        assert traj[1] == PairState(1.0, 1.0)
        assert traj[2] == PairState(1.75, 1.75)
        assert traj[3] == PairState(2.3125, 2.3125)


class TestParams:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["delta1", "delta2", "alpha1", "alpha2",
                                      "g1", "g2", "h1", "h2"])
    def test_non_finite_coefficient_rejected(self, name, value):
        kwargs = dict(delta1=0.25, delta2=0.25, alpha1=-0.5, alpha2=-0.5)
        kwargs[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            RichardsonParams(**kwargs)


class TestSimulate:
    def test_zero_steps(self):
        s = PairState(2.0, 5.0)
        assert simulate(s, SYM, 0) == [s]

    def test_identity_replication(self):
        s = PairState(-1.5, 2.5)
        assert simulate(s, IDENTITY, 5) == [s] * 6

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            simulate(PairState(0, 0), SYM, -1)

    @pytest.mark.parametrize("state", [PairState(math.nan, 0.0),
                                       PairState(0.0, math.inf),
                                       PairState(-math.inf, 1.0)])
    def test_non_finite_initial_state_rejected(self, state):
        with pytest.raises(ValueError, match="initial state must be finite"):
            simulate(state, SYM, 3)

    def test_overflowing_step_raises_naming_it(self):
        p = RichardsonParams(delta1=-1e200, delta2=1e200, alpha1=1e200, alpha2=1e200)
        assert simulate(PairState(1.0, 0.0), p, 1)[1] == PairState(1e200, 1e200)
        with pytest.raises(ArithmeticError, match="step 2 is not finite"):
            simulate(PairState(1.0, 0.0), p, 3)

    def test_linearity_when_goal_terms_zero(self):
        rng = random.Random(23)
        p = RichardsonParams(delta1=0.3, delta2=-0.2, alpha1=-0.4, alpha2=-0.6)
        for _ in range(200):
            a = rng.uniform(-2, 2)
            s1 = PairState(rng.uniform(-5, 5), rng.uniform(-5, 5))
            s2 = PairState(rng.uniform(-5, 5), rng.uniform(-5, 5))
            mix = PairState(a * s1.v1 + (1 - a) * s2.v1, a * s1.v2 + (1 - a) * s2.v2)
            lhs = step(mix, p)
            r1, r2 = step(s1, p), step(s2, p)
            assert lhs.v1 == pytest.approx(a * r1.v1 + (1 - a) * r2.v1, abs=1e-9)
            assert lhs.v2 == pytest.approx(a * r1.v2 + (1 - a) * r2.v2, abs=1e-9)

    def test_consecutive_deltas_match_incremental_form(self):
        # dv1(n) = a1*v1(n-1) + d1*v2(n-1) + g1*h1, likewise for v2
        p = RichardsonParams(delta1=0.3, delta2=-0.15, alpha1=-0.45, alpha2=-0.55,
                             g1=0.5, h1=2.0, g2=-0.25, h2=1.5)
        traj = simulate(PairState(0.7, -1.2), p, 50)
        for prev, cur in zip(traj, traj[1:]):
            assert cur.v1 - prev.v1 == pytest.approx(
                p.alpha1 * prev.v1 + p.delta1 * prev.v2 + p.g1 * p.h1, abs=1e-9)
            assert cur.v2 - prev.v2 == pytest.approx(
                p.alpha2 * prev.v2 + p.delta2 * prev.v1 + p.g2 * p.h2, abs=1e-9)


class TestFixedPoint:
    def test_identity_dynamics_has_no_unique_fixed_point(self):
        assert fixed_point(IDENTITY) is None

    def test_symmetric_params_fixed_point(self):
        # 2x2 solve: v = 0.5v + 0.25v + 1 per component -> v* = (4, 4)
        fp = fixed_point(SYM)
        assert fp is not None
        assert fp.v1 == pytest.approx(4.0, abs=1e-9)
        assert fp.v2 == pytest.approx(4.0, abs=1e-9)
        nxt = step(fp, SYM)
        assert abs(nxt.v1 - fp.v1) <= 1e-9 and abs(nxt.v2 - fp.v2) <= 1e-9

    def test_decoupled_geometric_series(self):
        p = RichardsonParams(delta1=0.0, delta2=0.0, alpha1=-0.5, alpha2=-0.5,
                             g1=1.0, h1=1.0, g2=2.0, h2=1.0)
        assert fixed_point(p) == pytest.approx((2.0, 4.0))

    def test_step_invariance_on_random_nonsingular_draws(self):
        rng = random.Random(29)
        checked = 0
        while checked < 100:
            p = RichardsonParams(
                delta1=rng.uniform(-0.9, 0.9), delta2=rng.uniform(-0.9, 0.9),
                alpha1=rng.uniform(-1.5, 0.5), alpha2=rng.uniform(-1.5, 0.5),
                g1=rng.uniform(-2, 2), h1=rng.uniform(-2, 2),
                g2=rng.uniform(-2, 2), h2=rng.uniform(-2, 2))
            fp = fixed_point(p)
            if fp is None:
                continue
            nxt = step(fp, p)
            scale = max(1.0, abs(fp.v1), abs(fp.v2))
            assert abs(nxt.v1 - fp.v1) <= 1e-9 * scale
            assert abs(nxt.v2 - fp.v2) <= 1e-9 * scale
            checked += 1


class TestStability:
    def test_diagonal_contraction(self):
        p = RichardsonParams(delta1=0.0, delta2=0.0, alpha1=-0.5, alpha2=-0.5)
        report = stability(p)
        assert report.kind is Stability.STABLE
        assert report.spectral_radius == pytest.approx(0.5)

    def test_identity_is_marginal(self):
        report = stability(IDENTITY)
        assert report.kind is Stability.MARGINAL
        assert report.spectral_radius == pytest.approx(1.0)

    def test_symmetric_unstable_hand_eigenvalues(self):
        # symmetric 2x2 has eigenvalues beta +- delta = 1.5 and 0.5
        p = RichardsonParams(delta1=0.5, delta2=0.5, alpha1=0.0, alpha2=0.0)
        report = stability(p)
        assert report.kind is Stability.UNSTABLE
        assert report.spectral_radius == pytest.approx(1.5)

    def test_spectral_radius_matches_numpy_oracle(self):
        rng = random.Random(31)
        for _ in range(300):
            p = RichardsonParams(
                delta1=rng.uniform(-2, 2), delta2=rng.uniform(-2, 2),
                alpha1=rng.uniform(-3, 1), alpha2=rng.uniform(-3, 1))
            oracle = max(abs(v) for v in np.linalg.eigvals(np.array(_matrix(p))))
            assert spectral_radius(p) == pytest.approx(oracle, abs=1e-9)

    def test_stable_preset_is_stable(self):
        assert stability(stable_preset()).kind is Stability.STABLE


class TestLargeCoefficients:
    """Coefficients whose products dwarf the result or overflow a float."""

    def test_fixed_point_check_scales_with_step_terms(self, capsys):
        # step's rounding error scales with |d2*v1| ~ 6e11, not with |v| ~ 100
        p = RichardsonParams(delta1=2.0, delta2=6e9, alpha1=-80.0, alpha2=-6e9,
                             g1=-8000.0, h1=1.0)
        assert fixed_point(p) == pytest.approx((-4000 / 39, -4000 / 39))
        assert main(["richardson", "--delta1", "2", "--delta2", "6e9",
                     "--alpha1=-80", "--alpha2=-6e9", "--g1=-8000", "--h1", "1",
                     "--steps", "0"]) == 0
        assert "fixed point: v1=-102.564102564" in capsys.readouterr().out

    def test_overflowing_products_are_unstable_and_singular(self, capsys):
        # tr*tr and b1*b2 overflow: unscaled, the radius and the point were NaN
        p = RichardsonParams(delta1=1e200, delta2=1e200, alpha1=1e200, alpha2=1e200)
        report = stability(p)
        assert report.kind is Stability.UNSTABLE
        assert report.spectral_radius == pytest.approx(2e200)
        assert fixed_point(p) is None
        assert main(["richardson", "--delta1", "1e200", "--delta2", "1e200",
                     "--alpha1", "1e200", "--alpha2", "1e200", "--steps", "0"]) == 0
        out = capsys.readouterr().out
        assert "stability: Unstable (spectral radius 2e+200)" in out
        assert "fixed point: none" in out

    def test_nan_radius_is_not_marginal(self, monkeypatch):
        monkeypatch.setattr(richardson, "spectral_radius", lambda p: math.nan)
        assert stability(stable_preset()).kind is Stability.UNSTABLE

    def test_overflowing_fixed_point_is_one_error_line(self, capsys):
        # g1*h1 overflows, so the solve gives infinities that step cannot keep
        assert main(["richardson", "--g1", "1e300", "--h1", "1e10",
                     "--steps", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: fixed point failed its invariance check")
        assert len(err.splitlines()) == 1

    def test_overflowing_trajectory_is_one_error_line(self, capsys):
        # step 2 is (nan, inf): no row reaches stdout, and the error names it
        argv = ["richardson", "--delta1=-1e200", "--delta2", "1e200",
                "--alpha1", "1e200", "--alpha2", "1e200"]
        assert main(argv + ["--steps", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: step 2 is not finite")
        assert len(captured.err.splitlines()) == 1
        assert main(argv + ["--steps", "1"]) == 0
        assert "\n1,1e+200,1e+200\n" in capsys.readouterr().out


class TestClosedForm:
    def test_simulate_matches_closed_form_for_stable_draws(self):
        # final state must equal v* + M^n (s0 - v*), M^n by repeated squaring
        rng = random.Random(37)
        done = 0
        while done < 100:
            b1 = rng.uniform(-0.6, 0.6)
            b2 = rng.uniform(-0.6, 0.6)
            d1 = rng.uniform(-0.3, 0.3)
            d2 = rng.uniform(-0.3, 0.3)
            p = RichardsonParams(delta1=d1, delta2=d2, alpha1=b1 - 1.0, alpha2=b2 - 1.0,
                                 g1=rng.uniform(-1, 1), h1=rng.uniform(-1, 1),
                                 g2=rng.uniform(-1, 1), h2=rng.uniform(-1, 1))
            if stability(p).kind is not Stability.STABLE:
                continue
            fp = fixed_point(p)
            assert fp is not None
            s0 = PairState(rng.uniform(-3, 3), rng.uniform(-3, 3))
            n = rng.randrange(0, 1001)
            final = simulate(s0, p, n)[-1]
            mn = _mat_pow(_matrix(p), n)
            e1, e2 = s0.v1 - fp.v1, s0.v2 - fp.v2
            want1 = fp.v1 + mn[0][0] * e1 + mn[0][1] * e2
            want2 = fp.v2 + mn[1][0] * e1 + mn[1][1] * e2
            tol1 = 1e-9 * max(1.0, abs(want1))
            tol2 = 1e-9 * max(1.0, abs(want2))
            assert abs(final.v1 - want1) <= tol1
            assert abs(final.v2 - want2) <= tol2
            done += 1



def _mirror_map(p: SimParams) -> RichardsonParams:
    """The map of two vehicles that mirror each other on every tick, with
    their speeds as the state: each takes the other's speed plus a change,
    so alpha = -1, delta = 1 and g*h = -deceleration (under literal_rules
    also + max_acceleration, which the engine adds in a second rounding)."""
    gh = p.max_acceleration - p.deceleration if p.literal_rules else -p.deceleration
    return RichardsonParams(alpha1=-1.0, alpha2=-1.0, delta1=1.0, delta2=1.0,
                            g1=1.0, h1=gh, g2=1.0, h2=gh)


def _mirrored_speeds(p: SimParams, speeds, gap, heading, lead, at,
                     ticks=100) -> list[PairState]:
    """The engine's speeds after each tick of two vehicles at `speeds`,
    `gap` apart in one lane along `heading`, vehicle `lead` ahead and the
    other at `at`, for as long as both mirror and stay above 0."""
    dx, dy = heading_unit(heading)
    xy = {1 - lead: at, lead: ((at[0] + gap * dx) % p.world_width,
                               (at[1] + gap * dy) % p.world_height)}
    world = WorldState(agents=[AgentState(i, team, *xy[i], heading, speeds[i])
                               for i, team in enumerate((Team.RED, Team.BLACK))],
                       params=p, rng=random.Random(0))
    out = []
    for _ in range(ticks):
        tick(world)
        state = PairState(world.agents[0].speed, world.agents[1].speed)
        if world.last_actions != [ActionKind.MIRROR] * 2 or min(state) <= 0.0:
            break
        out.append(state)
    return out


@pytest.mark.parametrize("speeds, decel, gap, heading, lead, at", [
    # the probe: agent 0 behind and faster, so the gap alternates 0.2, 0.5
    ((0.9, 0.6), 0.05, 0.5, 90.0, 1, (10.0, 10.0)),
    ((0.6, 0.9), 0.05, 0.5, 90.0, 1, (10.0, 10.0)),  # the leader faster
    ((0.7, 0.4), 0.1, 0.3, 0.0, 0, (50.0, 50.0)),  # agent 0 leads, north
    ((0.33, 0.71), 0.07, 0.9, 45.0, 0, (50.0, 50.0)),  # diagonal lane
    ((0.85, 0.85), 0.02, 0.95, 270.0, 1, (30.0, 70.0)),  # equal speeds, west
    ((0.9, 0.8), 0.2, 0.7, 120.0, 1, (50.0, 50.0)),  # a steep deceleration
    ((0.8, 0.5), 0.03, 0.6, 200.0, 0, (0.2, 0.3)),  # the lane wraps the torus
])
def test_map_is_the_engine_on_a_mutually_threatened_pair(speeds, decel, gap,
                                                         heading, lead, at):
    # two vehicles in one lane, each the other's threat on every tick: each
    # takes the other's speed less the deceleration, which is the map with
    # the speeds as the state, bit for bit until a speed would reach 0
    p = SimParams(n_red=1, n_black=1, min_velocity=0.5, max_velocity=0.9,
                  deceleration=decel)
    got = _mirrored_speeds(p, speeds, gap, heading, lead, at)
    assert len(got) >= 3
    assert got == simulate(PairState(*speeds), _mirror_map(p), len(got))[1:]


def test_map_leaves_the_engine_under_literal_rules():
    # README's divergence: a literal mirror takes v - decel + acc in two
    # roundings and clamps at max_velocity; the map adds acc - decel once
    p = SimParams(n_red=1, n_black=1, min_velocity=0.5, max_velocity=0.9,
                  deceleration=0.05, max_acceleration=0.1, literal_rules=True)
    got = _mirrored_speeds(p, (0.9, 0.6), 0.5, 90.0, 1, (10.0, 10.0), ticks=1)
    assert got == [PairState(0.6499999999999999, 0.9)]
    assert simulate(PairState(0.9, 0.6), _mirror_map(p), 1)[1] == (0.65, 0.9500000000000001)
