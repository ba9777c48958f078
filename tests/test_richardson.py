"""Analytic pair-dynamics contracts, checked against independent oracles."""

import math
import random

import numpy as np
import pytest

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
