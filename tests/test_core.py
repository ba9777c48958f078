"""World geometry and domain-type contracts."""

import math
import random

import pytest

from avflock.core import (AgentState, ParamRangeWarning, Position, SimParams,
                          Team, forward, normalize_heading, torus_distance,
                          wrap)

W, H = 100.0, 100.0


class TestWrap:
    def test_negative_x(self):
        assert wrap(Position(-1.0, 0.0), W, H) == Position(99.0, 0.0)

    def test_identity(self):
        assert wrap(Position(50.0, 50.0), W, H) == Position(50.0, 50.0)

    def test_multiple_wraps(self):
        # hand modular computation: 250.5 - 2*100, -0.5 + 100
        assert wrap(Position(250.5, -0.5), W, H) == Position(50.5, 99.5)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(500):
            p = Position(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            once = wrap(p, W, H)
            assert wrap(once, W, H) == once
            assert 0 <= once.x < W and 0 <= once.y < H

    def test_rounding_edge_stays_canonical(self):
        # tiny negative values can round the float modulo up to the modulus
        p = wrap(Position(-1e-18, -1e-300), W, H)
        assert 0 <= p.x < W and 0 <= p.y < H


class TestTorusDistance:
    def test_zero(self):
        assert torus_distance(Position(0, 0), Position(0, 0), W, H) == 0.0

    def test_wrap_shortcut(self):
        assert torus_distance(Position(1, 0), Position(99, 0), W, H) == 2.0

    def test_three_four_five(self):
        assert torus_distance(Position(10, 10), Position(13, 14), W, H) == 5.0

    def test_symmetric(self):
        rng = random.Random(11)
        for _ in range(500):
            a = Position(rng.uniform(0, W), rng.uniform(0, H))
            b = Position(rng.uniform(0, W), rng.uniform(0, H))
            assert torus_distance(a, b, W, H) == torus_distance(b, a, W, H)

    def test_half_diagonal_bound(self):
        bound = math.hypot(W / 2, H / 2)
        rng = random.Random(13)
        for _ in range(500):
            a = Position(rng.uniform(0, W), rng.uniform(0, H))
            b = Position(rng.uniform(0, W), rng.uniform(0, H))
            assert torus_distance(a, b, W, H) <= bound


def _agent(x=0.0, y=0.0, heading=0.0, speed=0.0):
    return AgentState(id=0, team=Team.RED, x=x, y=y, heading=heading, speed=speed)


class TestForward:
    def test_due_east(self):
        a = forward(_agent(heading=90.0, speed=0.3), W, H)
        assert a.x == pytest.approx(0.3, abs=1e-12)
        assert a.y == pytest.approx(0.0, abs=1e-12)

    def test_zero_speed_identity(self):
        a = forward(_agent(x=4.5, y=6.25, heading=37.0, speed=0.0), W, H)
        assert (a.x, a.y) == (4.5, 6.25)

    def test_heading_120_hand_trig(self):
        a = forward(_agent(heading=120.0, speed=0.3), W, H)
        assert a.x == pytest.approx(0.3 * math.sin(math.radians(120.0)))
        assert a.x == pytest.approx(0.2598, abs=1e-4)
        # dy = 0.3*cos(120 deg) = -0.15 wraps to 99.85
        assert a.y == pytest.approx(99.85, abs=1e-4)

    def test_heading_wraps_mod_360(self):
        rng = random.Random(17)
        for _ in range(200):
            h = rng.uniform(0, 360)
            base = _agent(x=rng.uniform(0, W), y=rng.uniform(0, H),
                          heading=h, speed=rng.uniform(0, 1))
            import dataclasses
            shifted = dataclasses.replace(base, heading=h + 360.0)
            fa = forward(base, W, H)
            fb = forward(shifted, W, H)
            assert fa.x == pytest.approx(fb.x, abs=1e-9)
            assert fa.y == pytest.approx(fb.y, abs=1e-9)

    def test_preserves_identity_fields(self):
        src = AgentState(id=9, team=Team.BLACK, x=1.0, y=2.0, heading=45.0,
                         speed=0.5, random_behaviour=True, collisions=3)
        out = forward(src, W, H)
        assert (out.id, out.team, out.heading, out.speed) == (9, Team.BLACK, 45.0, 0.5)
        assert out.random_behaviour is True and out.collisions == 3


def test_normalize_heading():
    assert normalize_heading(360.0) == 0.0
    assert normalize_heading(-90.0) == 270.0
    assert normalize_heading(90.0) == 90.0
    assert 0 <= normalize_heading(-1e-18) < 360.0


class TestSimParams:
    def test_out_of_range_slider_warns(self):
        with pytest.warns(ParamRangeWarning):
            SimParams(max_velocity=0.3)  # below the 0.6 slider floor

    def test_benchmark_safety_value_warns_but_builds(self):
        with pytest.warns(ParamRangeWarning):
            p = SimParams(min_safety_distance=1.0)
        assert p.min_safety_distance == 1.0

    def test_zero_ticks_rejected(self):
        with pytest.raises(ValueError):
            SimParams(ticks=0)

    def test_zero_collision_radius_rejected(self):
        with pytest.raises(ValueError):
            SimParams(collision_radius=0.0)

    def test_world_must_exceed_twice_sonar(self):
        with pytest.raises(ValueError):
            SimParams(world_width=4.0, world_height=4.0, sonar_range=2.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [
        "min_velocity", "max_velocity", "max_acceleration", "deceleration",
        "min_safety_distance", "sonar_range", "world_width", "world_height",
        "collision_radius"])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SimParams(**{name: value})

    def test_negative_sonar_range_rejected(self):
        with pytest.raises(ValueError, match="sonar_range must be non-negative"):
            SimParams(sonar_range=-1.0)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SimParams(n_red=-1)
