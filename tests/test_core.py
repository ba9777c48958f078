"""World geometry and domain-type contracts."""

import dataclasses
import math
import random
import warnings
from typing import get_origin

import pytest

from avflock.core import (ParamRangeWarning, SimParams, _wrap1, displace,
                          torus_distance_xy, typed_fields)
from avflock.experiments import ExperimentSpec
from avflock.richardson import RichardsonParams

W, H = 100.0, 100.0


class TestWrap:
    def test_negative_x(self):
        assert (_wrap1(-1.0, W), _wrap1(0.0, H)) == (99.0, 0.0)

    def test_identity(self):
        assert (_wrap1(50.0, W), _wrap1(50.0, H)) == (50.0, 50.0)

    def test_multiple_wraps(self):
        # hand modular computation: 250.5 - 2*100, -0.5 + 100
        assert (_wrap1(250.5, W), _wrap1(-0.5, H)) == (50.5, 99.5)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(500):
            x, y = rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)
            once = (_wrap1(x, W), _wrap1(y, H))
            assert (_wrap1(once[0], W), _wrap1(once[1], H)) == once
            assert 0 <= once[0] < W and 0 <= once[1] < H

    def test_rounding_edge_stays_canonical(self):
        # tiny negative values can round the float modulo up to the modulus
        x, y = _wrap1(-1e-18, W), _wrap1(-1e-300, H)
        assert 0 <= x < W and 0 <= y < H


class TestTorusDistance:
    def test_zero(self):
        assert torus_distance_xy(0, 0, 0, 0, W, H) == 0.0

    def test_wrap_shortcut(self):
        assert torus_distance_xy(1, 0, 99, 0, W, H) == 2.0

    def test_three_four_five(self):
        assert torus_distance_xy(10, 10, 13, 14, W, H) == 5.0

    def test_symmetric(self):
        rng = random.Random(11)
        for _ in range(500):
            ax, ay = rng.uniform(0, W), rng.uniform(0, H)
            bx, by = rng.uniform(0, W), rng.uniform(0, H)
            assert (torus_distance_xy(ax, ay, bx, by, W, H)
                    == torus_distance_xy(bx, by, ax, ay, W, H))

    def test_half_diagonal_bound(self):
        bound = math.hypot(W / 2, H / 2)
        rng = random.Random(13)
        for _ in range(500):
            ax, ay = rng.uniform(0, W), rng.uniform(0, H)
            bx, by = rng.uniform(0, W), rng.uniform(0, H)
            assert torus_distance_xy(ax, ay, bx, by, W, H) <= bound


class TestForward:
    """A move along the heading, through `displace`."""

    def test_due_east(self):
        x, y = displace(0.0, 0.0, 90.0, 0.3, W, H)
        assert x == pytest.approx(0.3, abs=1e-12)
        assert y == pytest.approx(0.0, abs=1e-12)

    def test_zero_speed_identity(self):
        assert displace(4.5, 6.25, 37.0, 0.0, W, H) == (4.5, 6.25)

    def test_heading_120_hand_trig(self):
        x, y = displace(0.0, 0.0, 120.0, 0.3, W, H)
        assert x == pytest.approx(0.3 * math.sin(math.radians(120.0)))
        assert x == pytest.approx(0.2598, abs=1e-4)
        # dy = 0.3*cos(120 deg) = -0.15 wraps to 99.85
        assert y == pytest.approx(99.85, abs=1e-4)

    def test_heading_wraps_mod_360(self):
        rng = random.Random(17)
        for _ in range(200):
            h = rng.uniform(0, 360)
            x, y, sp = rng.uniform(0, W), rng.uniform(0, H), rng.uniform(0, 1)
            ax, ay = displace(x, y, h, sp, W, H)
            bx, by = displace(x, y, h + 360.0, sp, W, H)
            assert ax == pytest.approx(bx, abs=1e-9)
            assert ay == pytest.approx(by, abs=1e-9)


class TestSimParams:
    def test_out_of_range_slider_warns(self):
        with pytest.warns(ParamRangeWarning):
            SimParams.from_given({"max_velocity": 0.3})  # below the 0.6 slider floor

    def test_benchmark_safety_value_warns_but_builds(self):
        with pytest.warns(ParamRangeWarning):
            p = SimParams.from_given({"min_safety_distance": 1.0})
        assert p.min_safety_distance == 1.0

    def test_constructor_and_replace_do_not_warn(self):
        # the defaults max_velocity 0.3 and min_safety_distance 1.0 are
        # outside their slider ranges: only a value a user gives warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dataclasses.replace(SimParams(), ticks=5)

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

    def test_negative_seed_rejected(self):
        # random.Random(-7) seeds like random.Random(7): -7 would replay 7
        with pytest.raises(ValueError, match="seed must be >= 0, got -7"):
            SimParams(seed=-7)
        assert SimParams(seed=0).seed == 0

    def test_min_velocity_above_max_rejected(self):
        # random walkers keep to [min_velocity, max_velocity]: an empty band
        # has no meaning
        with pytest.raises(ValueError, match=r"min_velocity \(0\.9\) must not "
                                             r"exceed max_velocity \(0\.3\)"):
            SimParams(min_velocity=0.9, max_velocity=0.3)
        assert SimParams(min_velocity=0.6, max_velocity=0.6).min_velocity == 0.6

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            SimParams(n_red=-1)

    @pytest.mark.parametrize("name, value", [
        ("n_red", True), ("ticks", 1.5), ("n_black", "5"), ("seed", 2.0),
        ("min_velocity", True), ("sonar_range", "2.5"), ("literal_rules", 1),
        ("scenario", "social"), ("collision_rule", "pair")])
    def test_wrong_type_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be "):
            SimParams(**{name: value})

    def test_int_accepted_for_float_field(self):
        assert SimParams(world_width=200, sonar_range=0).world_width == 200


# a valid instance of each class that `check_fields` guards, as keyword arguments
_VALID = {SimParams: {},
          ExperimentSpec: {"name": "x", "configurations": (SimParams(ticks=2),)},
          RichardsonParams: {}}


def _bad_values():
    """A bool, a str and a float in every field typed by a plain class other
    than theirs, and nan, inf and an int past the float range in every float
    field, each with its message."""
    for cls in _VALID:
        for f, kind in typed_fields(cls):
            if get_origin(kind) is not None:  # ExperimentSpec.configurations
                continue
            bad = [(v, f"must be {kind.__name__}, got {v!r}")
                   for v in (True, "1", 2.5) if type(v) is not kind]
            if kind is float:
                bad += [(v, f"must be finite, got {v}")
                        for v in (math.nan, math.inf, 10**400)]
            for value, message in bad:
                # the id keeps the first digits of 10**400
                yield pytest.param(cls, f.name, value, f"{f.name} {message}",
                                   id=f"{cls.__name__}.{f.name}={value!r:.8}")


@pytest.mark.parametrize("cls, name, value, message", _bad_values())
def test_check_fields_names_the_field(cls, name, value, message):
    with pytest.raises(ValueError) as exc:
        cls(**{**_VALID[cls], name: value})
    assert str(exc.value) == message
