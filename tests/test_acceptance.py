"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The full benchmark sweeps
(set1 + set2, 8 paired replicates each, sequential) execute once in a
module fixture and are shared by the statistical criteria; the fixture also
times them for the performance criterion.
"""

import random
import re
import time
from pathlib import Path

import pytest

from avflock.agents import danger, find_nearmates, mirror, random_walk_step
from avflock.core import (AgentState, Scenario, SimParams, Team, WorldState,
                          torus_distance_xy)
from avflock.engine import SpatialGrid, run
from avflock.experiments import (builtin_set, efficiency, format_rows,
                                 run_experiment)
from avflock.richardson import (PairState, RichardsonParams, Stability,
                                fixed_point, simulate, stability, step)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def full_sweep():
    t0 = time.perf_counter()
    rows1 = run_experiment(builtin_set("set1"), jobs=1)
    rows2 = run_experiment(builtin_set("set2"), jobs=1)
    elapsed = time.perf_counter() - t0
    return rows1, rows2, elapsed


def _means(rows, scenario):
    """Population -> mean collisions for one scenario, population-sorted."""
    pairs = sorted((r.params.n_red, r.mean_collisions)
                   for r in rows if r.scenario is scenario)
    return [m for _, m in pairs]


def test_criterion_01_social_at_most_half_of_random(full_sweep):
    rows1, _, _ = full_sweep
    social = _means(rows1, Scenario.ALL_SOCIAL_AVS)
    rnd = _means(rows1, Scenario.RANDOM_WALK)
    ratios = [s / r for s, r in zip(social, rnd)]
    ok = all(s <= 0.5 * r for s, r in zip(social, rnd))
    assert _report(1, ok, "set1 social/random mean ratios per population "
                   f"(40..80 per team): {[round(x, 3) for x in ratios]}, bound 0.5")


def test_criterion_02_random_walk_means_strictly_increase(full_sweep):
    rows1, _, _ = full_sweep
    rnd = _means(rows1, Scenario.RANDOM_WALK)
    ok = all(a < b for a, b in zip(rnd, rnd[1:]))
    assert _report(2, ok, f"set1 random-walk means across populations: "
                   f"{[round(x, 2) for x in rnd]}")


def test_criterion_03_social_means_flat(full_sweep):
    rows1, _, _ = full_sweep
    social = _means(rows1, Scenario.ALL_SOCIAL_AVS)
    ratio = max(social) / min(social)
    ok = ratio <= 1.5
    assert _report(3, ok, f"set1 social means {[round(x, 2) for x in social]}, "
                   f"max/min = {ratio:.2f}, bound 1.5 (see ledger: collision "
                   "radius equals the safety distance, so every interaction "
                   "costs at least one pair entry and totals grow with "
                   "population; flatness is unattainable under the pinned "
                   "defaults)")


def test_criterion_04_higher_velocity_raises_social_collisions(full_sweep):
    rows1, rows2, _ = full_sweep

    def social_40(rows):
        return next(r.mean_collisions for r in rows
                    if r.scenario is Scenario.ALL_SOCIAL_AVS and r.params.n_red == 40)

    s1, s2 = social_40(rows1), social_40(rows2)
    ok = s2 > s1
    assert _report(4, ok, f"social mean at 40+40: set1 {s1:.2f} vs set2 {s2:.2f}")


def test_readme_quotes_each_sets_social_random_ratios(full_sweep):
    # README "Results at desk scale" gives each set's range of social/random
    # mean ratios; a sweep that leaves it must change the README too
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.search(r"ratios (\S+) to (\S+)\s+in set 1 and (\S+) to (\S+) in set 2",
                       readme)
    assert quoted, "README no longer quotes the ratio ranges"
    bounds = [float(x) for x in quoted.groups()]
    rows1, rows2, _ = full_sweep
    for rows, (lo, hi) in zip((rows1, rows2), (bounds[:2], bounds[2:])):
        ratios = [s / r for s, r in zip(_means(rows, Scenario.ALL_SOCIAL_AVS),
                                        _means(rows, Scenario.RANDOM_WALK))]
        assert all(lo <= x <= hi for x in ratios), (lo, hi, ratios)


def test_criterion_05_efficiency_arithmetic():
    eff = efficiency(1248.12, 268.25)
    ok = abs(eff - 78.51) <= 0.01
    assert _report(5, ok, f"efficiency(1248.12, 268.25) = {eff:.4f} %, "
                   "expected 78.51 +- 0.01")


def _mat_mul(a, b):
    return [[a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]],
            [a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]]]


def _mat_pow(m, n):
    out = [[1.0, 0.0], [0.0, 1.0]]
    while n:
        if n & 1:
            out = _mat_mul(out, m)
        m = _mat_mul(m, m)
        n >>= 1
    return out


def test_criterion_06_analytic_pair_dynamics_suite():
    rng = random.Random(606)
    worst = 0.0
    done = 0
    while done < 100:
        b1, b2 = rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)
        d1, d2 = rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)
        p = RichardsonParams(delta1=d1, delta2=d2, alpha1=b1 - 1, alpha2=b2 - 1,
                             g1=rng.uniform(-1, 1), h1=rng.uniform(-1, 1),
                             g2=rng.uniform(-1, 1), h2=rng.uniform(-1, 1))
        if stability(p).kind is not Stability.STABLE:
            continue
        fp = fixed_point(p)
        assert fp is not None
        nxt = step(fp, p)
        scale = max(1.0, abs(fp.v1), abs(fp.v2))
        assert abs(nxt.v1 - fp.v1) <= 1e-9 * scale
        assert abs(nxt.v2 - fp.v2) <= 1e-9 * scale
        s0 = PairState(rng.uniform(-3, 3), rng.uniform(-3, 3))
        n = rng.randrange(0, 1001)
        final = simulate(s0, p, n)[-1]
        mn = _mat_pow([[p.beta1, p.delta1], [p.delta2, p.beta2]], n)
        e1, e2 = s0.v1 - fp.v1, s0.v2 - fp.v2
        want = (fp.v1 + mn[0][0] * e1 + mn[0][1] * e2,
                fp.v2 + mn[1][0] * e1 + mn[1][1] * e2)
        err = max(abs(final.v1 - want[0]) / max(1.0, abs(want[0])),
                  abs(final.v2 - want[1]) / max(1.0, abs(want[1])))
        worst = max(worst, err)
        assert err <= 1e-9
        done += 1

    # symmetric coefficients: eigenvalues are beta +- delta by hand
    for _ in range(200):
        beta = rng.uniform(-1.6, 1.6)
        delt = rng.uniform(-1.6, 1.6)
        p = RichardsonParams(delta1=delt, delta2=delt, alpha1=beta - 1,
                             alpha2=beta - 1)
        oracle = max(abs(beta + delt), abs(beta - delt))
        got = stability(p)
        assert got.spectral_radius == pytest.approx(oracle, abs=1e-9)
        if abs(oracle - 1.0) > 1e-9:
            want = Stability.STABLE if oracle < 1 else Stability.UNSTABLE
            assert got.kind is want
    assert _report(6, True, "100 stable draws match the closed form "
                   f"(worst relative error {worst:.2e} <= 1e-9); fixed points "
                   "are step-invariant; stability matches the symmetric "
                   "eigenvalue oracle")


def test_criterion_07_grid_equals_brute_force():
    rng = random.Random(707)
    worlds = 0
    for _ in range(1000):
        w = rng.uniform(6.0, 80.0)
        h = rng.uniform(6.0, 80.0)
        sonar = rng.uniform(0.0, min(w, h) / 2.01)
        radius = rng.uniform(0.05, max(0.5, min(w, h) / 2.01))
        n = rng.randrange(1, 51)
        agents = [AgentState(id=i, team=Team.RED, x=rng.uniform(0, w),
                             y=rng.uniform(0, h), heading=0.0, speed=0.0)
                  for i in range(n)]
        grid = SpatialGrid(w, h, max(sonar, radius))
        grid.rebuild(agents)
        grid_pairs = set()
        for i, a in enumerate(agents):
            cands = grid.candidates(a.x, a.y)
            near = {j for j in cands if j != i and torus_distance_xy(
                a.x, a.y, agents[j].x, agents[j].y, w, h) <= sonar}
            brute_near = {j for j, b in enumerate(agents) if j != i
                          and torus_distance_xy(a.x, a.y, b.x, b.y, w, h) <= sonar}
            assert near == brute_near
            for j in cands:
                if j > i and torus_distance_xy(a.x, a.y, agents[j].x, agents[j].y,
                                               w, h) < radius:
                    grid_pairs.add((i, j))
        brute_pairs = {(i, j) for i in range(n) for j in range(i + 1, n)
                       if torus_distance_xy(agents[i].x, agents[i].y,
                                            agents[j].x, agents[j].y,
                                            w, h) < radius}
        assert grid_pairs == brute_pairs
        worlds += 1
    assert _report(7, True, f"neighbor sets and collision pairs equal the "
                   f"O(n^2) reference on {worlds} random worlds (exact set "
                   "equality)")


def _per_tick_csv(result) -> str:
    lines = ["tick,collisions"]
    lines += [f"{t},{c}" for t, c in enumerate(result.collisions_per_tick, 1)]
    return "\n".join(lines) + "\n"


def test_criterion_08_determinism(full_sweep):
    rows1, _, _ = full_sweep
    params = SimParams()  # benchmark profile, 1000 ticks
    csv_a = _per_tick_csv(run(params, seed=11))
    csv_b = _per_tick_csv(run(params, seed=11))
    runs_ok = csv_a == csv_b

    again = format_rows(run_experiment(builtin_set("set1"), jobs=1))
    parallel = format_rows(run_experiment(builtin_set("set1"), jobs=8))
    baseline = format_rows(rows1)
    sweep_ok = baseline == again
    jobs_ok = baseline == parallel
    ok = runs_ok and sweep_ok and jobs_ok
    assert _report(8, ok, f"run twice byte-identical: {runs_ok}; set1 sweep "
                   f"twice byte-identical: {sweep_ok}; jobs=1 vs jobs=8 "
                   f"byte-identical: {jobs_ok}")


def test_criterion_09_behavioral_unit_fixtures():
    rng = random.Random(909)
    # mirror: bit-exact heading copy, speed clamped at zero
    for _ in range(1000):
        h = rng.uniform(0, 360)
        nb = AgentState(id=1, team=Team.BLACK, x=0, y=0, heading=h,
                        speed=rng.uniform(0, 0.2))
        me = AgentState(id=0, team=Team.RED, x=0, y=0, heading=0.0, speed=0.3)
        act = mirror(me, nb, deceleration=0.25)
        assert act.new_heading == h
        assert act.new_speed == max(0.0, nb.speed - 0.25)
        assert act.new_speed >= 0.0

    # danger boundary is inclusive
    params = SimParams()
    agents = [AgentState(id=0, team=Team.RED, x=0, y=0, heading=0, speed=0),
              AgentState(id=1, team=Team.BLACK, x=1.0, y=0, heading=0, speed=0)]
    world = WorldState(agents=agents, params=params, rng=random.Random(0))
    view = find_nearmates(agents[0], world, params.sonar_range)
    boundary_ok = danger(agents[0], view, 1.0) is True
    agents[1].x = 1.0000001
    view = find_nearmates(agents[0], world, params.sonar_range)
    boundary_ok = boundary_ok and danger(agents[0], view, 1.0) is False

    # random-walk speed band over 1e5 steps for 100 seeds
    p = SimParams(scenario=Scenario.RANDOM_WALK, min_velocity=0.3,
                  max_velocity=0.3)
    band_ok = True
    for s in range(100):
        r = random.Random(s)
        a = AgentState(id=0, team=Team.RED, x=0, y=0, heading=0,
                       speed=p.min_velocity, random_behaviour=True)
        for _ in range(100_000):
            act = random_walk_step(a, p, r)
            a.speed = act.new_speed
            a.random_behaviour = not a.random_behaviour
            if not p.min_velocity <= a.speed <= p.max_velocity:
                band_ok = False
                break
        if not band_ok:
            break
    ok = boundary_ok and band_ok
    assert _report(9, ok, f"mirror copies heading bit-exactly and clamps at 0; "
                   f"danger boundary inclusive: {boundary_ok}; random-walk "
                   f"speed within [min, max] over 1e5 steps x 100 seeds: {band_ok}")


def test_criterion_10_performance_floor(full_sweep):
    _, _, elapsed = full_sweep
    ok = elapsed < 300.0
    assert _report(10, ok, f"set1 + set2 full sweeps (20 configurations x 8 "
                   f"replicates x 1000 ticks) took {elapsed:.1f} s "
                   "single-threaded, bound 300 s")
