"""Golden digests: per-run behaviour pinned byte for byte.

Each case runs `setup` + `tick` for 1000 ticks and hashes the per-tick
collision series plus every agent's final x, y, heading, speed, collision
tally and recovering flag (floats by repr, so one ulp changes the digest).
The default-profile pins were generated once from the engine before the
fused pair pass replaced the per-agent tick. The set2-profile pins (velocity
0.5-0.9, deceleration 0.3) cover the deep-freeze regime, where most of the
social flock is stopped; they were generated from the fused engine before
the social tick learned to skip stopped agents' pairs.

The trace pins hash the full text `run(params, seed, trace=buf)` writes for
300 ticks, 40 + 40 agents: social plain (Keep, Mirror and Accelerate rows,
speeds of 0.0), social literal (Mirror at a nonzero speed), set2 social
(deep freeze) and random walk. They were generated from the engine that
wrote one f-string per row, before the trace writer memoised each row's
heading, speed and action text and wrote once per tick.

A changed digest is a behaviour change: explain it in CHANGES.md, never
regenerate the pins to make a diff pass.

Print the digests of the current engine with `python tests/test_golden.py`.
"""

import dataclasses
import hashlib
import io
import itertools
import warnings

import pytest

from avflock.core import CollisionRule, ParamRangeWarning, Scenario, SimParams
from avflock.engine import run, setup, tick

TICKS = 1000
SCENARIOS = {"social": Scenario.ALL_SOCIAL_AVS, "random": Scenario.RANDOM_WALK}
POPULATIONS = (40, 80)
LITERAL = {"plain": False, "literal": True}
RULES = {r.value: r for r in CollisionRule}
SEEDS = (0, 1)


def case_key(scenario, pop, literal, rule, seed) -> str:
    return f"{scenario}-{pop}-{literal}-{rule}-s{seed}"


CASES = [case_key(*c) for c in itertools.product(
    SCENARIOS, POPULATIONS, LITERAL, RULES, SEEDS)]
# the fast benchmark profile, where social runs spend most ticks with at
# least half the flock stopped
SET2 = dict(min_velocity=0.5, max_velocity=0.9, deceleration=0.3)
SET2_CASES = ["set2-" + case_key("social", pop, "plain", "pair", seed)
              for pop in POPULATIONS for seed in SEEDS]


# full trace text of shorter runs: every row of every tick
TRACE_TICKS = 300
TRACE_CASES = ["trace-" + key for key in (
    case_key(s, 40, literal, "pair", seed)
    for s, literal in (("social", "plain"), ("social", "literal"),
                       ("set2-social", "plain"), ("random", "plain"))
    for seed in SEEDS)]


def case_params(key: str, ticks: int) -> tuple[SimParams, int]:
    """The parameters and seed a case key names."""
    profile = SET2 if key.startswith("set2-") else {}
    scenario, pop, literal, rule, seed = key.removeprefix("set2-").split("-")
    params = dataclasses.replace(
        SimParams(), n_red=int(pop), n_black=int(pop),
        scenario=SCENARIOS[scenario], literal_rules=LITERAL[literal],
        collision_rule=RULES[rule], ticks=ticks, **profile)
    return params, int(seed[1:])


def trace_digest(key: str) -> str:
    buf = io.StringIO()
    run(*case_params(key.removeprefix("trace-"), TRACE_TICKS), trace=buf)
    return hashlib.sha256(buf.getvalue().encode("ascii")).hexdigest()


def run_digest(key: str) -> str:
    world = setup(*case_params(key, TICKS))
    for _ in range(TICKS):
        tick(world)
    lines = [",".join(map(str, world.collisions_per_tick))]
    lines += [f"{a.x!r},{a.y!r},{a.heading!r},{a.speed!r},{a.collisions},"
              f"{int(a.recovering)}" for a in world.agents]
    return hashlib.sha256(("\n".join(lines) + "\n").encode("ascii")).hexdigest()


PINS = {
    "social-40-plain-pair-s0":
        "aa5bd10792f102e71c1aab0304dabeb079153d12f6bb727754fc9f430ad53d99",
    "social-40-plain-pair-s1":
        "87634fbde3630e3606583569743e3a9dab4055b23911420c0dce7b6359cc83b9",
    "social-40-plain-agent-s0":
        "fb818c0a7faecdd7137df3dbb2f1a1c072971831819beb44ccf11fc0bd759581",
    "social-40-plain-agent-s1":
        "432a1e0420d7e7ccb85c5cd1d89ed9c743f0bff25d983ea5b7e774cb11b00a68",
    "social-40-plain-tick-s0":
        "4b334952fb38a6db8a3d6184945a431ae06c6bdfd2052be7ac6d3cc9cc460999",
    "social-40-plain-tick-s1":
        "ac2878e603bc6727cc10d55745326931a52a8514729bf5d7eec8429253c03067",
    "social-40-literal-pair-s0":
        "fe6c19088f8db873ddc08b32c10a1ded4a8455e4f6bb4905b58c6d96e5aae5b4",
    "social-40-literal-pair-s1":
        "348c1fbd70587e49bb13cfbd59274a846749efb5e3e3e89a72de38e111850cfb",
    "social-40-literal-agent-s0":
        "64edef1035bcdbec47e240538b949304f872912778bc1a8a715dc808ff053894",
    "social-40-literal-agent-s1":
        "576d7657ebba2a5e3daae35800d2cfc6a478ce3800465785746c24670ca65405",
    "social-40-literal-tick-s0":
        "fe6c19088f8db873ddc08b32c10a1ded4a8455e4f6bb4905b58c6d96e5aae5b4",
    "social-40-literal-tick-s1":
        "4442c2edb9000919679e9d8fa817929f0d65561da421ea7f4bdba1ed5acbfa50",
    "social-80-plain-pair-s0":
        "c3c358903df500d4acc7901fff95ad7005c0fb8220a212c07850105eca131be7",
    "social-80-plain-pair-s1":
        "b148490929a4082900d17829d120469cc54c297a764d6a7cef47fe0caf8a32f8",
    "social-80-plain-agent-s0":
        "03fecf255d2388ce2ae12b1b578e896dda96b5b4fb0564e7a727b9796cfa0965",
    "social-80-plain-agent-s1":
        "b153288ffd96314e0de841ed568ab03ad7e8a7562de03da65efb2084f30b5061",
    "social-80-plain-tick-s0":
        "e853d7e564561ef672040e8bb53fd1df2b32913a082ebbeaf43918052406bc30",
    "social-80-plain-tick-s1":
        "8b80b9434ff4169cd121762983c08d1a95ece9091e4c9a9d04763402b2b31c57",
    "social-80-literal-pair-s0":
        "b7606bb70876c649e0a9034051c3b050c27abd3a36c4565ef4abd2ee2e2858a5",
    "social-80-literal-pair-s1":
        "53449fde330a08edb08e63b40e7ee30beb658a7bb3fdf04781c3fbbd667890b4",
    "social-80-literal-agent-s0":
        "866f9aaa4e8ae807f87ea329af51dc5dcbaedea0168c72cbaa4e4cb1908bac6d",
    "social-80-literal-agent-s1":
        "66105316461c71a020b0ff253fb0068699fb87c67d0441b716a942969af2ee20",
    "social-80-literal-tick-s0":
        "4a813e86d2c2b2b4db80ec5d35d188673413bbd0d8986e4c74e0db0e179638a2",
    "social-80-literal-tick-s1":
        "7eb57ce4035195f3f4ef0418d9e2c57b09e48e5b5b962e49266c2f4e43dcee0a",
    "random-40-plain-pair-s0":
        "7d2876a59573bc51bbad72ba5c7b78b725ca01b6e32c54d0eb1719511c33afc4",
    "random-40-plain-pair-s1":
        "549b0b0f3f0b7dee07a0d87473f87cec0a40a8f29a177577605ad3d2f2aa1ac4",
    "random-40-plain-agent-s0":
        "7acac37ebdb9d9d91ed977eec0c7357b4d6b376baf2bb72469a40414bc4ac8e0",
    "random-40-plain-agent-s1":
        "de60d1bd1e35e89401d0d4c8ba193683affe6d6ead9c078662720d8fdfefca31",
    "random-40-plain-tick-s0":
        "d4d5bd768f692639015a24c1a425143849ff4262587b8a7cf0916301d8551f91",
    "random-40-plain-tick-s1":
        "f53d1cc270c7504e90741fe2e7ffdfdfd6a1b1699055116ea2e2e248c69b35e5",
    "random-40-literal-pair-s0":
        "a8d20f0dab82b3cf6e61d63b825560e9a32785c60a41976e8c68356ced370372",
    "random-40-literal-pair-s1":
        "77adf6709b4137719db86d441494bd15426a3c2825b3b31c841463d91f1242ff",
    "random-40-literal-agent-s0":
        "494de2d2ff82383db349073f5fde5f7b3de92af55d45f8c43518f13dfe1342c2",
    "random-40-literal-agent-s1":
        "9c6abafeea404c88f7e39e07df86aa6fd4f522bdaa23323a336a4fdfea402348",
    "random-40-literal-tick-s0":
        "a2699409b25a9d66b51db1e34ff9fab82b902a57390d1bfdb1292642999182a0",
    "random-40-literal-tick-s1":
        "3d13b9ed48b8088082a447e2e1f6fe502517b9e55094239a6150e571b0bc5c6d",
    "random-80-plain-pair-s0":
        "1d29e14077e887d7771ef5a27f5a6faee76cd59a9780856fcc7bdab00e4631d6",
    "random-80-plain-pair-s1":
        "696002300f62da5d6b46b42c0e943d2aa1a723b795be80b7584c157b2d36e3f7",
    "random-80-plain-agent-s0":
        "4afbb74eb4f1a793c52d9f4cec6d4dbfe742f83e49b34c8fd17e8d2c87fc0144",
    "random-80-plain-agent-s1":
        "bd9bf33a8543e4a64df0dc6e39fd1f244dfd4993d9b8dd1f639a5dd67a52ad9d",
    "random-80-plain-tick-s0":
        "dcea541ad799dd4d9ddb240052a9bb6aca49cc1f8927b830e18b76c01c3163c3",
    "random-80-plain-tick-s1":
        "9c88282a7ca2c81e78a6679189177107f3eccb3ac9650c307a89309d8e077bc6",
    "random-80-literal-pair-s0":
        "679889b6c52b96b02062cc742e82486d157af54ba2188c3ad075c2cd47ff64b7",
    "random-80-literal-pair-s1":
        "b457cee229912911fb3b430996126c5b5059cdcb6dfa682d76e24674e9783406",
    "random-80-literal-agent-s0":
        "2145d4781c2c081da4337dc0d602a76d15aa6d310e66e816198d06f47f82476f",
    "random-80-literal-agent-s1":
        "156a5f5ae374eb1b60cb4717233c8fa241d3454f2c4ed6aac02af8129c04d714",
    "random-80-literal-tick-s0":
        "52d5bd11f9c80100c8b0a75cae6b4a528798d758782e5eb7e614413d441f33e8",
    "random-80-literal-tick-s1":
        "585f5ce8ab6b82860a18e4b3bcc59e987d29ab1f331b5474a74cafb9051537a1",
    "set2-social-40-plain-pair-s0":
        "7eab79560bdc7930cf2e8f38ade972c2a63f033ef9630c7b524757a67f1a2b13",
    "set2-social-40-plain-pair-s1":
        "e09e8e244e65644daa092939a02ba95ebadab1daa81b302c644988900bbcf6b2",
    "set2-social-80-plain-pair-s0":
        "f69ff82cc22f7c410554f8dc7902d1e61dcab050599f0853eb20269c89676cfc",
    "set2-social-80-plain-pair-s1":
        "0a298440953738df8eee0f3755fc5e57fc88360a60cbe420b93074aab2026707",
}

TRACE_PINS = {
    "trace-social-40-plain-pair-s0":
        "589aa41d9b382f08dcd9ff8cb7bad5eced50a15daf36c4e53d13bdda66040c44",
    "trace-social-40-plain-pair-s1":
        "4ac051f410886d209dd64629f822becd4a5b131592fcf913fd8a373f7762482e",
    "trace-social-40-literal-pair-s0":
        "ff7621c0d62d4dcdfd799c6a64ec77f2040e6ca97f61fc1ed63196064db8353e",
    "trace-social-40-literal-pair-s1":
        "7fa0bb07c9860b7c316d550fd331fa8c998ad1ed1f6beaba268c9524bf1effc0",
    "trace-set2-social-40-plain-pair-s0":
        "7efc4b3cacbf899c0c111268f59c10a8d67a512fa1ce2ecdc0a8afd6402a2312",
    "trace-set2-social-40-plain-pair-s1":
        "ab93cdebd79fb06985c8dcde74c281e7b885a619ff5a398c8c60b0ce2f560677",
    "trace-random-40-plain-pair-s0":
        "6ce9cdeb83e097fb2048d29657b4bdaee7714efd60538fbb427f277d3405d7a1",
    "trace-random-40-plain-pair-s1":
        "5ebb0f150063016f7fab118056f2096b41d1f674dddd9b2c695acff066bf2365",
}


@pytest.mark.parametrize("key", CASES)
def test_digest_pinned(key):
    assert run_digest(key) == PINS[key]


@pytest.mark.parametrize("key", SET2_CASES)
def test_set2_digest_pinned(key):
    assert run_digest(key) == PINS[key]


@pytest.mark.parametrize("key", TRACE_CASES)
def test_trace_digest_pinned(key):
    assert trace_digest(key) == TRACE_PINS[key]


if __name__ == "__main__":
    warnings.simplefilter("ignore", ParamRangeWarning)
    for k in CASES + SET2_CASES:
        print(f'    "{k}":\n        "{run_digest(k)}",')
    for k in TRACE_CASES:
        print(f'    "{k}":\n        "{trace_digest(k)}",')
