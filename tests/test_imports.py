"""Start-up cost: the process pool, statistics and INI parser stacks load
only on the paths that use them.

Each case runs in a fresh interpreter, because pytest and the other tests
may already have imported these modules into this one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import avflock

DEFERRED = ("concurrent.futures", "multiprocessing", "statistics", "configparser")

_SCRIPT = """
import json, sys
import avflock, avflock.cli
argv = json.loads(sys.argv[1])
if argv and avflock.cli.main(argv) != 0:
    sys.exit(f"avflock {argv[0]} failed")
print(json.dumps(sorted(d for d in sys.argv[2:]
                        if any(m == d or m.startswith(d + ".") for m in sys.modules))))
"""


def _loaded_after(argv: list[str], cwd: Path) -> list[str]:
    """Deferred stacks in sys.modules after `import avflock.cli` and main(argv)."""
    src = str(Path(avflock.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argv), *DEFERRED],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["run", "--red", "5", "--black", "5", "--ticks", "5"],
    ["richardson", "--steps", "3"],
], ids=["import", "run", "richardson"])
def test_deferred_stacks_not_loaded(tmp_path, argv):
    assert _loaded_after(argv, tmp_path) == []


def test_sequential_spec_sweep_loads_no_pool(tmp_path):
    # also shows that the probe sees the modules that do load
    (tmp_path / "s.cfg").write_text("[config:a]\nn_red = 3\nn_black = 3\nticks = 5\n")
    argv = ["sweep", "--spec", "s.cfg", "--jobs", "1"]
    assert _loaded_after(argv, tmp_path) == ["configparser", "statistics"]
