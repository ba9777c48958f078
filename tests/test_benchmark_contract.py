"""The program surface the benchmark relies on.

The traced benchmark pass (perfbench/tracer.py) patches module attributes by
name: engine.tick, SpatialGrid.candidates, agents.find_nearmates and more. A
deletion that removes one of them breaks the benchmark, not the program, so
it is checked here. This file only reads perfbench/.
"""

from pathlib import Path

import avflock
from avflock import engine
from avflock.core import SimParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_attribute_it_patches(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Recorder, patched, targets

    original_tick = engine.tick
    rec = Recorder()
    with patched(targets(rec, tmp_path, ticks_only=False)):
        engine.run(SimParams(n_red=2, n_black=2, ticks=3), 1)
    assert rec.calls["engine.tick"] == 3
    assert engine.tick is original_tick


def test_every_export_resolves_once():
    names = avflock.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(avflock, n)] == []
