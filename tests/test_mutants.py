"""The mutant table of tests/mutants.py still matches the code it mutates.

Running the mutants takes minutes (`python3 tests/mutants.py`); this only
checks that each snippet still occurs exactly once in its file under `src/`,
that each mutant is a change to the code that still parses, and that each
test it names is still defined, so that a refactor carries the table along.
"""

import ast
import re

from mutants import MUTANTS, ROOT


def test_every_snippet_occurs_once_in_src():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.file.startswith("src/"), m.name
        text = (ROOT / m.file).read_text()
        assert text.count(m.snippet) == 1, m.name
        # the trees, not the bytecode: a comment-only edit would shift the
        # line numbers in it
        mutated = ast.parse(text.replace(m.snippet, m.replacement))
        assert ast.dump(mutated) != ast.dump(ast.parse(text)), m.name
        assert m.note == "" or m.note.startswith(("survives: ", "equivalent: ")), m.name


def test_every_named_test_is_defined():
    for m in MUTANTS:
        assert m.killers, m.name
        for node in m.killers:
            path, *names = re.sub(r"\[.*\]$", "", node).split("::")
            source = (ROOT / path).read_text()
            assert f"def {names[-1]}(" in source, (m.name, node)
            if len(names) == 2:
                assert f"class {names[0]}" in source, (m.name, node)
