"""tools/mutants.py: every engine mutation it lists applies to this tree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", TOOL)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutation_replaces_a_text_that_occurs_exactly_once():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    assert all(old != new for _, _, old, new in mutants.MUTANTS)
    assert mutants.misplaced() == []
