"""The mutation catalogue cannot go stale silently.

mutants/run.py replays each entry of mutants/catalogue.py by replacing its
old string; this checks, without running any mutant, that each old string
still occurs exactly once in its file and that each test an entry names is
still defined.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants_catalogue",
                                               ROOT / "mutants" / "catalogue.py")
catalogue = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(catalogue)
MUTANTS = {m.name: m for m in catalogue.MUTANTS}


def test_entry_names_are_unique():
    assert len(MUTANTS) == len(catalogue.MUTANTS)


@pytest.mark.parametrize("name", list(MUTANTS))
def test_old_string_occurs_once_and_named_tests_exist(name):
    mutant = MUTANTS[name]
    assert (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert mutant.expect in ("killed", "pinned only")
    assert mutant.tests if mutant.expect == "killed" else mutant.pins
    for test in (*mutant.tests, *mutant.pins):
        path, func = re.fullmatch(r"(tests/\w+\.py)::(\w+)(\[.*\])?", test).group(1, 2)
        assert f"\ndef {func}(" in (ROOT / path).read_text(encoding="utf-8"), test
