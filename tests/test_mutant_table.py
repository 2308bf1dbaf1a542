"""The rows of `tests/mutants.py` still apply: each row's old text occurs
exactly once in its file, its new text differs, and each test it names is
defined in the named file. Whether the tests catch each mutant is checked
by running `python tests/mutants.py`, one pytest process per row."""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent


def test_row_ids_are_unique():
    ids = [row[0] for row in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("row", MUTANTS, ids=[row[0] for row in MUTANTS])
def test_old_text_occurs_once(row):
    _, path, old, new, tests = row
    assert (ROOT / path).read_text(encoding="utf-8").count(old) == 1
    assert new != old and tests
    for name in tests:
        path, function = name.split("[")[0].split("::")
        assert f"def {function}(" in (ROOT / path).read_text(encoding="utf-8"), name
