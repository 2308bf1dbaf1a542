"""Every source file of the package and of its tests parses at the oldest
Python that pyproject.toml admits, so syntax newer than that floor cannot slip in
while the tests run on a later interpreter."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
)
# The package, and the tests, which must run at the floor too.
SOURCES = sorted((ROOT / "src" / "blamescope").rglob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


def test_floor_is_read():
    assert FLOOR == (3, 10) and len(SOURCES) >= 12


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=FLOOR)


def test_the_check_refuses_newer_syntax():
    """An exception group handler, new in 3.11, does not parse at 3.10."""
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=FLOOR)
