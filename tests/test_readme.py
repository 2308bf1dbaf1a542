"""The README's library example runs as written and its claim holds."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    """The fenced python block under the "## Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "no python block under '## Library example'"
    return match.group(1)


def test_library_example_exact_matches_empirical():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert abs(namespace["exact"] - namespace["report"].delta) <= 1e-12
