"""Mutated input files through the CLI.

Each example mutates the contents of one bundled input file (a model file
or the case log) and runs every command that reads that kind of file
through `cli.main`. Whatever the mutation, a run ends in a report or a
typed error: exit code 0, 2, 3 or 4, strict JSON (no NaN or Infinity) on
stdout or stderr, and no exception. Only file contents are mutated, never
a flag that sizes an allocation such as --samples or --n-cases.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from blamescope.cli import main
from blamescope.data import bundled_path

from test_cli import _strict_json

# json.dumps cannot write an integer literal over the 4300-digit limit, so
# a marker string is written and then replaced by the literal.
_LONG_MARK = "__integer literal over 4300 digits__"
_LONG_LITERAL = "7" * 4301
ODD_VALUES = [math.nan, math.inf, "x", "", [], ["0", 1], {}, None, True, -1, 0.5, 10**400,
              _LONG_MARK]
ODD_FIELDS = ["nan", "inf", "x", "", "-1", "2", "1e400", "7" * 4301, "\r", "a\x00b", ","]
ODD_BYTES = [b"\r", b"\x00", b"\xff", b"\n", b'"', b","]

SCM_COMMANDS = [
    ("validate", "--scm"),
    ("prob", "--outcome", "y1", "--scm"),
    ("prob", "--outcome", "y1", "--samples", "50", "--seed", "1", "--scm"),
    ("counterfactual", "--outcome", "y1", "--observe", "Y=1", "--do", "X=0", "--scm"),
    ("blame", "--outcome", "y1", "--action", "auto", "--baseline", "manual",
     "--cost", "review_cost", "--scm"),
]
CASES_COMMANDS = [
    ("validate", "--cases"),
    ("hitl", "--l", "0.2", "--u", "0.8", "--cases"),
    ("metrics", "--l", "0.2", "--u", "0.8", "--positive", "pos", "--cases"),
]


def _paths(node, prefix=()):
    """Every key path into a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield (*prefix, key)
        if isinstance(child, (dict, list)):
            yield from _paths(child, (*prefix, key))


def _mutate_json(data, text: str) -> str:
    """Drop or retype one key of the document."""
    doc = json.loads(text)
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=repr)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(ODD_VALUES))
    return json.dumps(doc).replace(json.dumps(_LONG_MARK), _LONG_LITERAL)


def _mutate_csv(data, text: str) -> str:
    """Drop one column, or set one field (the header's included) to an odd
    text."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    column = data.draw(st.integers(0, len(rows[0]) - 1))
    if data.draw(st.booleans()):
        rows = [row[:column] + row[column + 1:] for row in rows]
    else:
        row = data.draw(st.integers(0, len(rows) - 1))
        rows[row][column] = data.draw(st.sampled_from(ODD_FIELDS))
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _mutate_bytes(data, raw: bytes) -> bytes:
    """Truncate the file, or insert a bare CR, a NUL, a byte that is not
    UTF-8 or a CSV/JSON delimiter."""
    at = data.draw(st.integers(0, len(raw)))
    if data.draw(st.booleans()):
        return raw[:at]
    return raw[:at] + data.draw(st.sampled_from(ODD_BYTES)) + raw[at:]


FILES = {
    "xor.json": SCM_COMMANDS,
    "xor_blame.json": SCM_COMMANDS,
    "cases_200.csv": CASES_COMMANDS,
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mutated_input_ends_in_report_or_typed_error(data):
    name = data.draw(st.sampled_from(sorted(FILES)))
    raw = bundled_path(name).read_bytes()
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["structure", "bytes"]))
        if kind == "bytes":
            raw = _mutate_bytes(data, raw)
            continue
        try:
            text = raw.decode("utf-8")
            mutate = _mutate_csv if name.endswith(".csv") else _mutate_json
            raw = mutate(data, text).encode("utf-8")
        except (ValueError, IndexError, TypeError):
            continue  # an earlier byte mutation left nothing to restructure
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(raw)
        for command in FILES[name]:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([*command, str(path)])
            assert code in (0, 2, 3, 4), (command, code)
            report, other = (out, err) if code == 0 else (err, out)
            assert other.getvalue() == "", command
            _strict_json(report.getvalue())
