import contextlib
import csv
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blamescope.io as bio
from blamescope.data import bundled_path
from blamescope.errors import (
    DuplicateCaseId,
    DuplicateVariable,
    EmptyCaseList,
    MalformedRow,
    NonFiniteNumber,
    SchemaViolation,
    UnknownVariable,
    UnreadableFile,
)
from blamescope.hitl import Case, CaseLog
from blamescope.io import (
    RATING_COLUMNS,
    _read_csv,
    canonical_dumps,
    dump_cases,
    load_cases,
    load_ratings,
    load_scm_bundle,
)
from blamescope.scm import event_probability
from blamescope.synthetic import gen_synthetic
from oracles import csv_columns
from test_cli import small_logs


def test_load_bundled_xor():
    bundle = load_scm_bundle(bundled_path("xor.json"))
    assert {v.id for v in bundle.scm.exogenous} == {"E1", "E2"}
    assert event_probability(bundle.scm, bundle.outcomes["y1"]) == pytest.approx(0.5)


def test_load_bundled_blame_scenario():
    bundle = load_scm_bundle(bundled_path("xor_blame.json"))
    assert set(bundle.actions) == {"auto", "manual"}
    assert set(bundle.costs) == {"review_cost"}
    assert bundle.discount.kind == "cost_ratio"


def test_load_scm_bad_schema(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "nope", "exogenous": [], "endogenous": []}))
    with pytest.raises(SchemaViolation, match="schema"):
        load_scm_bundle(path)


def test_load_scm_unknown_discount_kind(tmp_path):
    doc = json.loads(bundled_path("xor_blame.json").read_text())
    doc["discount"]["kind"] = "bogus"
    path = tmp_path / "bogus.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation, match="bogus"):
        load_scm_bundle(path)


HEADER = "case_id,ai_confidence,ai_decision,human_decision,truth\n"


def rows_of(log):
    """The log's cases as (id, confidence, ai, human, truth) tuples."""
    label = log.labels.__getitem__
    return list(
        zip(
            log.ids,
            log.ai_confidence.tolist(),
            map(label, log.ai_decision),
            map(label, log.human_decision),
            map(label, log.truth),
        )
    )


def _edited(tmp_path, edit):
    doc = json.loads(bundled_path("xor_blame.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_scm_missing_table(tmp_path):
    path = _edited(tmp_path, lambda doc: doc["endogenous"][0].pop("table"))
    with pytest.raises(SchemaViolation, match=r"endogenous\[0\]: missing 'table'"):
        load_scm_bundle(path)


def test_load_scm_nan_epsilon(tmp_path):
    path = _edited(tmp_path, lambda doc: doc["discount"].update(epsilon=math.nan))
    with pytest.raises(SchemaViolation, match="epsilon"):
        load_scm_bundle(path)


def test_load_scm_checks_outcomes_and_cost_terms(tmp_path):
    path = _edited(tmp_path, lambda doc: doc["outcomes"].update(z1=[[["Z", "eq", "1"]]]))
    with pytest.raises(UnknownVariable, match="outcome 'z1'"):
        load_scm_bundle(path)
    path = _edited(
        tmp_path, lambda doc: doc["costs"]["review_cost"][0].update(where={"NOPE": "1"})
    )
    with pytest.raises(UnknownVariable, match="cost model 'review_cost'"):
        load_scm_bundle(path)


_Y1 = {"var": "Y", "parents": [], "table": {"": "1"}}
_Y0 = {"var": "Y", "parents": [], "table": {"": "0"}}


@pytest.mark.parametrize(
    "entries, error, message",
    [
        ([_Y1, _Y0], DuplicateVariable, "action 'twice' overrides 'Y' twice"),
        # A repeat is found before the model is rewired, so before an
        # unknown variable in a later entry.
        ([_Y1, _Y0, {"var": "Nope", "table": {"": "0"}}], DuplicateVariable,
         "action 'twice' overrides 'Y' twice"),
        # Every entry is parsed before repeats are looked for.
        ([_Y1, _Y0, {"var": "X"}], SchemaViolation,
         "{path}: action 'twice'[2]: missing 'table'"),
    ],
    ids=["twice", "twice_then_unknown", "twice_then_malformed"],
)
def test_load_scm_action_overrides_twice(tmp_path, entries, error, message):
    """An action is a map from variable to mechanism, so the loader refuses
    an action file entry that names a variable a second time."""
    path = _edited(tmp_path, lambda doc: doc["actions"].update(twice=entries))
    with pytest.raises(error) as got:
        load_scm_bundle(path)
    assert str(got.value) == message.format(path=path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["exogenous"][0]["probs"].__setitem__(0, 10**400),
        lambda doc: doc["costs"]["review_cost"][0].update(cost=10**400),
        lambda doc: doc["discount"].update(epsilon=10**400),
    ],
    ids=["probability", "cost", "epsilon"],
)
def test_load_scm_int_past_float_range(tmp_path, edit):
    with pytest.raises(SchemaViolation, match="not a number: 1000"):
        load_scm_bundle(_edited(tmp_path, edit))


@pytest.mark.parametrize(
    "value, shown",
    [(True, "True"), ("0.7", "'0.7'"), (" 0.7 ", "' 0.7 '")],
    ids=["bool", "string", "padded_string"],
)
@pytest.mark.parametrize(
    "field",
    [
        lambda doc, v: doc["exogenous"][0]["probs"].__setitem__(0, v),
        lambda doc, v: doc["costs"]["review_cost"][0].update(cost=v),
        lambda doc, v: doc["discount"].update(epsilon=v),
    ],
    ids=["probability", "cost", "epsilon"],
)
def test_load_scm_number_must_be_json_number(tmp_path, field, value, shown):
    """float() takes True and numeric strings; a model file may not."""
    path = _edited(tmp_path, lambda doc: field(doc, value))
    with pytest.raises(SchemaViolation, match=f"not a number: {shown}$"):
        load_scm_bundle(path)


def test_load_scm_int_literal_over_digit_limit(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(bundled_path("xor.json").read_text().replace("0.7", "7" * 4301))
    with pytest.raises(SchemaViolation, match="invalid JSON: Exceeds the limit"):
        load_scm_bundle(path)


def test_load_scm_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SchemaViolation, match="invalid JSON: maximum recursion depth"):
        load_scm_bundle(path)


def test_load_cases_roundtrip(tmp_path):
    cases = gen_synthetic(seed=8, n_cases=50, ai_accuracy=0.8, human_accuracy=0.9)
    path = tmp_path / "cases.csv"
    path.write_text(dump_cases(cases))
    assert rows_of(load_cases(path)) == [
        (c.id, c.ai_confidence, c.ai_decision, c.human_decision, c.truth) for c in cases
    ]


def test_dump_cases_bare_cr_roundtrip(tmp_path):
    cases = [
        Case("a\rb", 0.5, "pos", "neg", "pos"),
        Case("c,d", 0.25, "neg", "neg", "pos"),
    ]
    text = dump_cases(cases)
    # Only the row holding a bare "\r" is quoted in full.
    assert text.split("\n")[1:] == [
        '"a\rb","0.5","pos","neg","pos"', '"c,d",0.25,neg,neg,pos', ""
    ]
    path = tmp_path / "cases.csv"
    path.write_text(text, newline="")
    assert rows_of(load_cases(path)) == [
        (c.id, c.ai_confidence, c.ai_decision, c.human_decision, c.truth) for c in cases
    ]


def test_load_cases_reordered_and_extra_columns(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(
        "truth,note,human_decision,case_id,ai_decision,ai_confidence\n"
        "pos,x,neg,c0,pos,0.25\n"
        "neg,,neg,c1,pos,1\n"
    )
    log = load_cases(path)
    assert rows_of(log) == [("c0", 0.25, "pos", "neg", "pos"), ("c1", 1.0, "pos", "neg", "neg")]
    assert log.labels == ("neg", "pos")
    assert log.ai_confidence.dtype == np.float64


def test_load_cases_blank_line_and_multiline_field(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + '\n"c\n1",0.5,pos,neg,pos\nc2,2,pos,neg,pos\n')
    with pytest.raises(MalformedRow, match="line 5: confidence 2.0 outside"):
        load_cases(path)
    path.write_text(HEADER + '\n"c\n1",0.5,pos,neg,pos\nc2,0.75,pos,neg,pos\n')
    assert load_cases(path).ids == ["c\n1", "c2"]


def test_load_cases_short_row(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + "c0,0.5,pos,neg,pos\nc1,0.5,pos\nc2,bad,pos,neg,pos\n")
    with pytest.raises(MalformedRow, match="line 3: incomplete row"):
        load_cases(path)


def test_load_cases_empty_field(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + "c0,0.5,pos,neg,pos\nc1,0.5,,neg,pos\n")
    with pytest.raises(MalformedRow, match="line 3: incomplete row"):
        load_cases(path)


def test_load_cases_nan_confidence(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + "c0,0.5,pos,neg,pos\nc1,nan,pos,neg,pos\n")
    with pytest.raises(MalformedRow, match="line 3: confidence nan outside"):
        load_cases(path)


def test_load_cases_duplicate_id(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(
        HEADER + "a,0.5,pos,neg,pos\nb,0.5,pos,neg,pos\n\nb,0.5,pos,neg,pos\na,0.1,pos,neg,pos\n"
    )
    with pytest.raises(DuplicateCaseId, match="line 5: duplicate case id 'b'"):
        load_cases(path)


def test_load_cases_row_error_before_duplicate(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + "a,0.5,pos,neg,pos\na,0.5,pos,neg,pos\nc,7,pos,neg,pos\n")
    with pytest.raises(MalformedRow, match="line 4"):
        load_cases(path)


def test_load_cases_not_utf8(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_bytes(HEADER.encode() + b"c0,0.5,pos,neg,pos\r\nc1,0.5,p\xe9s,neg,pos\n")
    with pytest.raises(MalformedRow, match="line 3: not UTF-8"):
        load_cases(path)


def test_load_cases_oversized_field(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + "c0,0.5,pos,neg,pos\n" + "x" * 200_000 + ",0.5,pos,neg,pos\n")
    with pytest.raises(MalformedRow, match="line 3: field larger than field limit"):
        load_cases(path)


def test_load_cases_header_only(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(HEADER)
    with pytest.raises(EmptyCaseList, match="case log is empty"):
        load_cases(path)


def test_load_cases_directory(tmp_path):
    with pytest.raises(UnreadableFile):
        load_cases(tmp_path)


@settings(max_examples=60, deadline=None)
@given(small_logs())
def test_caselog_from_cases_matches_loader(drawn):
    """Both ways to build a log, from rows and from a CSV file, end in the
    same CaseLog constructor and give the same log."""
    _, _, cases = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.csv"
        path.write_text(dump_cases(cases), encoding="utf-8", newline="")
        loaded = load_cases(path)
    built = CaseLog.from_cases(cases)
    assert rows_of(loaded) == rows_of(built) == [tuple(c) for c in cases]
    assert loaded.labels == built.labels


def test_load_cases_missing_column(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text("case_id,ai_confidence,ai_decision,human_decision\nc0,0.5,pos,neg\n")
    with pytest.raises(MalformedRow, match="truth"):
        load_cases(path)


def test_load_cases_bad_confidence(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(
        "case_id,ai_confidence,ai_decision,human_decision,truth\n"
        "c0,0.5,pos,neg,pos\n"
        "c1,high,pos,neg,pos\n"
    )
    with pytest.raises(MalformedRow, match="line 3: bad confidence 'high'$"):
        load_cases(path)


def test_load_cases_confidence_out_of_range(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(
        "case_id,ai_confidence,ai_decision,human_decision,truth\nc0,1.5,pos,neg,pos\n"
    )
    with pytest.raises(MalformedRow, match=r"line 2: confidence 1\.5 outside \[0,1\]$"):
        load_cases(path)


def test_load_bundled_case_log():
    log = load_cases(bundled_path("cases_200.csv"))
    assert len(log) == 200
    assert isinstance(log, CaseLog)
    assert log.ai_confidence.dtype == np.float64
    assert len(log.ai_decision) == len(log.human_decision) == len(log.truth) == 200


def test_load_ratings(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,2\nc1,3,3\n")
    assert load_ratings(path) == [(1, 2), (3, 3)]


def test_load_ratings_non_integer(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,x\n")
    with pytest.raises(MalformedRow, match="line 2: non-integer rating$"):
        load_ratings(path)


def test_load_ratings_oversized_field(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,2\n" + "x" * 200_000 + ",1,2\n")
    with pytest.raises(MalformedRow, match="line 3: field larger than field limit"):
        load_ratings(path)


_BOM_FILES = {
    "scm": (load_scm_bundle, lambda: bundled_path("xor_blame.json").read_bytes()),
    "cases": (lambda path: rows_of(load_cases(path)),
              lambda: bundled_path("cases_200.csv").read_bytes()),
    # A quote sends the log to csv.reader, which reads it again from the
    # start of the file.
    "cases_quoted": (lambda path: rows_of(load_cases(path)),
                     lambda: (HEADER + '"c0",0.5,pos,neg,pos\nc1,0.25,neg,neg,pos\n').encode()),
    "ratings": (load_ratings, lambda: b"case_id,rater_a,rater_b\nc0,1,2\nc1,3,3\n"),
}


@pytest.mark.parametrize("kind", sorted(_BOM_FILES))
def test_byte_order_mark_is_skipped(tmp_path, kind):
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet
    programs write CSV, loads exactly as it does without one."""
    load, data = _BOM_FILES[kind]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(data())
    marked.write_bytes(b"\xef\xbb\xbf" + data())
    assert load(marked) == load(plain)


LIMIT = csv.field_size_limit()
_LOADERS = {
    "cases": (load_cases, HEADER, "{},0.5,pos,neg,pos\n"),
    "ratings": (load_ratings, "case_id,rater_a,rater_b\n", "{},1,2\n"),
}


@pytest.mark.parametrize("quote", ["", '"'], ids=["unquoted", "quoted"])
@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_field_at_the_limit(tmp_path, kind, quote):
    """csv.reader counts a field's characters, not its bytes: a field of
    exactly the limit loads, even when its UTF-8 form is longer, and one
    more character is an error."""
    load, header, row = _LOADERS[kind]
    path = tmp_path / "in.csv"
    for field, ok in (("x" * LIMIT, True), ("é" * LIMIT, True), ("x" * (LIMIT + 1), False)):
        path.write_text(header + row.format("c0") + row.format(quote + field + quote),
                        encoding="utf-8")
        if not ok:
            with pytest.raises(MalformedRow, match=rf"line 3: field larger than field "
                                                   rf"limit \({LIMIT}\)$"):
                load(path)
        elif kind == "cases":
            assert load(path).ids == ["c0", field]
        else:
            assert load(path) == [(1, 2), (1, 2)]


def test_csv_error_before_a_later_bad_byte(tmp_path):
    """The file is streamed through csv.reader when it is not UTF-8, so a
    CSV syntax error in an earlier chunk of the file is reported first, and
    a bad byte in the same chunk as the error is."""
    path = tmp_path / "cases.csv"
    head = HEADER.encode() + b"x" * (LIMIT + 1) + b",0.5,pos,neg,pos\n"
    path.write_bytes(head + b"c0,0.5,pos,neg,pos\n" * 1000 + b"\xff\n")
    with pytest.raises(MalformedRow, match="line 2: field larger than field limit"):
        load_cases(path)
    path.write_bytes(head + b"c0,0.5,pos,neg,pos\n" * 10 + b"\xff\n")
    with pytest.raises(MalformedRow, match="line 13: not UTF-8"):
        load_cases(path)


# The reader's real block size, and blocks of 1 and 7 characters, so that
# block ends fall anywhere in a small file.
BLOCK_SIZES = [None, 1, 7]


@contextlib.contextmanager
def blocks_of(size):
    """Plain CSV text is split in blocks of `size` characters inside the
    context, or in blocks of the real size for None."""
    with pytest.MonkeyPatch.context() as mp:
        if size is not None:
            mp.setattr(bio, "_BLOCK", size)
        yield


def _no_reader(*args, **kwargs):
    raise AssertionError("csv.reader called")


@pytest.mark.parametrize("kind", sorted(_LOADERS))
def test_plain_file_is_split_without_csv_reader(tmp_path, monkeypatch, kind):
    r"""A file with no quote, NUL or bare "\r" and one field count on every
    non-blank line never reaches csv.reader, in blocks of any size; a
    quoted one does."""
    load, header, row = _LOADERS[kind]
    shown = rows_of if kind == "cases" else list
    path = tmp_path / "in.csv"
    text = header + "".join(row.format(f"c{i}") for i in range(20))
    path.write_text(text.replace("\n", "\r\n", 3) + "\n\n")
    expected = shown(load(path))

    monkeypatch.setattr(csv, "reader", _no_reader)
    for size in BLOCK_SIZES:
        with blocks_of(size):
            assert shown(load(path)) == expected
    path.write_text('"case_id"' + path.read_text()[len("case_id"):])
    with pytest.raises(AssertionError, match="csv.reader called"):
        load(path)


def test_multibyte_case_log_is_split_without_csv_reader(tmp_path, monkeypatch):
    r"""Ids and labels with a two-byte character, blank lines and "\r\n"
    rows: the check on the UTF-8 bytes of each block still splits the file
    without csv.reader, in blocks of any size, into csv.reader's fields."""
    text = (
        HEADER.replace("\n", "\r\n")
        + "cé0,0.5,pés,neg,pés\r\n\n"
        + "\r\nc1,0.25,neg,pés,neg\n"
        + "é2,1,pés,pés,né\r\n\n\n"
        + "c3,0,né,neg,pés"
    )
    path = tmp_path / "cases.csv"
    path.write_text(text, encoding="utf-8", newline="")
    columns, _ = csv_columns(text, bio.CASE_COLUMNS)
    expected = [(i, float(c), *labels) for i, c, *labels in zip(*columns)]
    assert len(expected) == 4
    monkeypatch.setattr(csv, "reader", _no_reader)
    for size in BLOCK_SIZES:
        with blocks_of(size):
            assert rows_of(load_cases(path)) == expected


def _columns(path):
    """_read_csv's columns of RATING_COLUMNS in a file, its blocks joined."""
    blocks = _read_csv(path, RATING_COLUMNS, lambda *values: values)
    return [[v for block in blocks for v in block[i]] for i in range(len(RATING_COLUMNS))]


def _same_as_csv_reader(text):
    """_read_csv of a file holding `text`, in blocks of each of BLOCK_SIZES,
    gives the reference's columns, or raises the reference's error type and
    message."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            expected, _ = csv_columns(text, RATING_COLUMNS)
        except MalformedRow as exc:
            for size in BLOCK_SIZES:
                with blocks_of(size), pytest.raises(MalformedRow) as got:
                    _columns(path)
                assert (type(got.value), str(got.value)) == (MalformedRow, f"{path}: {exc}")
        else:
            for size in BLOCK_SIZES:
                with blocks_of(size):
                    assert _columns(path) == expected


_ALPHABET = ["a", "1", ".", ",", "\n", "\r", "\r\n", '"', "\0", "é", " "]
_PLAIN = ["a", "1", ".", "é", " "]


@st.composite
def _csv_texts(draw):
    """A header of the column names in any order, with up to two repeated
    or extra names and now and then without its first name, then rows of
    fields over the alphabet: either any text, or rows of mostly the
    header's width whose fields, for half of the texts, hold no separator
    or quote."""
    extra = draw(st.lists(st.sampled_from([*RATING_COLUMNS, "note"]), max_size=2))
    header = draw(st.permutations([*RATING_COLUMNS, *extra]))
    header = header[draw(st.sampled_from([0, 0, 0, 1])):]
    end = st.sampled_from(["\n", "\n", "\r\n", "\r", ""])
    if draw(st.booleans()):
        body = draw(st.lists(st.sampled_from(_ALPHABET), max_size=40))
        return ",".join(header) + "".join(body)
    chars = _ALPHABET if draw(st.booleans()) else _PLAIN
    field = st.lists(st.sampled_from(chars), max_size=3).map("".join)
    width = max(len(header), 1)
    row = st.lists(field, min_size=width, max_size=width) | st.lists(field, max_size=width + 1)
    rows = draw(st.lists(st.tuples(row, end), max_size=6))
    return ",".join(header) + draw(end) + "".join(",".join(r) + e for r, e in rows)


@settings(max_examples=600, deadline=None)
@given(_csv_texts())
def test_read_csv_matches_csv_reader(text):
    _same_as_csv_reader(text)


_H = "case_id,rater_a,rater_b"


@pytest.mark.parametrize(
    "text",
    [
        f"{_H}\nc0,1,2\n\n\r\nc1,2,3\n\n",
        f"{_H}\nc0,1,2\nc1,2\nc2,3,3\n",
        f"{_H}\nc0,1,2,x\nc1,2,3\n",
        f"{_H}\nc0,1,2\nc1,2,3",
        f"{_H}\n",
        _H,
        "",
        f"\n{_H}\nc0,1,2\n",
        f"\r\n{_H}\nc0,1,2\n",
        f"{_H},rater_a,note\nc0,1,2,3,4\n",
        f"{_H}\r\nc0,1,2\r\nc1,2,3\r\n",
        f"{_H}\rc0,1,2\r",
        f'{_H}\n"c\n0",1,2\n',
        f"{_H}\nc\x000,1,2\n",
        f"{_H},{'x' * (LIMIT + 1)}\nc0,1,2,3\n",
    ],
    ids=[
        "blank_lines", "ragged_row", "longer_row", "no_final_newline", "header_only",
        "header_without_newline", "empty_file", "blank_first_line", "blank_crlf_first_line",
        "repeated_and_extra_columns", "crlf", "bare_cr", "quoted_newline", "nul",
        "header_over_the_limit",
    ],
)
def test_read_csv_matches_csv_reader_on(text):
    _same_as_csv_reader(text)


def _two_blocks_of(row):
    """Lines row.format(i), i = 0, 1, ..., enough to fill two whole blocks
    of the reader's real size wherever the first block starts among them:
    a block ends at the first line end at least bio._BLOCK characters on.
    `row` makes lines of one length; long lines keep the count of lines,
    and so of blocks of 1 or 7 characters, small."""
    width = len(row.format(0))
    rows = "".join(row.format(i) for i in range(2 * (bio._BLOCK // width + 2)))
    assert len(set(map(len, rows.splitlines()))) == 1
    assert len(rows) >= 2 * (bio._BLOCK + width)
    return rows


_PLAIN_ROWS = _two_blocks_of("c{:06d}" + "x" * 90 + ",1,2\n")


@pytest.mark.parametrize(
    "line",
    ["c,1", "c,1,2,3", "c,1," + "x" * (LIMIT + 1)],
    ids=["ragged_row", "longer_row", "over_the_limit"],
)
def test_read_csv_matches_csv_reader_past_the_first_block(line):
    """A line that is not plain, after two blocks of plain ones, gives the
    columns or the error that csv.reader gives."""
    _same_as_csv_reader(f"{_H}\n{_PLAIN_ROWS}{line}\n{_PLAIN_ROWS}")


@pytest.mark.parametrize(
    "tail, error",
    [
        (b"x" * (LIMIT + 1) + b",0.5,pos,neg,pos\n", "line {}: field larger than field limit"),
        (b"c,0.5,p\xe9s,neg,pos\n", "line {}: not UTF-8"),
    ],
    ids=["csv_error", "bad_byte"],
)
def test_reader_error_after_a_bad_row_in_an_earlier_block(tmp_path, tail, error):
    """A bad row in the first block does not stop the reader: a CSV syntax
    error or a bad byte two blocks later is still reported."""
    path = tmp_path / "cases.csv"
    rows = _two_blocks_of("c{:06d}" + "x" * 90 + ",0.5,pos,neg,pos\n")
    path.write_bytes((HEADER + "c,7,pos,neg,pos\n" + rows).encode() + tail)
    # The header, the bad row and the rows come before the tail's line.
    error = error.format(rows.count("\n") + 3)
    for size in BLOCK_SIZES:
        with blocks_of(size), pytest.raises(MalformedRow, match=error):
            load_cases(path)


def test_load_cases_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    """Blocks of fields are typed before the next is split: the traced peak
    of load_cases on a 50k-case log with the benchmark's uniform
    confidences stays under 6 times the file's bytes (measured: 3.9 times
    reading in blocks, 8.6 times splitting the whole file at once)."""
    cases = gen_synthetic(5, 50_000, 0.8, 0.9, "uniform")
    path = tmp_path / "cases.csv"
    path.write_text(dump_cases(cases))
    del cases
    tracemalloc.start()
    try:
        log = load_cases(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) == 50_000
    assert peak < 6 * path.stat().st_size


@pytest.mark.parametrize("row", ["c1,0,2", "c1,2,-1"])
def test_load_ratings_below_one(tmp_path, row):
    path = tmp_path / "ratings.csv"
    path.write_text(f"case_id,rater_a,rater_b\nc0,1,2\n{row}\n")
    with pytest.raises(MalformedRow, match="line 3: rating -?[01] below 1"):
        load_ratings(path)


# (rows after the header, the first bad row's line and message): the first
# bad row in file order is named, whatever rule each bad row breaks.
_FIRST_BAD_ROW = {
    "cases": (HEADER, {
        "range_before_incomplete": (
            "c0,0.5,pos,neg,pos\nc1,1.5,pos,neg,pos\nc2,0.5,,neg,pos\n",
            "line 3: confidence 1.5 outside [0,1]"),
        "incomplete_before_range": (
            "c0,0.5,pos,neg,pos\nc1,0.5,pos,,pos\nc2,1.5,pos,neg,pos\n",
            "line 3: incomplete row"),
        "bad_number_before_range": (
            "c0,0.5,pos,neg,pos\nc1,high,pos,neg,pos\nc2,1.5,pos,neg,pos\n",
            "line 3: bad confidence 'high'"),
    }),
    "ratings": ("case_id,rater_a,rater_b\n", {
        "non_integer_before_below_one": ("c0,1,2\nc1,1,x\nc2,0,2\n", "line 3: non-integer rating"),
        "below_one_before_non_integer": ("c0,1,2\nc1,0,2\nc2,x,2\n", "line 3: rating 0 below 1"),
    }),
}


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
@pytest.mark.parametrize(
    "kind, case",
    [(kind, case) for kind, (_, cases) in _FIRST_BAD_ROW.items() for case in cases],
    ids=lambda v: v,
)
def test_first_bad_row_in_file_order_is_named(tmp_path, kind, case, quote):
    """Each loader's block parser is the file's one row rule: the refusal
    names the first bad row and its fault, on the plain path and on the
    csv.reader path that a quote sends the file to, in blocks of any size."""
    header, cases = _FIRST_BAD_ROW[kind]
    rows, message = cases[case]
    path = tmp_path / "in.csv"
    path.write_text(header + rows.replace("c0", f"{quote}c0{quote}", 1))
    for size in BLOCK_SIZES:
        with blocks_of(size), pytest.raises(MalformedRow) as got:
            _LOADERS[kind][0](path)
        assert str(got.value) == f"{path}: {message}"


@pytest.mark.parametrize("row, message", [
    (",high,pos,neg,pos", "incomplete row"),
    ("c1,,pos,neg,pos", "incomplete row"),
    ("c1,high,pos,,pos", "incomplete row"),
    ("c1,1.5,pos,neg,", "incomplete row"),
    ("c1,1.5,pos,neg", "incomplete row"),
    ("c1,nan,pos,neg,pos", "confidence nan outside [0,1]"),
    ("c1,-0.25,pos,neg,pos", "confidence -0.25 outside [0,1]"),
])
def test_row_with_several_faults_names_the_first_kind(tmp_path, row, message):
    """A missing or empty field is named before a bad number, and a bad
    number before one out of range."""
    path = tmp_path / "cases.csv"
    path.write_text(HEADER + "c0,0.5,pos,neg,pos\n" + row + "\n")
    with pytest.raises(MalformedRow) as got:
        load_cases(path)
    assert str(got.value) == f"{path}: line 3: {message}"


def test_bad_last_row_is_found_in_few_parse_calls(tmp_path, monkeypatch):
    """A refused block is halved, one or two parse calls a step, not parsed
    row by row: on 2^12 rows whose last is bad, the refusal names the last
    line in at most 2 * 12 + 4 calls."""
    path = tmp_path / "cases.csv"
    rows = "".join(f"c{i},0.5,pos,neg,pos\n" for i in range(2**12 - 1))
    path.write_text(HEADER + rows + "c,1.5,pos,neg,pos\n")
    calls = 0
    read_csv = bio._read_csv

    def counting(path, columns, parse):
        def counted(*values):
            nonlocal calls
            calls += 1
            return parse(*values)

        return read_csv(path, columns, counted)

    monkeypatch.setattr(bio, "_read_csv", counting)
    with pytest.raises(MalformedRow) as got:
        load_cases(path)
    assert str(got.value) == f"{path}: line {2**12 + 1}: confidence 1.5 outside [0,1]"
    assert 0 < calls <= 2 * 12 + 4


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_dumps_rejects_non_finite(value):
    with pytest.raises(NonFiniteNumber):
        canonical_dumps({"ok": 1.0, "bad": [value]})


def test_canonical_dumps_sorted_and_stable():
    a = canonical_dumps({"b": 1, "a": [1.0, 0.25, None, True, False]})
    b = canonical_dumps({"a": [1.0, 0.25, None, True, False], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert json.loads(a) == {"a": [1.0, 0.25, None, True, False], "b": 1}


def test_canonical_dumps_float_format():
    text = canonical_dumps({"x": 1 / 3})
    assert "0.333333333333" in text
