import json
import math

import numpy as np
import pytest

from blamescope.data import bundled_path
from blamescope.errors import (
    DuplicateCaseId,
    EmptyCaseList,
    MalformedRow,
    NonFiniteNumber,
    SchemaViolation,
    UnknownVariable,
    UnreadableFile,
)
from blamescope.hitl import Case, CaseLog
from blamescope.io import (
    canonical_dumps,
    dump_cases,
    load_cases,
    load_ratings,
    load_scm_bundle,
)
from blamescope.scm import event_probability
from blamescope.synthetic import gen_synthetic


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


def test_caselog_from_cases_matches_loader(tmp_path):
    cases = gen_synthetic(seed=4, n_cases=30, ai_accuracy=0.7, human_accuracy=0.8)
    path = tmp_path / "cases.csv"
    path.write_text(dump_cases(cases))
    loaded, built = load_cases(path), CaseLog.from_cases(cases)
    assert rows_of(loaded) == rows_of(built)
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
    with pytest.raises(MalformedRow, match="line 3"):
        load_cases(path)


def test_load_cases_confidence_out_of_range(tmp_path):
    path = tmp_path / "cases.csv"
    path.write_text(
        "case_id,ai_confidence,ai_decision,human_decision,truth\nc0,1.5,pos,neg,pos\n"
    )
    with pytest.raises(MalformedRow, match="line 2"):
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
    with pytest.raises(MalformedRow, match="line 2"):
        load_ratings(path)


def test_load_ratings_oversized_field(tmp_path):
    path = tmp_path / "ratings.csv"
    path.write_text("case_id,rater_a,rater_b\nc0,1,2\n" + "x" * 200_000 + ",1,2\n")
    with pytest.raises(MalformedRow, match="line 3: field larger than field limit"):
        load_ratings(path)


@pytest.mark.parametrize("row", ["c1,0,2", "c1,2,-1"])
def test_load_ratings_below_one(tmp_path, row):
    path = tmp_path / "ratings.csv"
    path.write_text(f"case_id,rater_a,rater_b\nc0,1,2\n{row}\n")
    with pytest.raises(MalformedRow, match="line 3: rating -?[01] below 1"):
        load_ratings(path)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_canonical_dumps_rejects_non_finite(value):
    with pytest.raises(NonFiniteNumber):
        canonical_dumps({"ok": 1.0, "bad": [value]})


def test_canonical_dumps_sorted_and_stable():
    a = canonical_dumps({"b": 1, "a": [1.0, 0.25, None, True]})
    b = canonical_dumps({"a": [1.0, 0.25, None, True], "b": 1})
    assert a == b
    assert a.index('"a"') < a.index('"b"')
    assert json.loads(a) == {"a": [1.0, 0.25, None, True], "b": 1}


def test_canonical_dumps_float_format():
    text = canonical_dumps({"x": 1 / 3})
    assert "0.333333333333" in text
